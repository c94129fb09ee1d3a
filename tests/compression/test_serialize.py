"""Byte serialization of compressed tensors."""

import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.compression import SZCompressor
from repro.compression.szlike.compressor import HEADER_BYTES
from repro.compression.szlike.huffman import DEFAULT_CHUNK, MAX_CODE_LENGTH, chunk_meta_nbytes
from repro.compression.szlike.serialize import dumps, loads, wire_header_nbytes


@pytest.mark.parametrize("entropy", ["huffman", "zlib", "huffman+zlib", "none"])
def test_roundtrip_all_entropy_stages(activation_tensor, entropy):
    comp = SZCompressor(1e-3, entropy=entropy)
    ct = comp.compress(activation_tensor)
    blob = dumps(ct)
    back = loads(blob)
    y1 = comp.decompress(ct)
    y2 = comp.decompress(back)
    np.testing.assert_array_equal(y1, y2)


@pytest.mark.parametrize("entropy", ["huffman", "zlib", "huffman+zlib", "none"])
def test_nbytes_matches_serialized_length_exactly(activation_tensor, entropy):
    """The accounting contract: nbytes equals the physical byte string,
    with the variable wire header charged at the fixed HEADER_BYTES."""
    comp = SZCompressor(1e-3, entropy=entropy)
    ct = comp.compress(activation_tensor)
    blob = dumps(ct)
    assert ct.nbytes == len(blob) - wire_header_nbytes(blob) + HEADER_BYTES


def test_metadata_preserved(dense_tensor):
    comp = SZCompressor(5e-4, entropy="huffman", zero_filter=False)
    ct = comp.compress(dense_tensor)
    back = loads(dumps(ct))
    assert back.shape == ct.shape
    assert back.dtype == ct.dtype
    assert back.error_bound == ct.error_bound
    assert back.zero_filter == ct.zero_filter
    assert back.count == ct.count


def test_with_outliers(rng):
    x = rng.standard_normal((16, 16)).astype(np.float32)
    x[::4, ::4] += 1e5
    comp = SZCompressor(1e-3, entropy="zlib")
    ct = comp.compress(x)
    assert ct.outliers.size > 0
    back = loads(dumps(ct))
    np.testing.assert_array_equal(comp.decompress(back), comp.decompress(ct))


def test_bad_magic_rejected():
    with pytest.raises(ValueError):
        loads(b"XXXX" + b"\x00" * 64)


def test_truncated_rejected(activation_tensor):
    ct = SZCompressor(1e-3, entropy="zlib").compress(activation_tensor)
    blob = dumps(ct)
    with pytest.raises(Exception):
        loads(blob[: len(blob) - 10] )


def test_trailing_garbage_rejected(activation_tensor):
    ct = SZCompressor(1e-3, entropy="zlib").compress(activation_tensor)
    with pytest.raises(ValueError):
        loads(dumps(ct) + b"junk")


# ---------------------------------------------------------------------------
# Format v2: per-chunk bit lengths, validated before anything is decoded
# ---------------------------------------------------------------------------

GEOMETRY_SHAPES = {1: (1,), 216: (6, 6, 6), 16_384: (4, 4, 32, 32), 131_072: (8, 16, 32, 32)}


def _relu_field(shape, seed=5):
    rng = np.random.default_rng(seed)
    return np.maximum(rng.standard_normal(shape), 0).astype(np.float32)


def _sections(blob):
    """Byte offset of every section boundary of a szlike blob, in order:
    magic, header-length word, header, payload-length word, payload,
    outliers, chunk metadata, codebook (== len(blob))."""
    (hlen,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8 : 8 + hlen])
    (plen,) = struct.unpack_from("<Q", blob, 8 + hlen)
    bounds = [0, 4, 8, 8 + hlen, 16 + hlen, 16 + hlen + plen]
    bounds.append(bounds[-1] + header["outlier_count"] * np.dtype(header["outlier_dtype"]).itemsize)
    bounds.append(bounds[-1] + chunk_meta_nbytes(header["count"]) * bool(header["chunk_count"]))
    bounds.append(bounds[-1] + 2 * header["radius"] * header["has_codebook"])
    assert bounds[-1] == len(blob)
    return header, bounds


def _reheader(blob, **changes):
    header, bounds = _sections(blob)
    header.update(changes)
    hbytes = json.dumps(header, separators=(",", ":")).encode()
    return blob[:4] + struct.pack("<I", len(hbytes)) + hbytes + blob[bounds[3] :]


@pytest.mark.parametrize("count", sorted(GEOMETRY_SHAPES))
def test_estimate_charges_the_blobs_chunk_metadata(count):
    """estimate_compressed_nbytes, CompressedTensor.nbytes and dumps agree
    on the chunk-metadata bytes (it was a hard-coded 8 per 4096 symbols)."""
    x = _relu_field(GEOMETRY_SHAPES[count])
    comp = SZCompressor(1e-3, entropy="huffman")
    ct = comp.compress(x)
    header, bounds = _sections(dumps(ct))
    on_the_wire = bounds[7] - bounds[6]
    charged = ct.nbytes - len(ct.payload) - ct.outliers.nbytes - ct.codebook.nbytes - HEADER_BYTES
    # the zlib stage's estimate is the same sum minus codebook and metadata
    estimated = (
        comp.estimate_compressed_nbytes(x)
        - SZCompressor(1e-3, entropy="zlib").estimate_compressed_nbytes(x)
        - comp.dict_size
    )
    assert count == ct.count and on_the_wire == charged == round(estimated, 6)
    assert on_the_wire == 2 * header["chunk_count"] == chunk_meta_nbytes(count)


def test_chunked_estimate_inherits_the_chunk_metadata_charge():
    from repro.compression import ChunkedCodec

    x = _relu_field(GEOMETRY_SHAPES[16_384])
    kw = dict(workers=2, min_chunk_nbytes=1 << 13, error_bound=1e-3)
    huff, zl = ChunkedCodec("szlike", **kw), ChunkedCodec("szlike", entropy="zlib", **kw)
    chunks = huff.compress(x).chunks
    assert len(chunks) > 1
    # one shared codebook + every chunk's own per-chunk bit lengths
    estimated = huff.estimate_nbytes(x) - zl.estimate_nbytes(x) - huff.inner.dict_size
    assert round(estimated, 6) == sum(chunk_meta_nbytes(c.count) for c in chunks)


def test_roundtrip_keeps_nbytes_byte_exact_szlike_and_chunked():
    from repro.compression import ChunkedCodec
    from repro.compression import registry

    x = _relu_field(GEOMETRY_SHAPES[16_384])
    ct = SZCompressor(1e-3).compress(x)
    back = loads(dumps(ct))
    assert back.nbytes == ct.nbytes
    np.testing.assert_array_equal(back.chunk_offsets, ct.chunk_offsets)
    ck = ChunkedCodec("szlike", workers=2, min_chunk_nbytes=1 << 13, error_bound=1e-3)
    cct = ck.compress(x)
    assert len(cct.chunks) > 1
    cback = registry.loads(registry.dumps(cct))
    assert cback.nbytes == cct.nbytes
    for chunk in cback.chunks:
        blob = dumps(chunk)
        assert chunk.nbytes == len(blob) - wire_header_nbytes(blob) + HEADER_BYTES
    np.testing.assert_array_equal(ck.decompress(cback), ck.decompress(cct))


class TestLoadsRejectsMalformedBlobs:
    @pytest.fixture
    def blob(self):
        return dumps(SZCompressor(1e-3).compress(_relu_field(GEOMETRY_SHAPES[216])))

    def test_v1_blob(self, blob):
        with pytest.raises(ValueError, match="unsupported version 1"):
            loads(_reheader(blob, v=1))

    def test_chunk_count_must_follow_from_the_symbol_count(self, blob):
        header, _ = _sections(blob)
        assert header["chunk_count"] == 14  # 216 symbols in chunks of 16
        for bad in (0, 13, 15, 1):
            with pytest.raises(ValueError, match="chunk count"):
                loads(_reheader(blob, chunk_count=bad))
        with pytest.raises(ValueError, match="chunk count"):
            loads(_reheader(dumps(SZCompressor(1e-3, entropy="zlib").compress(
                _relu_field(GEOMETRY_SHAPES[216]))), chunk_count=14))

    def test_bit_lengths_must_sum_to_total_bits(self, blob):
        header, bounds = _sections(blob)
        meta = bytearray(blob)
        meta[bounds[6]] ^= 0x01
        with pytest.raises(ValueError, match="chunk bit lengths"):
            loads(bytes(meta))
        with pytest.raises(ValueError, match="chunk bit lengths"):
            loads(_reheader(blob, total_bits=header["total_bits"] + 1))

    def test_bit_length_above_a_full_chunk_of_maximal_codewords(self, blob):
        header, bounds = _sections(blob)
        lens = np.frombuffer(blob[bounds[6] : bounds[7]], dtype=np.uint16).copy()
        lens[0] += 16 * MAX_CODE_LENGTH  # sum kept consistent below
        hostile = blob[: bounds[6]] + lens.tobytes() + blob[bounds[7] :]
        hostile = _reheader(hostile, total_bits=header["total_bits"] + 16 * MAX_CODE_LENGTH)
        with pytest.raises(ValueError, match="chunk bit lengths"):
            loads(hostile)

    def test_codebook_length_byte_above_the_limit(self, blob):
        """A flipped length byte (17..255) would size a 2^L-entry table."""
        assert loads(blob).codebook is not None
        for bad in (MAX_CODE_LENGTH + 1, 24, 200):
            with pytest.raises(ValueError, match="MAX_CODE_LENGTH"):
                loads(blob[:-1] + bytes([bad]))  # the codebook is the last section

    def test_chunked_container_shared_codebook_length_byte(self):
        from repro.compression import registry
        from repro.compression.registry import ChunkedCodec

        ck = ChunkedCodec("szlike", workers=2, min_chunk_nbytes=1 << 13, error_bound=1e-3)
        cct = ck.compress(_relu_field((8, 8, 16, 16)))
        assert len(cct.chunks) > 1 and cct.shared_codebook is not None
        data = registry.dumps(cct)  # the shared length table is written last
        assert registry.loads(data).shared_codebook.max_length <= MAX_CODE_LENGTH
        with pytest.raises(ValueError, match="MAX_CODE_LENGTH"):
            registry.loads(data[:-1] + bytes([MAX_CODE_LENGTH + 8]))

    def test_header_must_be_self_consistent(self, blob):
        for changes in (
            dict(count=217), dict(shape=[6, 6, 7]), dict(shape=[2.4, 90]), dict(entropy="huffmao"),
            dict(dtype="float33"), dict(outlier_dtype="int31"), dict(count="216"),
        ):
            with pytest.raises(ValueError):
                SZCompressor(1e-3).decompress(loads(_reheader(blob, **changes)))
        header, _ = _sections(blob)
        del header["radius"]
        hbytes = json.dumps(header).encode()
        with pytest.raises(ValueError, match="malformed"):
            loads(blob[:4] + struct.pack("<I", len(hbytes)) + hbytes + blob[_sections(blob)[1][3] :])


class TestBlobFuzz:
    """Deterministic fuzz: a damaged blob either still decodes to its
    header's tensor or raises ValueError — no other exception, and no
    allocation sized by anything but the (validated) symbol count."""

    #: decode-side bytes per symbol (codes, residuals, grid, float
    #: staging, output) plus the dense 2^16-entry decode tables
    BYTES_PER_SYMBOL, FIXED_BYTES = 96, 4 << 20

    def _decode_or_value_error(self, comp, blob, count):
        tracemalloc.start()
        try:
            ct = loads(blob)
            out = comp.decompress(ct)
        except ValueError:
            return None, None
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert peak <= self.BYTES_PER_SYMBOL * (count + DEFAULT_CHUNK) + self.FIXED_BYTES
        assert out.shape == tuple(ct.shape)
        return ct, out

    def test_truncation_at_every_section_boundary(self):
        comp = SZCompressor(1e-3)
        x = _relu_field((4, 8, 12, 12))
        x[0, 0, 0, 0] = 1e6  # a real outlier section
        blob = dumps(comp.compress(x))
        _, bounds = _sections(blob)
        assert len(set(bounds)) == len(bounds)  # every section is non-empty
        for b in bounds[:-1]:
            for cut in {max(b - 1, 0), b, b + 1}:
                with pytest.raises(ValueError):
                    comp.decompress(loads(blob[:cut]))
        np.testing.assert_array_equal(comp.decompress(loads(blob)), comp.decompress(comp.compress(x)))

    def test_seeded_bit_flips_in_header_and_metadata(self):
        comp = SZCompressor(1e-3)
        x = _relu_field((4, 8, 12, 12))
        ct = comp.compress(x)
        want = comp.decompress(ct)
        blob = dumps(ct)
        _, bounds = _sections(blob)
        # framing words + JSON header + chunk metadata
        region = list(range(4, bounds[4])) + list(range(bounds[6], bounds[7]))
        rng = np.random.default_rng(17)
        outcomes = {"rejected": 0, "decoded": 0}
        for _ in range(200):
            damaged = bytearray(blob)
            damaged[region[rng.integers(len(region))]] ^= 1 << rng.integers(8)
            back, out = self._decode_or_value_error(comp, bytes(damaged), ct.count)
            outcomes["rejected" if back is None else "decoded"] += 1
            same_grid = back is not None and (
                back.error_bound, back.radius, back.lorenzo_ndim, back.dtype, back.zero_filter
            ) == (ct.error_bound, ct.radius, ct.lorenzo_ndim, ct.dtype, ct.zero_filter)
            if same_grid:  # the flip missed every value-bearing field
                np.testing.assert_array_equal(out, want)
        # every flip in the chunk metadata changes the sum: most are rejected
        assert outcomes["rejected"] > 100

    def test_hostile_last_offset_over_an_all_ones_payload(self, deep_codebook):
        """lens = [256, 1] passes validation (sum == total_bits, each <=
        16 * MAX_CODE_LENGTH) and starts the second chunk on the last
        declared bit of a 0xff payload that ends 7 bits later."""
        from repro.compression.szlike import CompressedTensor

        ct = CompressedTensor(
            shape=(32,), dtype="float32", error_bound=1e-3, radius=512, lorenzo_ndim=1,
            entropy="huffman", payload=b"\xff" * 33, total_bits=257, count=32,
            outliers=np.zeros(0, dtype=np.int32),
            chunk_offsets=np.array([0, 256], dtype=np.int64), codebook=deep_codebook,
        )
        comp = SZCompressor(1e-3)
        back, out = self._decode_or_value_error(comp, dumps(ct), ct.count)
        assert back is None or out.shape == (32,)
        np.testing.assert_array_equal(loads(dumps(ct)).chunk_offsets, [0, 256])

    @pytest.mark.parametrize("entropy", ["zlib", "huffman+zlib"])
    def test_every_byte_flip_and_truncation_of_a_deflated_blob(self, entropy):
        """The deflate stages inflate through ``lossless.inflate`` with
        the size the header implies: damage anywhere ends in ValueError
        (never ``zlib.error``) or in a tensor of the recorded shape."""
        comp = SZCompressor(1e-2, entropy=entropy, dict_size=64)
        x = _relu_field((2, 3, 6, 6))
        x[0, 0, 0, 0] = 1e4  # a real outlier section
        blob = dumps(comp.compress(x))
        decoded = 0
        damaged_blobs = [blob[:cut] for cut in range(len(blob))]
        for i in range(len(blob)):
            for mask in (0x01, 0x80, 0xFF):
                damaged = bytearray(blob)
                damaged[i] ^= mask
                damaged_blobs.append(bytes(damaged))
        for damaged in damaged_blobs:
            try:
                ct = loads(damaged)
                out = comp.decompress(ct)
            except ValueError:
                continue
            decoded += 1
            assert out.shape == tuple(ct.shape) and out.dtype == np.dtype(ct.dtype)
        assert 0 < decoded < len(damaged_blobs) // 2  # e.g. a flipped outlier byte still decodes

    def test_deflate_bomb_behind_a_small_header_is_not_inflated(self):
        """64 MiB of zeros deflate to ~64 KiB; the header promises 4 KiB
        of codes, so the inflate stops there."""
        from repro.compression.szlike import CompressedTensor

        deflater = zlib.compressobj(9)
        bomb = b"".join(deflater.compress(bytes(1 << 20)) for _ in range(64)) + deflater.flush()
        assert len(bomb) < 128 << 10
        ct = CompressedTensor(
            shape=(2048,), dtype="float32", error_bound=1e-3, radius=512, lorenzo_ndim=1,
            entropy="zlib", payload=bomb, total_bits=0, count=2048,
            outliers=np.zeros(0, dtype=np.int32), raw_codes_dtype="uint16",
        )
        blob = dumps(ct)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="deflate payload"):
                SZCompressor(1e-3).decompress(loads(blob))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
