"""Byte serialization of compressed tensors."""

import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.compression import CorruptBlobError, SZCompressor
from repro.compression.szlike.compressor import HEADER_BYTES
from repro.compression.szlike.huffman import (
    DEFAULT_CHUNK,
    MAX_CODE_LENGTH,
    chunk_layout,
    chunk_meta_nbytes,
)
from repro.compression.szlike.serialize import (
    _pack_uints,
    _unpack_uints,
    dumps,
    loads,
    wire_header_nbytes,
)
from repro.kernels.backends import KernelBackend
from repro.kernels.numba_backend import make_kernel_functions, python_loops


@pytest.mark.parametrize("entropy", ["huffman", "zlib", "none"])
def test_roundtrip_all_entropy_stages(activation_tensor, entropy):
    comp = SZCompressor(1e-3, entropy=entropy)
    ct = comp.compress(activation_tensor)
    blob = dumps(ct)
    back = loads(blob)
    y1 = comp.decompress(ct)
    y2 = comp.decompress(back)
    np.testing.assert_array_equal(y1, y2)


@pytest.mark.parametrize("entropy", ["huffman", "zlib", "none"])
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
# Format v3: bit-packed chunk table + deflated codebook section, validated
# before anything is decoded
# ---------------------------------------------------------------------------

GEOMETRY_SHAPES = {
    1: (1,), 216: (6, 6, 6), 16_384: (4, 4, 32, 32), 131_072: (8, 16, 32, 32),
    2**19: (8, 16, 64, 64),
}
BACKENDS = ["numpy", "python-loops"]


def _codec(backend, *args, **kw):
    comp = SZCompressor(*args, kernel_backend="numpy", **kw)
    if backend == "python-loops":
        fns = make_kernel_functions(python_loops(), lambda name: pytest.fail(f"fallback in {name}"))
        comp._kernels = KernelBackend(name="python-loops", **fns)
    return comp


def _relu_field(shape, seed=5):
    rng = np.random.default_rng(seed)
    return np.maximum(rng.standard_normal(shape), 0).astype(np.float32)


def _sections(blob):
    """Byte offset of every section boundary of a szlike blob, in order:
    magic, header-length word, header, payload-length word, payload,
    outliers, chunk table, codebook (the rest: == len(blob))."""
    (hlen,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8 : 8 + hlen])
    (plen,) = struct.unpack_from("<Q", blob, 8 + hlen)
    bounds = [0, 4, 8, 8 + hlen, 16 + hlen, 16 + hlen + plen]
    bounds.append(bounds[-1] + header["outlier_count"] * np.dtype(header["outlier_dtype"]).itemsize)
    bounds.append(bounds[-1] + chunk_meta_nbytes(header["count"]) * bool(header["chunk_count"]))
    assert header["has_codebook"] or bounds[-1] == len(blob)
    bounds.append(len(blob))
    return header, bounds


def _reheader(blob, **changes):
    header, bounds = _sections(blob)
    header.update(changes)
    hbytes = json.dumps(header, separators=(",", ":")).encode()
    return blob[:4] + struct.pack("<I", len(hbytes)) + hbytes + blob[bounds[3] :]


def _with_table(blob, lens):
    """*blob* with its chunk table rewritten to the bit lengths *lens*."""
    header, bounds = _sections(blob)
    table = _pack_uints(np.asarray(lens) - 1, chunk_layout(header["count"])[2])
    return blob[: bounds[6]] + table + blob[bounds[7] :]


def _table(blob):
    header, bounds = _sections(blob)
    _, n_chunks, width = chunk_layout(header["count"])
    return _unpack_uints(blob[bounds[6] : bounds[7]], n_chunks, width).astype(np.int64) + 1


@pytest.mark.parametrize("width", range(8, 17))
@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 255, 2048, 5000])
def test_table_packing_equals_the_bit_matrix_oracle(n, width):
    """Arithmetic packing against ``np.packbits`` over the (n, width) bit
    matrix, the all-ones value included; exact size, exact inverse."""
    values = np.random.default_rng(n * width).integers(0, 1 << width, n)
    values[n // 2] = (1 << width) - 1
    bits = (values[:, None] >> np.arange(width - 1, -1, -1)) & 1
    packed = _pack_uints(values, width)
    assert packed == np.packbits(bits.astype(np.uint8).reshape(-1)).tobytes()
    assert len(packed) == -(-n * width // 8)
    np.testing.assert_array_equal(_unpack_uints(packed, n, width), values)


@pytest.mark.parametrize("count", sorted(GEOMETRY_SHAPES))
def test_nbytes_charges_the_chunk_table_and_the_book_as_written(count):
    """``nbytes`` charges the chunk table through the helper ``dumps``
    sizes it with, and the codebook at its section's length."""
    x = _relu_field(GEOMETRY_SHAPES[count])
    ct = SZCompressor(1e-3, entropy="huffman").compress(x)
    header, bounds = _sections(dumps(ct))
    on_the_wire = bounds[7] - bounds[6]
    charged = ct.nbytes - len(ct.payload) - ct.outliers.nbytes - ct.codebook.nbytes - HEADER_BYTES
    assert count == ct.count and on_the_wire == charged
    assert on_the_wire == chunk_meta_nbytes(count) == -(-header["chunk_count"] * chunk_layout(count)[2] // 8)
    assert bounds[8] - bounds[7] == ct.codebook.nbytes <= 1024


@pytest.mark.parametrize("count", sorted(GEOMETRY_SHAPES))
def test_nbytes_is_the_blob_byte_for_byte(count):
    from repro.compression import registry

    x = _relu_field(GEOMETRY_SHAPES[count])
    ct = SZCompressor(1e-3).compress(x)
    blob = dumps(ct)
    back = loads(blob)
    assert back.nbytes == ct.nbytes == len(blob) - wire_header_nbytes(blob) + HEADER_BYTES
    np.testing.assert_array_equal(back.chunk_offsets, ct.chunk_offsets)
    np.testing.assert_array_equal(back.codebook.lengths, ct.codebook.lengths)
    assert back.codebook.section() == ct.codebook.section() == blob[_sections(blob)[1][7] :]
    # the registry frames an szlike blob as the codec does
    assert registry.dumps(ct) == blob
    assert registry.wire_header_nbytes(blob) == wire_header_nbytes(blob)
    assert registry.loads(blob).nbytes == ct.nbytes


def test_small_tensors_store_the_codebook_raw_when_deflate_does_not_pay():
    """Section length tells the forms apart: a 16-symbol alphabet's table
    stays 16 raw bytes, a 1 024-symbol one deflates."""
    x = (np.random.default_rng(8).standard_normal((2, 4, 10, 10)) * 5).astype(np.float32)
    small = SZCompressor(1e-2, dict_size=16).compress(x)
    assert small.codebook.section() == small.codebook.lengths.tobytes() and small.codebook.nbytes == 16
    big = SZCompressor(1e-2).compress(x)
    assert big.codebook.nbytes < 1024 == len(zlib.decompress(big.codebook.section()))
    for ct in (small, big):
        np.testing.assert_array_equal(loads(dumps(ct)).codebook.lengths, ct.codebook.lengths)


class TestLoadsRejectsMalformedBlobs:
    @pytest.fixture
    def blob(self):
        return dumps(SZCompressor(1e-3).compress(_relu_field(GEOMETRY_SHAPES[216])))

    def test_every_lorenzo_axis_count_the_shape_allows_loads(self, blob):
        """0 (no prediction) through min(3, axes): the same codes decode
        under each, and the writer's own count gives the written tensor."""
        header, _ = _sections(blob)
        comp = SZCompressor(1e-3)
        want = comp.decompress(loads(blob))
        for shape in ([6, 6, 6], [36, 6], [216]):
            for ndim in range(min(3, len(shape)) + 1):
                ct = loads(_reheader(blob, shape=shape, lorenzo_ndim=ndim))
                assert (ct.shape, ct.lorenzo_ndim) == (tuple(shape), ndim)
                if (shape, ndim) == ([6, 6, 6], header["lorenzo_ndim"]):
                    np.testing.assert_array_equal(comp.decompress(ct), want)

    def test_older_format_blob(self, blob):
        for old in (1, 2):  # no v1 or v2 reader is kept
            with pytest.raises(CorruptBlobError, match=f"unsupported version {old}"):
                loads(_reheader(blob, v=old))

    def test_chunk_count_must_follow_from_the_symbol_count(self, blob):
        header, _ = _sections(blob)
        assert header["chunk_count"] == 14  # 216 symbols in chunks of 16
        for bad in (0, 13, 15, 1):
            with pytest.raises(CorruptBlobError, match="chunk count"):
                loads(_reheader(blob, chunk_count=bad))
        with pytest.raises(CorruptBlobError, match="chunk count"):
            loads(_reheader(dumps(SZCompressor(1e-3, entropy="zlib").compress(
                _relu_field(GEOMETRY_SHAPES[216]))), chunk_count=14))

    def test_bit_lengths_must_sum_to_total_bits(self, blob):
        header, bounds = _sections(blob)
        meta = bytearray(blob)
        meta[bounds[6]] ^= 0x01
        with pytest.raises(CorruptBlobError, match="chunk bit lengths"):
            loads(bytes(meta))
        lens = _table(blob)
        lens[3] += 1
        with pytest.raises(CorruptBlobError, match="chunk bit lengths"):
            loads(_with_table(blob, lens))
        lens[4] -= 1  # the sum is right again: only the offsets moved
        assert loads(_with_table(blob, lens)).total_bits == header["total_bits"]
        with pytest.raises(CorruptBlobError, match="payload length|chunk bit lengths"):
            loads(_reheader(blob, total_bits=header["total_bits"] + 8))

    def test_bit_length_above_what_the_last_chunks_symbols_allow(self, deep_codebook):
        """A full chunk's entry cannot exceed ``chunk_size * 16`` by
        construction (the width is exact); the short last chunk's can."""
        from repro.compression.szlike import CompressedTensor

        def blob_with(last_start):
            return dumps(CompressedTensor(
                shape=(17,), dtype="float32", error_bound=1e-3, radius=512, lorenzo_ndim=1,
                entropy="huffman", payload=b"\xff" * 33, total_bits=257, count=17,
                outliers=np.zeros(0, dtype=np.int32),
                chunk_offsets=np.array([0, last_start], dtype=np.int64), codebook=deep_codebook,
            ))

        np.testing.assert_array_equal(_table(blob_with(241)), [241, 16])
        assert loads(blob_with(241)).count == 17  # one 16-bit codeword fits
        with pytest.raises(CorruptBlobError, match="chunk bit lengths"):
            loads(blob_with(240))

    def test_codebook_section_is_held_to_the_alphabet_and_the_length_limit(self, blob):
        """A flipped length byte (17..255) would size a 2^L-entry table; a
        section that inflates to anything but ``2 * radius`` bytes is not
        a codebook; neither reaches ``from_lengths`` or an allocation."""
        header, bounds = _sections(blob)
        body, lengths = blob[: bounds[7]], loads(blob).codebook.lengths
        assert lengths.size == 2 * header["radius"] == 1024
        for section in (lengths.tobytes(), zlib.compress(lengths.tobytes(), 1)):  # raw, deflated
            np.testing.assert_array_equal(loads(body + section).codebook.lengths, lengths)
        for bad in (MAX_CODE_LENGTH + 1, 24, 200):
            hostile = lengths.copy()
            hostile[-1] = bad
            for section in (hostile.tobytes(), zlib.compress(hostile.tobytes())):
                with pytest.raises(CorruptBlobError, match="MAX_CODE_LENGTH"):
                    loads(body + section)
        sections = (
            zlib.compress(bytes(1023)), zlib.compress(bytes(1025)), bytes(1023), bytes(1025),
            zlib.compress(bytes(64 << 20)), zlib.compress(lengths.tobytes()) + b"junk", b"",
        )
        tracemalloc.start()
        try:
            for section in sections:
                with pytest.raises(CorruptBlobError, match="deflate payload"):
                    loads(body + section)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_a_huffman_blob_carries_its_codebook(self, blob):
        """A Huffman blob without its codebook section, or with the
        retired ``codebook_shared`` flag, is corrupt at ``loads`` — not a
        tensor that fails later at decode."""
        from repro.compression import registry

        header, bounds = _sections(blob)
        bookless = blob[: bounds[7]]
        for damaged in (
            _reheader(bookless, has_codebook=False),
            _reheader(bookless, has_codebook=False, codebook_shared=True),
            _reheader(blob, codebook_shared=True),
            _reheader(blob, codebook_shared=False),
        ):
            with pytest.raises(CorruptBlobError):
                registry.loads(damaged)
        zl = dumps(SZCompressor(1e-3, entropy="zlib").compress(_relu_field(GEOMETRY_SHAPES[216])))
        with pytest.raises(CorruptBlobError, match="codebook"):
            registry.loads(_reheader(zl, has_codebook=True))
        assert loads(blob).codebook.nbytes == len(blob) - bounds[7]

    def test_the_retired_chunked_containers_are_corrupt(self):
        """The former ``CKRP`` container, in both of its layouts — chunks
        that each carry a book, and bookless chunks flagged
        ``codebook_shared`` with one book section after them — is no
        longer a blob ``registry.loads`` accepts."""
        from repro.compression import registry

        x = _relu_field((8, 8, 16, 16))
        cts = [SZCompressor(1e-3).compress(part) for part in np.array_split(x, 2)]
        own_books = [dumps(c) for c in cts]
        shared_book = [
            _reheader(blob[: len(blob) - c.codebook.nbytes], has_codebook=False,
                      codebook_shared=True)
            for blob, c in zip(own_books, cts)
        ]
        header = {"shape": list(x.shape), "dtype": "float32", "axis": 0}
        for chunks, extra, tail in (
            (own_books, {}, b""),
            (shared_book, {"shared_codebook_len": cts[0].codebook.nbytes},
             cts[0].codebook.section()),
        ):
            hbytes = json.dumps({**header, "chunk_lengths": [len(c) for c in chunks],
                                 **extra}).encode()
            blob = b"CKRP" + struct.pack("<I", len(hbytes)) + hbytes + b"".join(chunks) + tail
            with pytest.raises(CorruptBlobError, match="bad magic"):
                registry.loads(blob)
            with pytest.raises(CorruptBlobError, match="bad magic"):
                registry.wire_header_nbytes(blob)

    def test_header_must_be_self_consistent(self, blob):
        for changes in (
            dict(count=217), dict(shape=[6, 6, 7]), dict(shape=[2.4, 90]), dict(entropy="huffmao"),
            dict(dtype="float33"), dict(outlier_dtype="int31"), dict(count="216"),
            dict(radius=-512), dict(radius=512.0), dict(outlier_count=-1), dict(total_bits=None),
            # Lorenzo axes: 0 (no prediction) to min(3, axes) of the shape, an int
            dict(lorenzo_ndim=-1), dict(lorenzo_ndim=4), dict(shape=[36, 6], lorenzo_ndim=3),
            dict(shape=[216], lorenzo_ndim=2), dict(lorenzo_ndim=True), dict(lorenzo_ndim=False),
            dict(lorenzo_ndim=2.0), dict(lorenzo_ndim=0.0), dict(lorenzo_ndim=None),
        ):
            with pytest.raises(CorruptBlobError):
                SZCompressor(1e-3).decompress(loads(_reheader(blob, **changes)))
        header, _ = _sections(blob)
        del header["radius"]
        hbytes = json.dumps(header).encode()
        with pytest.raises(CorruptBlobError, match="malformed"):
            loads(blob[:4] + struct.pack("<I", len(hbytes)) + hbytes + blob[_sections(blob)[1][3] :])
        for not_json in (b"\xff\xfe", b"[1, 2]", b"{"):
            with pytest.raises(CorruptBlobError, match="malformed"):
                loads(blob[:4] + struct.pack("<I", len(not_json)) + not_json + blob[_sections(blob)[1][3] :])


@pytest.mark.parametrize("backend", BACKENDS)
class TestBlobFuzz:
    """Deterministic fuzz: a damaged blob either still decodes to its
    header's tensor or raises CorruptBlobError / ValueError — no other
    exception, and no allocation sized by anything but the (validated)
    symbol count.  Damage to the container is caught by ``loads``, before
    any decode."""

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

    def test_truncation_at_every_section_boundary(self, backend):
        comp = _codec(backend, 1e-3)
        x = _relu_field((4, 8, 12, 12))
        x[0, 0, 0, 0] = 1e6  # a real outlier section
        blob = dumps(comp.compress(x))
        _, bounds = _sections(blob)
        assert len(set(bounds)) == len(bounds)  # every section is non-empty
        for b in bounds:
            for cut in {max(b - 1, 0), b, b + 1} - {len(blob)}:
                with pytest.raises(CorruptBlobError):
                    loads((blob + b"\0")[:cut])
        np.testing.assert_array_equal(comp.decompress(loads(blob)), comp.decompress(comp.compress(x)))

    def test_seeded_bit_flips_in_header_and_metadata(self, backend):
        comp = _codec(backend, 1e-3)
        x = _relu_field((4, 8, 12, 12))
        ct = comp.compress(x)
        want = comp.decompress(ct)
        blob = dumps(ct)
        _, bounds = _sections(blob)
        # framing words + JSON header + chunk table + codebook section
        region = list(range(4, bounds[4])) + list(range(bounds[6], bounds[8]))
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
        # a flip in the chunk table changes the sum, one in the deflated
        # codebook its Adler-32: most are rejected
        assert outcomes["rejected"] > 100

    def test_hostile_last_offset_over_an_all_ones_payload(self, backend, deep_codebook):
        """lens = [256, 1] passes validation (sum == total_bits, the last
        within one codeword) and starts the second chunk on the last
        declared bit of a 0xff payload that ends 7 bits later."""
        from repro.compression.szlike import CompressedTensor

        ct = CompressedTensor(
            shape=(32,), dtype="float32", error_bound=1e-3, radius=512, lorenzo_ndim=1,
            entropy="huffman", payload=b"\xff" * 33, total_bits=257, count=32,
            outliers=np.zeros(0, dtype=np.int32),
            chunk_offsets=np.array([0, 256], dtype=np.int64), codebook=deep_codebook,
        )
        comp = _codec(backend, 1e-3)
        back, out = self._decode_or_value_error(comp, dumps(ct), ct.count)
        assert back is None or out.shape == (32,)
        np.testing.assert_array_equal(loads(dumps(ct)).chunk_offsets, [0, 256])

    @pytest.mark.parametrize("entropy", ["zlib"])
    def test_every_byte_flip_and_truncation_of_a_deflated_blob(self, backend, entropy):
        """The deflate stage inflates through ``lossless.inflate`` with
        the size the header implies: damage anywhere ends in ValueError
        (never ``zlib.error``) or in a tensor of the recorded shape."""
        comp = _codec(backend, 1e-2, entropy=entropy, dict_size=64)
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


def test_deflate_bomb_behind_a_small_header_is_not_inflated():
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
        with pytest.raises(CorruptBlobError, match="deflate payload"):
            SZCompressor(1e-3).decompress(loads(blob))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
