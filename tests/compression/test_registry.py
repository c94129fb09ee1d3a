"""The unified codec registry: construction, shared contract, wire format.

Every registered codec must pass the same contract suite — roundtrip,
error-bound behaviour, and nbytes/serialization parity — so the
compressing context can swap codecs freely.
"""

import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.compression import (
    CorruptBlobError,
    SZCompressor,
    available_codecs,
    get_codec,
)
from repro.compression.registry import dumps, loads, wire_header_nbytes
from repro.kernels import available_backends

#: constructor kwargs for codecs that want non-defaults in the suite
CODEC_SPECS = {
    "szlike": dict(error_bound=1e-3, entropy="huffman"),
    "jpeg": dict(quality=50),
}

#: every registered codec; a newly registered codec is pulled into the
#: contract suite automatically.  szlike additionally runs once per
#: available kernel backend (``szlike[numpy]``, and ``szlike[numba]``
#: where installed) so every backend satisfies the full contract, not
#: just a roundtrip.
LEAF_CODECS = sorted(available_codecs()) + [
    f"szlike[{b}]" for b in available_backends()
]


def make(name):
    if name.startswith("szlike["):
        backend = name[len("szlike[") : -1]
        return get_codec(
            "szlike", kernel_backend=backend, **CODEC_SPECS.get("szlike", {})
        )
    return get_codec(name, **CODEC_SPECS.get(name, {}))


class TestRegistry:
    def test_required_codecs_registered(self):
        assert available_codecs() == ("jpeg", "lossless", "sparse-lossless", "szlike")

    def test_get_codec_constructs_with_kwargs(self):
        sz = get_codec("szlike", error_bound=5e-4, entropy="zlib")
        assert isinstance(sz, SZCompressor)
        assert sz.error_bound == 5e-4
        assert sz.entropy == "zlib"

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError, match="unknown codec"):
            get_codec("zstd-turbo")


class TestSzlikeBounds:
    def test_relative_bound_resolves_on_the_whole_tensor(self, dense_tensor):
        sz = get_codec("szlike", error_bound=1e-3, mode="rel", entropy="zlib")
        ct = sz.compress(dense_tensor)
        span = float(dense_tensor.max()) - float(dense_tensor.min())
        assert ct.error_bound == sz.resolve_error_bound(dense_tensor) == 1e-3 * span
        err = np.abs(dense_tensor.astype(np.float64) - sz.decompress(ct)).max()
        assert err <= ct.error_bound * (1 + 1e-6)

    def test_per_call_bound_overrides_the_constructor(self, activation_tensor):
        sz = get_codec("szlike", error_bound=1e-3)
        ct = sz.compress(activation_tensor, error_bound=5e-3)
        assert ct.error_bound == 5e-3
        assert np.abs(activation_tensor - sz.decompress(ct)).max() <= 5e-3 * (1 + 1e-6)


@pytest.mark.parametrize("name", LEAF_CODECS)
class TestCodecContract:
    """The shared suite every registered codec must pass."""

    def test_metadata(self, name):
        """Each class implements the contract itself: its metadata are
        class attributes, ``name`` its registry key."""
        codec = make(name)
        cls = type(codec)
        assert cls.name == name.split("[")[0]
        assert isinstance(cls.error_bounded, bool)
        assert isinstance(cls.lossless, bool)
        assert not {"name", "error_bounded", "lossless"} & set(vars(codec))

    def test_compress_takes_a_bound_and_a_key(self, name, activation_tensor):
        codec = make(name)
        ct = codec.compress(activation_tensor, error_bound=1e-2, cache_key="k")
        y = codec.decompress(ct)
        assert (y.shape, y.dtype) == (activation_tensor.shape, activation_tensor.dtype)

    def test_context_packs_and_unpacks_a_conv_input(self, name, activation_tensor):
        from repro.api import AdaptiveSpec
        from repro.core import CompressingContext
        from repro.nn import Conv2D

        codec = make(name)
        ctx = CompressingContext(codec, adaptive=AdaptiveSpec())
        conv = Conv2D(activation_tensor.shape[1], 2, 3, rng=1, name="c")
        y = ctx.unpack(conv, "x", ctx.pack(conv, "x", activation_tensor))
        assert (y.shape, y.dtype) == (activation_tensor.shape, activation_tensor.dtype)
        if codec.lossless:
            np.testing.assert_array_equal(y, activation_tensor)
        elif codec.error_bounded:
            err = np.abs(activation_tensor.astype(np.float64) - y).max()
            ulp = float(np.spacing(np.float32(np.abs(activation_tensor).max())))
            assert err <= ctx.error_bounds["c"] + ulp

    def test_roundtrip_shape_and_dtype(self, name, activation_tensor):
        codec = make(name)
        y = codec.decompress(codec.compress(activation_tensor, error_bound=1e-3))
        assert y.shape == activation_tensor.shape
        assert y.dtype == activation_tensor.dtype

    def test_error_bound_contract(self, name, activation_tensor):
        """error_bounded codecs honor the per-call bound; lossless ones
        reconstruct exactly; only the JPEG class has uncontrolled error."""
        codec = make(name)
        eb = 1e-2
        y = codec.decompress(codec.compress(activation_tensor, error_bound=eb))
        err = float(np.abs(activation_tensor.astype(np.float64) - y).max())
        if codec.lossless:
            np.testing.assert_array_equal(y, activation_tensor)
        elif codec.error_bounded:
            ulp = float(np.spacing(np.float32(np.abs(activation_tensor).max())))
            assert err <= eb + ulp
        else:
            assert np.isfinite(err)  # quality knob only — no bound to assert

    def test_nbytes_parity_with_serialization(self, name, activation_tensor):
        """nbytes == physical serialized length, wire header swapped for
        the fixed header charge (the accounting contract)."""
        codec = make(name)
        ct = codec.compress(activation_tensor, error_bound=1e-3)
        blob = dumps(ct)
        assert ct.nbytes == len(blob) - wire_header_nbytes(blob) + ct.header_nbytes

    def test_serialization_roundtrip_decompresses_identically(self, name, activation_tensor):
        codec = make(name)
        ct = codec.compress(activation_tensor, error_bound=1e-3)
        y1 = codec.decompress(ct)
        y2 = codec.decompress(loads(dumps(ct)))
        np.testing.assert_array_equal(y1, y2)


def _relu_activation(rng):
    return np.maximum(rng.standard_normal((2, 3, 9, 10)), 0).astype(np.float32)


def _dead_rows(rng):
    x = rng.standard_normal((40, 24)).astype(np.float32)
    x[rng.random(40) < 0.5] = 0
    return x


#: case -> (codec, input).  Between them the lossless cases write every
#: section both ways: a stored and a deflated bitmap, a deflated and a
#: stored exponent plane, raw byte planes, the ``plain`` scheme deflated
#: and stored (``test_corrupt_cases_write_every_section_form``).
CORRUPT_CASES = {
    "lossless": ("lossless", _relu_activation),
    "sparse-lossless": ("sparse-lossless", _relu_activation),
    "lossless-dead-rows": ("lossless", _dead_rows),
    "lossless-int16": ("lossless", lambda rng: rng.integers(0, 4, size=(9, 31)).astype(np.int16)),
    "lossless-bias": ("lossless", lambda rng: rng.standard_normal(8).astype(np.float32)),
    "lossless-16-floats": ("lossless", lambda rng: rng.standard_normal(16).astype(np.float32)),
    "jpeg": ("jpeg", _relu_activation),
}


@pytest.mark.parametrize("case", CORRUPT_CASES)
class TestCorruptBlobs:
    """A damaged jpeg / lossless blob ends in ValueError or in an array
    of the shape and dtype its header records — never in ``zlib.error``,
    ``KeyError``, ``TypeError`` or an inflate larger than that array."""

    @pytest.fixture
    def codec(self, case):
        return get_codec(CORRUPT_CASES[case][0])

    @pytest.fixture
    def blob(self, case, codec, rng):
        return dumps(codec.compress(CORRUPT_CASES[case][1](rng)))

    def test_every_single_byte_flip(self, case, codec, blob):
        sections = wire_header_nbytes(blob)
        rejected = 0
        for i in range(len(blob)):
            for mask in (0x01, 0x80, 0xFF):
                damaged = bytearray(blob)
                damaged[i] ^= mask
                try:
                    ct = loads(bytes(damaged))
                    out = codec.decompress(ct)
                except ValueError:
                    rejected += 1
                    continue
                # the lossless sections sit behind a CRC-32: stored
                # planes have no deflate checksum to catch the damage
                assert case == "jpeg" or i < sections
                assert isinstance(out, np.ndarray)
                assert (out.shape, out.dtype) == (tuple(ct.shape), np.dtype(ct.dtype))
        assert rejected > len(blob)

    def test_every_truncation(self, case, codec, blob):
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                codec.decompress(loads(blob[:cut]))

    def test_header_fields_of_the_wrong_type(self, case, blob):
        (hlen,) = struct.unpack_from("<I", blob, 4)
        header = json.loads(blob[8 : 8 + hlen])
        shape = header["shape"]
        for key, bad in [("shape", None), ("shape", [*shape[:-1], str(shape[-1])]),
                         ("shape", [*shape[:-1], -shape[-1]]),
                         ("plen", 1.5), ("dtype", 7), ("dtype", "float33")]:
            hbytes = json.dumps({**header, key: bad}).encode()
            with pytest.raises(ValueError):
                loads(blob[:4] + struct.pack("<I", len(hbytes)) + hbytes + blob[8 + hlen :])

    def test_inflate_is_capped_at_the_recorded_size(self, case, codec, blob):
        """Each deflated section in turn inflates to 64 MiB behind a 2 KiB
        header."""
        for section in ("payload", "bitmap"):
            ct = loads(blob)
            if not getattr(ct, section, b""):
                continue
            setattr(ct, section, zlib.compress(bytes(64 << 20)))
            if case != "jpeg":
                ct.crc = ct.checksum()  # past the CRC, to the inflate itself
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="inconsistent"):
                    codec.decompress(ct)
                assert tracemalloc.get_traced_memory()[1] < 1 << 20
            finally:
                tracemalloc.stop()


def test_every_reader_raises_the_one_typed_error(rng):
    """``CorruptBlobError`` is what ``registry.loads``, ``wire_header_nbytes``
    and the lossless decoders raise; it is a ``ValueError``, so callers
    that caught that keep working."""
    from repro.compression import CorruptBlobError

    assert issubclass(CorruptBlobError, ValueError)
    for case, (name, make_input) in CORRUPT_CASES.items():
        codec = get_codec(name)
        blob = dumps(codec.compress(make_input(rng)))
        (hlen,) = struct.unpack_from("<I", blob, 4)
        for damaged in (b"XXXX" + blob[4:], blob[: 8 + hlen // 2], blob[:4] + b"\xff" * 4 + blob[8:],
                        blob[:8] + b"[]" + blob[10:]):
            with pytest.raises(CorruptBlobError):
                loads(damaged)
        with pytest.raises(CorruptBlobError, match="bad magic"):
            wire_header_nbytes(b"XXXX" + blob[4:])
        if name != "jpeg":
            ct = loads(blob)
            ct.crc ^= 1
            with pytest.raises(CorruptBlobError, match="checksum"):
                codec.decompress(ct)
            ct = loads(blob)
            ct.scheme = "bitplanes"
            ct.crc = ct.checksum()
            with pytest.raises(CorruptBlobError, match="scheme|deflate payload"):
                codec.decompress(ct)


def test_corrupt_cases_write_every_section_form(rng):
    forms = set()
    for case, (name, make_input) in CORRUPT_CASES.items():
        if name == "jpeg":
            continue
        x = make_input(rng)
        ct = get_codec(name).compress(x)
        kept = len(ct.planes) // 3 if ct.scheme == "planes" else x.nbytes
        forms.add((ct.scheme, "payload", "stored" if len(ct.payload) == kept else "deflated"))
        if ct.bitmap:
            stored = len(ct.bitmap) == -(-x.size // 8)
            forms.add((ct.scheme, "bitmap", "stored" if stored else "deflated"))
    assert forms == {
        ("planes", "payload", "deflated"), ("planes", "payload", "stored"),
        ("planes", "bitmap", "stored"),
        ("planes", "bitmap", "deflated"), ("plain", "payload", "deflated"),
        ("plain", "payload", "stored"),
    }


@pytest.mark.parametrize("name", ["lossless", "sparse-lossless"])
class TestCorruptLosslessSections:
    """Damage that keeps the CRC (a forged or mis-assembled blob): every
    length is still held to the shape and the zero bitmap."""

    @pytest.fixture
    def ct(self, name, rng):
        ct = get_codec(name).compress(_relu_activation(rng))
        assert ct.scheme == "planes" and len(ct.bitmap) == -(-540 // 8)  # stored bitmap
        return ct

    def resealed(self, ct, **fields):
        for key, value in fields.items():
            setattr(ct, key, value)
        ct.crc = ct.checksum()
        return loads(dumps(ct))

    def test_bitmap_popcount_must_match_the_planes(self, name, ct):
        more = bytearray(ct.bitmap)
        more[0] = 0xFF if more[0] != 0xFF else 0x00
        with pytest.raises(ValueError, match="inconsistent"):
            get_codec(name).decompress(self.resealed(ct, bitmap=bytes(more)))

    def test_bitmap_of_the_wrong_length(self, name, ct):
        """Not the stored length, so it is read as a deflate stream."""
        with pytest.raises(ValueError, match="corrupt deflate"):
            get_codec(name).decompress(self.resealed(ct, bitmap=ct.bitmap + b"\0"))

    def test_exponent_plane_of_the_wrong_length(self, name, ct):
        kept = len(ct.planes) // 3
        longer = zlib.compress(bytes(kept + 1))
        with pytest.raises(ValueError, match="inconsistent"):
            get_codec(name).decompress(self.resealed(ct, payload=longer))

    def test_sections_the_scheme_does_not_have(self, name, ct):
        with pytest.raises(ValueError, match="inconsistent"):  # the plane is not the array
            get_codec(name).decompress(self.resealed(ct, scheme="plain"))
        with pytest.raises(ValueError, match="unknown lossless scheme"):
            get_codec(name).decompress(self.resealed(ct, scheme="deflate"))
        with pytest.raises(ValueError, match="unknown lossless scheme"):
            get_codec(name).decompress(self.resealed(ct, dtype="int32"))

    def test_crc_field_must_be_a_size(self, name, ct):
        blob = dumps(ct)
        (hlen,) = struct.unpack_from("<I", blob, 4)
        header = json.loads(blob[8 : 8 + hlen])
        for bad in (-1, "7", 1.5, None):
            hbytes = json.dumps({**header, "crc": bad}).encode()
            with pytest.raises(ValueError):
                loads(blob[:4] + struct.pack("<I", len(hbytes)) + hbytes + blob[8 + hlen :])


@pytest.mark.parametrize(
    "name,shape",
    [("lossless", shape) for shape in [(), (7,), (1, 5), (0, 4), (4, 0, 3), (6, 2, 8, 8)]]
    + [("sparse-lossless", (0, 4)), ("szlike", (7,)), ("szlike", (5, 3, 4)), ("jpeg", (5, 3, 4))],
)
def test_every_shape_the_writer_emits_passes_the_header_check(rng, name, shape):
    codec = get_codec(name)
    x = rng.standard_normal(shape).astype(np.float32)
    ct = codec.compress(x)
    back = loads(dumps(ct))
    assert (tuple(back.shape), back.dtype) == (x.shape, "float32")
    np.testing.assert_array_equal(codec.decompress(back), codec.decompress(ct))
