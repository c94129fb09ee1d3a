"""Contract of the plane coder behind ``lossless`` / ``sparse-lossless``.

Exactness is a statement about *bit patterns*: ``-0.0 == 0.0`` and
``nan != nan``, so every comparison here is on the integer view of the
array, never ``==`` on floats.  The second half holds the coder to the
bytes the raw-DEFLATE coder it replaced produced on the three states the
out-of-core parameter store passes through in its first two steps.
"""

from __future__ import annotations

import json
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.registry import dumps, get_codec, loads

CODECS = ("lossless", "sparse-lossless")
FLOATS = (np.float16, np.float32, np.float64)
INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.bool_)
SHAPES = ((0,), (), (1,), (7,), (33,), (129,), (2, 3, 5, 7), (4, 0, 3))
CONTENTS = ("normal", "zeros", "negative zeros", "zero rows", "small integers",
            "nan payloads", "infinities", "subnormals", "constant")


def bits(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    return a.reshape(-1).view(f"u{a.dtype.itemsize}")


def fill(shape, dtype, content: str, rng) -> np.ndarray:
    dtype = np.dtype(dtype)
    if dtype.kind != "f":
        hi = 2 if dtype.kind == "b" else 100
        x = rng.integers(0, hi, size=shape)
        if content in ("zeros", "negative zeros"):
            x[...] = 0
        elif content == "constant":
            x[...] = 1
        elif content == "zero rows" and x.ndim:
            x[rng.random(x.shape[0]) < 0.4] = 0
        return x.astype(dtype)
    x = rng.standard_normal(shape).astype(dtype)
    if content == "zeros":
        x[...] = 0.0
    elif content == "negative zeros":
        x[...] = -0.0
    elif content == "zero rows" and x.ndim:
        x[rng.random(x.shape[0]) < 0.4] = 0.0
    elif content == "small integers":
        x = rng.integers(-3, 4, size=shape).astype(dtype)
    elif content == "nan payloads":
        u = f"u{dtype.itemsize}"
        quiet_nan = bits(np.array(np.nan, dtype=dtype))[0]
        payload = rng.integers(0, 1 << 9, size=shape).astype(u)
        x = np.where(rng.random(shape) < 0.3, (quiet_nan | payload).view(dtype), x)
    elif content == "infinities":
        x = np.where(rng.random(shape) < 0.3, np.array(-np.inf, dtype), x)
        x = np.where(rng.random(shape) < 0.3, np.array(np.inf, dtype), x)
    elif content == "subnormals":
        x = (x * np.finfo(dtype).smallest_subnormal * 5).astype(dtype)
    elif content == "constant":
        x = np.full(shape, 0.15625, dtype=dtype)
    return np.asarray(x, dtype=dtype)


@pytest.mark.parametrize("name", CODECS)
@settings(max_examples=150, deadline=None)
@given(
    dtype=st.sampled_from(FLOATS + INTS),
    shape=st.sampled_from(SHAPES),
    content=st.sampled_from(CONTENTS),
    seed=st.integers(0, 2**32 - 1),
    level=st.sampled_from([1, 6]),
)
def test_bit_exact_through_the_wire(name, dtype, shape, content, seed, level):
    x = fill(shape, dtype, content, np.random.default_rng(seed))
    codec = get_codec(name, level=level)
    ct = codec.compress(x)
    blob = dumps(ct)
    y = codec.decompress(loads(blob))
    assert (y.shape, y.dtype) == (x.shape, x.dtype)
    assert np.array_equal(bits(y), bits(x))
    assert y.flags.writeable and y.flags.c_contiguous
    # accounting: sections at their exact size, the header at a constant
    assert ct.nbytes == len(ct.payload) + len(ct.bitmap) + len(ct.planes) + 32
    # never worse than storing the bytes
    assert ct.nbytes - 32 <= x.nbytes + (x.size + 7) // 8


@pytest.mark.parametrize("name", CODECS)
def test_negative_zero_survives(name):
    """The zero mask is taken on the bit pattern: ``x != 0`` on floats
    drops ``-0.0``, whose sign bit a reduced gradient may carry."""
    x = np.array([0.0, -0.0, 1.5, -0.0] * 16, dtype=np.float32)
    y = get_codec(name).roundtrip(x)
    assert np.array_equal(np.signbit(y), np.signbit(x))
    assert np.array_equal(bits(y), bits(x))


@pytest.mark.parametrize("name", CODECS)
def test_zero_dimensional_input_keeps_its_shape(name):
    y = get_codec(name).roundtrip(np.float32(2.5))
    assert y.shape == () and y == np.float32(2.5)


@pytest.mark.parametrize("name", CODECS)
def test_non_contiguous_input(name, rng):
    x = rng.standard_normal((6, 10, 4)).astype(np.float32).transpose(2, 0, 1)[:, ::2]
    assert np.array_equal(bits(get_codec(name).roundtrip(x)), bits(x))


def test_sparse_lossless_always_carries_the_bitmap(rng):
    x = rng.standard_normal((40, 40)).astype(np.float32)  # no zeros at all
    assert get_codec("lossless").compress(x).bitmap == b""
    assert get_codec("sparse-lossless").compress(x).bitmap != b""
    x[:20] = 0  # half zeros: both elide
    assert get_codec("lossless").compress(x).bitmap != b""


class TestHeldToTheRawDeflateBytes:
    """``act_mem_reduction_x`` on ``train_ooc`` follows the stored
    parameter bytes, and its peak is set while the momentum slots are
    all-zero (step 0) or row-sparse (step 1)."""

    SHAPES = [(8, 3, 3, 3), (8,), (16, 8, 3, 3), (16,), (32, 16, 3, 3), (32,), (64, 512), (64,)]

    @staticmethod
    def raw_deflate_blob_nbytes(x: np.ndarray) -> int:
        """Blob size of the coder this one replaced: level-6 DEFLATE of
        the raw bytes behind its JSON header and 8 framing bytes."""
        plen = len(zlib.compress(x.tobytes(), 6))
        header = {"shape": list(x.shape), "dtype": str(x.dtype), "scheme": "deflate",
                  "plen": plen, "blen": 0}
        return 8 + len(json.dumps(header, separators=(",", ":"))) + plen

    def weights(self, rng):
        return [
            (rng.standard_normal(s) * math.sqrt(2.0 / max(1, math.prod(s[1:])))).astype(np.float32)
            for s in self.SHAPES
        ]

    def states(self, rng):
        zero = [np.zeros(s, dtype=np.float32) for s in self.SHAPES]
        rows = [w * np.float32(0.01) for w in self.weights(rng)]
        for m in rows:
            if m.ndim > 1:
                m[rng.random(m.shape[0]) < 0.4] = 0.0  # dead units: zero-gradient rows
        return {"he weights": self.weights(rng), "zero momentum": zero, "row-sparse momentum": rows}

    @pytest.mark.parametrize("state", ["he weights", "zero momentum", "row-sparse momentum"])
    def test_no_more_bytes_than_level_6_over_the_raw_bytes(self, state, rng):
        arrays = self.states(rng)[state]
        codec = get_codec("lossless")
        new = sum(len(dumps(codec.compress(x))) for x in arrays)
        old = sum(self.raw_deflate_blob_nbytes(x) for x in arrays)
        assert new <= old, (state, new, old)

    def test_dense_weights_beat_the_raw_deflate_ceiling(self, rng):
        """1.10x was the old coder's ratio on parameters; the exponent
        plane alone is worth more."""
        arrays = self.weights(rng)
        codec = get_codec("lossless")
        stored = sum(len(dumps(codec.compress(x))) for x in arrays)
        assert sum(x.nbytes for x in arrays) / stored > 1.15
