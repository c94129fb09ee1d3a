"""Contract suite of the szlike codec, over every backend that resolves.

The hot path runs in the narrowest dtype that is exact for the tensor
at hand (``int32`` grid indices unless a guard selects ``int64``, pair-
packed Huffman words, ``uint16`` / ``uint8`` decode tables, one multiply
into the output dtype).  The oracle is the allocating int64 / float64
reference API the repo keeps for exactly this purpose — ``prequantize``
-> ``lorenzo_encode`` -> ``codes_from_residuals`` -> ``_encode_bitplane``
and back through ``reconstruct`` with the explicit Section 4.4 zero
filter, at the predictor the blob records (Lorenzo, or 0 axes when the
codes of the unpredicted grid are cheaper) — and the contract is
equality of every byte and every bit,
down to the serialized container: the format-v3 chunk table against a
``np.packbits`` bit matrix, the codebook section against ``zlib``.
"""

from __future__ import annotations

import math
import zlib
from contextlib import ExitStack
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AdaptiveSpec
from repro.compression import registry
from repro.compression.szlike import (
    QuantizedResiduals,
    SZCompressor,
    codes_from_residuals,
    lorenzo_decode,
    lorenzo_encode,
    prequantize,
    reconstruct,
    residuals_from_codes,
)
from repro.compression.szlike.compressor import HEADER_BYTES, _pack_outliers
from repro.compression.szlike.huffman import (
    MAX_CODE_LENGTH,
    _encode_bitplane,
    chunk_size_for,
    entropy_bits_from_hist,
    histogram,
    huffman_encode,
)
from repro.compression.szlike.serialize import dumps, loads, wire_header_nbytes
from repro.core.activation_store import CompressingContext, PackedActivation
from repro.kernels import available_backends, get_backend, kernel_stats
from repro.utils.scratch import ScratchPool

ENTROPY_STAGES = ("huffman", "zlib", "none")


@st.composite
def tensors(draw):
    """``(x, eb)``: float32 / float64, 1-4 axes, 1..600 elements (odd and
    even counts), dense to all-zero, and a bound from 1e-11 to 1e3 of
    the value range — below ~1e-9 the grid indices overflow int32, so
    both dtype guards are crossed in both directions."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = tuple(
        draw(
            st.lists(st.integers(1, 24), min_size=1, max_size=4).filter(
                lambda dims: math.prod(dims) <= 600
            )
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(shape) * draw(st.sampled_from([1e-3, 1.0, 1e4]))
    if draw(st.booleans()):
        x = np.maximum(x, 0)  # post-ReLU
    x[rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 0.95, 1.0]))] = 0
    x = x.astype(dtype)
    vrange = float(x.max() - x.min()) or 1.0
    return x, vrange * 10.0 ** draw(st.floats(-11, 3))


def reference_decode(qr: QuantizedResiduals, ndim: int, eb: float, dtype) -> np.ndarray:
    q = lorenzo_decode(residuals_from_codes(qr), ndim)
    x = reconstruct(q, eb, dtype=dtype)
    x[np.abs(x) <= eb] = 0  # the zero filter, explicitly
    return x


@pytest.mark.parametrize("backend", available_backends())
@given(
    tensors(),
    st.sampled_from([16, 1024]),
    st.sampled_from([1, 2, 3]),
    st.sampled_from(ENTROPY_STAGES),
)
@settings(max_examples=150, deadline=None)
def test_bytes_and_bits_equal_the_int64_float64_reference(backend, tensor, dict_size, ndim, entropy):
    x, eb = tensor
    codec = SZCompressor(
        eb, dict_size=dict_size, lorenzo_ndim=ndim, entropy=entropy, kernel_backend=backend
    )
    radius, lorenzo = codec.radius, min(ndim, x.ndim)
    q_ref = prequantize(x, eb)

    # the two quantize kernels, directly, under both predictor candidates
    kernels = get_backend(backend)
    candidates = {}
    for ndim in (lorenzo, 0):
        delta_ref = lorenzo_encode(q_ref, ndim)
        qr_ref = codes_from_residuals(delta_ref, radius)
        with ExitStack() as stack:
            codes, outliers, flat = kernels.quantize_encode(
                x, eb, radius, ndim, ScratchPool(), stack
            )
            assert codes.dtype == qr_ref.codes.dtype
            np.testing.assert_array_equal(codes, qr_ref.codes)
            np.testing.assert_array_equal(outliers, qr_ref.outliers)
            np.testing.assert_array_equal(flat, delta_ref.reshape(-1))
            q = kernels.quantize_decode(codes, outliers, radius, x.shape, ndim)
        np.testing.assert_array_equal(q, q_ref)
        candidates[ndim] = qr_ref

    # the choice (every tensor here is one slice): Shannon bits of the
    # codes plus 32 bits an outlier, no prediction only when strictly cheaper
    ct = codec.compress(x)
    bits = {
        ndim: entropy_bits_from_hist(histogram(qr.codes, dict_size)) + 32 * qr.outliers.size
        for ndim, qr in candidates.items()
    }
    ndim = 0 if bits[0] < bits[lorenzo] else lorenzo
    assert ct.lorenzo_ndim == ndim
    qr_ref = candidates[ndim]

    # the blob, section by section
    assert (ct.count, ct.raw_codes_dtype) == (x.size, str(qr_ref.codes.dtype))
    want_outliers = _pack_outliers(qr_ref.outliers)
    assert ct.outliers.dtype == want_outliers.dtype
    np.testing.assert_array_equal(ct.outliers, want_outliers)
    blob = dumps(ct)
    if entropy == "huffman":
        payload, total_bits, offsets = _encode_bitplane(
            qr_ref.codes, ct.codebook, chunk_size_for(x.size)
        )
        assert (ct.payload, ct.total_bits) == (payload, total_bits)
        np.testing.assert_array_equal(ct.chunk_offsets, offsets)
        # the container: table and book sections close the blob
        width = (chunk_size_for(x.size) * MAX_CODE_LENGTH - 1).bit_length()
        lens = np.diff(np.append(offsets, total_bits))
        bits = ((lens - 1)[:, None] >> np.arange(width - 1, -1, -1)) & 1
        table = np.packbits(bits.astype(np.uint8).reshape(-1)).tobytes()
        raw = ct.codebook.lengths.tobytes()
        book = blob[len(blob) - ct.codebook.nbytes :]
        assert blob.endswith(table + book) and len(raw) == dict_size
        assert book == raw if len(book) == dict_size else zlib.decompress(book) == raw
        assert len(book) == min(dict_size, len(zlib.compress(raw, 6)))
        back = loads(blob)
        np.testing.assert_array_equal(back.chunk_offsets, offsets)
        np.testing.assert_array_equal(back.codebook.lengths, ct.codebook.lengths)
    else:
        got = zlib.decompress(ct.payload) if entropy == "zlib" else ct.payload
        assert got == qr_ref.codes.tobytes()
    assert loads(blob).nbytes == ct.nbytes == len(blob) - wire_header_nbytes(blob) + HEADER_BYTES

    # the reconstruction, bit for bit (sign of zeros included)
    y = codec.decompress(ct)
    want = reference_decode(qr_ref, ndim, eb, x.dtype)
    assert y.dtype == want.dtype == x.dtype
    assert y.tobytes() == want.tobytes()
    assert not np.signbit(y[y == 0]).any()

    # and the paper's contract: exact in float64, plus at most half an
    # ulp of the magnitude when the output is cast to a narrower dtype
    x64 = x.astype(np.float64)
    slack = 4 * float(np.spacing(np.abs(x64).max() + eb))
    if x.dtype != np.float64:
        slack += 0.5 * float(np.spacing(x.dtype.type(np.abs(x).max() + eb)))
    assert np.abs(x64 - y.astype(np.float64)).max() <= eb + slack


@pytest.mark.parametrize("backend", available_backends())
@given(tensors(), st.sampled_from([1, 2, 3]), st.sampled_from(ENTROPY_STAGES), st.booleans())
@settings(max_examples=100, deadline=None)
def test_the_chosen_predictor_changes_no_decoded_value(backend, tensor, ndim, entropy, keyed):
    """A blob under the chosen predictor decodes bit for bit to the blob
    the codec writes when Lorenzo is forced, under the same or a
    different code, and each blob's ``nbytes`` is its serialized size:
    the predictor is a lossless transform of the grid indices."""
    x, eb = tensor
    options = dict(lorenzo_ndim=ndim, entropy=entropy, kernel_backend=backend)
    key = "layer" if keyed else None
    codec = SZCompressor(eb, **options)
    chosen = codec.compress(x, cache_key=key)
    with pytest.MonkeyPatch.context() as mp:
        # no candidate is ever strictly cheaper: Lorenzo stays
        mp.setattr(SZCompressor, "_bits", lambda self, codes, outliers: 0.0)
        forced = SZCompressor(eb, **options).compress(x, cache_key=key)
    assert forced.lorenzo_ndim == min(ndim, x.ndim)
    assert chosen.lorenzo_ndim in (0, forced.lorenzo_ndim)
    assert codec.decompress(chosen).tobytes() == codec.decompress(forced).tobytes()
    for ct in (chosen, forced):
        blob = registry.dumps(ct)
        assert ct.nbytes == len(blob) - registry.wire_header_nbytes(blob) + HEADER_BYTES
        assert codec.decompress(registry.loads(blob)).tobytes() == codec.decompress(ct).tobytes()


@pytest.mark.parametrize("entropy", ENTROPY_STAGES)
@pytest.mark.parametrize("key", ["layer", None], ids=["keyed", "unkeyed"])
@given(tensors())
@settings(max_examples=25, deadline=None)
def test_repeated_calls_keep_the_bound_the_bytes_and_the_fresh_reconstruction(
    entropy, key, tensor
):
    """Two calls, under one cache key (so a cached book is reused by the
    second) or under none: each decoded value stays within the bound,
    the blob survives the registry's wire format bit-equal, its
    ``nbytes`` is the blob's, and the reconstruction is a fresh codec's
    unkeyed one — a reused book changes bytes, never values."""
    x, eb = tensor
    codec = SZCompressor(eb, entropy=entropy)
    fresh = SZCompressor(eb, entropy=entropy)
    want = fresh.decompress(fresh.compress(x))
    x64 = x.astype(np.float64)
    slack = 4 * float(np.spacing(np.abs(x64).max() + eb))
    if x.dtype != np.float64:
        slack += 0.5 * float(np.spacing(x.dtype.type(np.abs(x).max() + eb)))
    for _ in range(2):
        ct = codec.compress(x, error_bound=eb, cache_key=key)
        y = codec.decompress(ct)
        assert y.dtype == x.dtype and y.shape == x.shape
        assert np.abs(x64 - y.astype(np.float64)).max() <= eb + slack
        assert y.tobytes() == want.tobytes()
        data = registry.dumps(ct)
        back = registry.loads(data)
        assert codec.decompress(back).tobytes() == y.tobytes()
        assert back.nbytes == ct.nbytes == (
            len(data) - registry.wire_header_nbytes(data) + ct.header_nbytes
        )


@pytest.mark.parametrize("count", [1, 2, 255, 16_385, 40_001])
@pytest.mark.parametrize("chunk_size", [None, 1, 7, 16, 1000])
def test_packer_equals_the_bitplane_oracle_with_or_without_the_histogram(
    count, chunk_size, deep_codebook
):
    """Odd and even counts, one to three encode blocks, one-symbol /
    even / odd / oversized chunks: the pair-packed encoder sizes itself from
    the caller's histogram or from its own block-wise count."""
    symbols = np.random.default_rng(count).integers(0, 1024, count).astype(np.uint16)
    size = chunk_size_for(count) if chunk_size is None else chunk_size
    payload, total_bits, offsets = _encode_bitplane(symbols, deep_codebook, size)
    for hist in (None, histogram(symbols, 1024)):
        got = huffman_encode(symbols, deep_codebook, chunk_size, hist=hist)
        assert (got[0], got[1]) == (payload, total_bits)
        assert got[2].dtype == np.int64
        np.testing.assert_array_equal(got[2], offsets)
    for hist in (None, histogram(symbols + 1024, 1024)):
        with pytest.raises(IndexError, match="beyond the 1024-entry codebook"):
            huffman_encode(symbols + 1024, deep_codebook, chunk_size, hist=hist)


def test_both_grid_dtypes_are_reached_and_counted():
    """The narrow and the wide path of the NumPy reference, from the
    same data on either side of the guard."""
    kernels, pool = get_backend("numpy"), ScratchPool()
    x = np.random.default_rng(0).standard_normal((3, 5, 7))
    seen = {}
    for eb in (1e-3, 1e-10):
        before = kernel_stats()["wide_grid_calls"]
        with ExitStack() as stack:
            codes, outliers, flat = kernels.quantize_encode(x, eb, 512, 2, pool, stack)
            q = kernels.quantize_decode(codes, outliers, 512, x.shape, 2)
            seen[eb] = (flat.dtype, q.dtype, kernel_stats()["wide_grid_calls"] - before)
        np.testing.assert_array_equal(q, prequantize(x, eb))
    assert seen == {1e-3: (np.int32, np.int32, 0), 1e-10: (np.int64, np.int64, 2)}
    # a hostile outlier selects int64 on decode, never an overflow
    codes = np.full(12, 512, dtype=np.uint16)
    codes[3] = 0
    q = kernels.quantize_decode(codes, np.array([2**40]), 512, (12,), 1)
    assert q.dtype == np.int64 and q[-1] == 2**40


@given(
    st.lists(
        st.one_of(
            st.floats(-4, 4, width=32),
            st.sampled_from([0.0, -0.0, 0.5, -0.5, np.nan, np.inf, -np.inf, 1e-30, -1e-30]),
        ),
        min_size=1,
        max_size=64,
    ),
    st.sampled_from([np.float32, np.float64]),
)
@settings(max_examples=200, deadline=None)
def test_relu_recompute_equals_maximum_then_clamp(values, dtype):
    """``_recompute_relu`` clamps without a boolean-mask store; the masked
    form is the oracle — negatives, ``-0.0``, values at exactly ``eb``
    (0.5 here), NaN and infinities included."""
    eb = 0.5
    x = np.array(values, dtype=dtype)
    want = np.maximum(x, 0)
    want[want <= eb] = 0
    ctx = CompressingContext(adaptive=AdaptiveSpec())
    handle = PackedActivation(raw_nbytes=x.nbytes, compressed=SimpleNamespace(error_bound=eb))
    got = ctx._recompute_relu(handle, x.copy())
    assert got.tobytes() == want.tobytes()
    # a codec without a per-element bound only gets the ReLU itself
    handle = PackedActivation(raw_nbytes=x.nbytes, compressed=object())
    got = ctx._recompute_relu(handle, x.copy())
    np.testing.assert_array_equal(got, np.maximum(x, 0))
