"""Decode where it is consumed: ``decompress`` of a ``RowReader``'s rows.

The code array is decoded once, by the first read; each
``codec.decompress(reader.rows(rows, out=None))`` dequantizes only its
rows of the leading axis, under the running outlier cursor, and runs the
zero filter over them.  Whatever the cut — one image at a time, uneven
slices, bounds in the middle of a Huffman chunk — and whatever the
destination's strides, the rows are ``decompress(ct)``'s, bit for bit,
under every kernel backend.  Rows are read in increasing order.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.szlike import SZCompressor, compressor
from repro.compression.szlike.compressor import RowReader
from repro.compression.szlike.huffman import chunk_size_for
from repro.compression.szlike.serialize import dumps, loads
from repro.kernels import available_backends
from repro.kernels import numba_backend
from repro.kernels.backends import KernelBackend

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

BACKENDS = [*available_backends(), "python-loops"]
WHOLE = 1 << 40  # blocks larger than any tensor here


def _codec(backend: str, **options) -> SZCompressor:
    codec = SZCompressor(kernel_backend="numpy" if backend == "python-loops" else backend, **options)
    codec.fallbacks = []
    if backend == "python-loops":
        fns = numba_backend.make_kernel_functions(numba_backend.python_loops(), codec.fallbacks.append)
        codec._kernels = KernelBackend(name="python-loops", **fns)
    return codec


#: name -> the ``(lo, hi)`` row ranges a reader asks for, from the row count
CUTS = {
    "one image at a time": lambda n: [(i, i + 1) for i in range(n)],
    "first, then the rest": lambda n: [(0, 1), (1, n)] if n > 1 else [(0, 1)],
    "whole": lambda n: [(0, n)],
}


def _read(codec, ct, bounds, strided: bool) -> np.ndarray:
    """The reconstruction assembled from reads of *bounds* by a fresh
    reader; *strided* reads into the ``(N, C, H, W)`` view of a ``(C, N,
    H, W)`` buffer, the conv backward's ``xt``, pre-filled with NaN so a
    row left unwritten shows.  The reader drops its codes at the last
    row."""
    reader = RowReader(ct)
    got = np.full(ct.shape, np.nan, ct.dtype)
    for lo, hi in bounds:
        if strided:
            buf = np.full((ct.shape[1], hi - lo, *ct.shape[2:]), np.nan, ct.dtype)
            out = codec.decompress(reader.rows(slice(lo, hi), out=buf.transpose(1, 0, 2, 3)))
            assert np.shares_memory(out, buf)
        else:
            out = codec.decompress(reader.rows(slice(lo, hi)))
        got[lo:hi] = out
    assert reader.codes is None
    return got


def _assert_rows_are_decompress(codec, ct) -> None:
    """Every cut, by a fresh reader each; the 4-D tensors' every other
    cut into the transposed destination."""
    want = codec.decompress(ct).tobytes()
    for i, cut in enumerate(CUTS.values()):
        strided = i % 2 == 1 and len(ct.shape) == 4
        assert _read(codec, ct, cut(ct.shape[0]), strided).tobytes() == want


@pytest.mark.parametrize("name", list(make_golden.CASES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_rows_of_every_golden_case_are_decompress_bit_for_bit(backend, name):
    """ReLU maps with a few outliers, a wide int64 grid, a cached book
    whose uncovered symbols escaped to the outlier channel, a blob that
    records Lorenzo, and a 1-D tensor read whole."""
    codec, ct = make_golden.compress_case(name, lambda **kw: _codec(backend, **kw))
    if name == "cached_book_demoted":
        assert codec.codebook_cache.escaped_symbols > 0
    _assert_rows_are_decompress(codec, loads(dumps(ct)))
    assert codec.fallbacks == []


def _field(seed: int, shape: tuple, ndim: int) -> np.ndarray:
    """Noise integrated along the last *ndim* axes (Lorenzo over them
    pays), its odd images scaled far past the bound (outliers)."""
    x = np.random.default_rng(seed).standard_normal(shape)
    for axis in range(len(shape) - ndim, len(shape)):
        x = np.cumsum(x, axis=axis)
    x[1::2] *= 100.0
    return x.astype(np.float32)


@pytest.mark.parametrize("values", [WHOLE, 100, 1])
@pytest.mark.parametrize("entropy", ["huffman", "zlib", "none"])
@pytest.mark.parametrize("ndim", [0, 1, 2, 3])
@pytest.mark.parametrize("backend", BACKENDS)
def test_rows_under_each_predictor_are_decompress_bit_for_bit(monkeypatch, backend, ndim, entropy, values):
    """Images of 105 values put every image bound but the first in the
    middle of a Huffman chunk; ``SLICE_VALUES`` of 100 or 1 cuts each
    image into blocks of planes (of one value at ``ndim`` 0)."""
    monkeypatch.setattr(compressor, "SLICE_VALUES", values)
    x = _field(ndim, (6, 3, 5, 7), ndim)
    codec = _codec(backend, error_bound=0.05, lorenzo_ndim=ndim, dict_size=64, entropy=entropy)
    ct = codec.compress(x)
    assert ct.lorenzo_ndim == ndim and ct.outliers.size > 0
    if entropy == "huffman":
        chunk = chunk_size_for(ct.count)
        assert all((i * 105) % chunk for i in range(1, 6))
    _assert_rows_are_decompress(codec, ct)
    assert codec.fallbacks == []


@st.composite
def cut_tensors(draw):
    """``(x, eb, cut points)``: float32 / float64, 1-4 axes, dense to
    all-zero, a bound from 1e-9 to 10 of the value range (outliers come
    in runs), and the leading axis cut anywhere."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = tuple(
        draw(st.lists(st.integers(1, 9), min_size=1, max_size=4).filter(lambda d: math.prod(d) <= 600))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(shape) * draw(st.sampled_from([1e-3, 1.0, 1e4]))
    x[rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0
    x = x.astype(dtype)
    vrange = float(x.max() - x.min()) or 1.0
    cuts = draw(st.sets(st.integers(1, shape[0] - 1), max_size=4)) if shape[0] > 1 else set()
    return x, vrange * 10.0 ** draw(st.floats(-9, 1)), sorted(cuts)


@pytest.mark.parametrize("backend", available_backends())
@given(cut_tensors(), st.sampled_from([0, 1, 2, 3]), st.sampled_from(["huffman", "zlib", "none"]))
@settings(max_examples=150, deadline=None)
def test_property_any_cut_of_any_tensor_reads_decompress(backend, case, ndim, entropy):
    x, eb, cuts = case
    codec = SZCompressor(eb, lorenzo_ndim=ndim, dict_size=64, entropy=entropy, kernel_backend=backend)
    ct = codec.compress(x)
    if len(ct.shape) <= ct.lorenzo_ndim:
        cuts = []  # one plane: read whole
    bounds = list(zip([0, *cuts], [*cuts, x.shape[0]]))
    got = _read(codec, ct, bounds, strided=False)
    assert got.tobytes() == codec.decompress(ct).tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_zero_filter_runs_per_read(backend):
    """A bound below float32's smallest normal keeps the Section 4.4 pass:
    each read re-zeroes its own rows as ``decompress`` does the tensor."""
    x = (np.random.default_rng(5).standard_normal((4, 2, 6, 6)) * 1e-37).astype(np.float32)
    codec = _codec(backend, error_bound=1e-39, lorenzo_ndim=0)
    ct = codec.compress(x)
    want = codec.decompress(ct)
    assert (want == 0).any() and (np.abs(want) <= 1e-39).sum() == (want == 0).sum()
    for cut in CUTS:
        assert _read(codec, ct, CUTS[cut](4), True).tobytes() == want.tobytes()


def test_emulated_drift_draws_the_same_stream_read_by_read():
    """Reads in order draw the drift of their zeros one after another
    from the codec's generator: the draws ``decompress`` takes at once."""
    x = np.maximum(np.random.default_rng(2).standard_normal((3, 4, 8, 8)), 0).astype(np.float32)
    ct = SZCompressor(0.05).compress(x)
    want = SZCompressor(0.05, emulate_zero_drift=True, rng=7).decompress(ct)
    codec = SZCompressor(0.05, emulate_zero_drift=True, rng=7)
    got = _read(codec, ct, CUTS["one image at a time"](3), True)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("edit", ["one-more", "one-fewer", "none"])
def test_an_outlier_count_that_is_not_the_markers_raises_by_the_last_row(edit):
    x = _field(0, (4, 2, 8, 8), 0)
    ct = SZCompressor(1e-2, dict_size=16, lorenzo_ndim=0).compress(x)
    markers = int(ct.outliers.size)
    ct.outliers = {
        "one-more": np.append(ct.outliers, ct.outliers[:1]),
        "one-fewer": ct.outliers[:-1],
        "none": ct.outliers[:0],
    }[edit]
    codec, reader = SZCompressor(1e-2, dict_size=16), RowReader(ct)
    want = f"outlier bookkeeping mismatch: {markers} markers vs {ct.outliers.size} stored values"
    with pytest.raises(ValueError, match=want):
        for i in range(4):
            codec.decompress(reader.rows(slice(i, i + 1)))


def test_a_tensor_predicted_over_all_its_axes_is_read_whole():
    x = np.cumsum(np.random.default_rng(3).standard_normal((4, 16)), axis=1).astype(np.float32)
    codec = SZCompressor(1e-2, lorenzo_ndim=2)
    ct = codec.compress(x)
    assert ct.lorenzo_ndim == 2
    whole = codec.decompress(RowReader(ct).rows(slice(0, 4)))
    assert whole.tobytes() == codec.decompress(ct).tobytes()
    with pytest.raises(ValueError, match="read whole"):
        codec.decompress(RowReader(ct).rows(slice(0, 2)))


def test_an_empty_read_decodes_the_codes_and_nothing_else():
    """So a caller can decode before it takes its own scratch; the rows
    that follow read as from a fresh reader."""
    x = _field(0, (4, 2, 8, 8), 0)
    codec = SZCompressor(1e-2, dict_size=16, lorenzo_ndim=0)
    ct = codec.compress(x)
    reader = RowReader(ct)
    empty = codec.decompress(reader.rows(slice(0, 0)))
    assert empty.shape == (0, 2, 8, 8) and reader.codes is not None and reader.row == 0
    got = np.concatenate([codec.decompress(reader.rows(slice(i, i + 2))) for i in (0, 2)])
    assert got.tobytes() == codec.decompress(ct).tobytes()


@pytest.mark.parametrize("bounds", [[(1, 2)], [(0, 2), (0, 2)], [(0, 1), (2, 4)], [(0, 4), (0, 1)]])
def test_rows_are_read_in_order(bounds):
    """A read that does not start at the next unread row raises, before
    it decodes anything: a row skipped, read twice or read again after
    the last."""
    x = _field(0, (4, 2, 8, 8), 0)
    codec = SZCompressor(1e-2, dict_size=16, lorenzo_ndim=0)
    reader = RowReader(codec.compress(x))
    *ok, (lo, hi) = bounds
    for a, b in ok:
        codec.decompress(reader.rows(slice(a, b)))
    row = reader.row
    with pytest.raises(ValueError, match=f"row {row} is next, not {lo}"):
        codec.decompress(reader.rows(slice(lo, hi)))
    assert reader.row == row
