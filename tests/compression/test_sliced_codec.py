"""The codec's two halves run one slice of planes at a time.

``SZCompressor`` quantizes, predicts and codes at most
``compressor.SLICE_VALUES`` values at once, and decodes the same way
with a running outlier cursor.  Planes of the Lorenzo axes are
independent, and the predictor is chosen on a slice of its own
constant size, so the slice size is invisible in the bytes and the bits:
every blob and reconstruction here is compared against one slice (the
committed golden files, or the same codec with slices larger than the
tensor).
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
from repro.compression.szlike.serialize import dumps, loads
from repro.kernels import available_backends
from repro.kernels.backends import KernelBackend
from repro.kernels import numba_backend

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

ENTROPY_STAGES = ("huffman", "zlib", "none")
WHOLE = 1 << 40  # slices larger than any tensor here: one slice


def _codec(backend: str, **options) -> SZCompressor:
    codec = SZCompressor(kernel_backend="numpy" if backend == "python-loops" else backend, **options)
    codec.fallbacks = []
    if backend == "python-loops":
        fns = numba_backend.make_kernel_functions(numba_backend.python_loops(), codec.fallbacks.append)
        codec._kernels = KernelBackend(name="python-loops", **fns)
    return codec


def _sliced(monkeypatch, values):
    monkeypatch.setattr(compressor, "SLICE_VALUES", values)


@pytest.mark.parametrize(
    "backend,values",
    [(b, v) for b in available_backends() for v in (1, 100, 2048)] + [("python-loops", 100)],
)
@pytest.mark.parametrize("name", list(make_golden.CASES))
def test_golden_blobs_are_reproduced_and_decoded_slice_by_slice(monkeypatch, name, backend, values):
    """Every golden case was written as one slice; cut into slices of a
    single plane (``values=1``) or of a few planes it is the same blob,
    ``cached_book_demoted``'s outliers rebuilt from the codes included."""
    _sliced(monkeypatch, values)
    want_blob = (GOLDEN / f"{name}.blob").read_bytes()
    want = np.load(GOLDEN / f"{name}.npy")
    codec, ct = make_golden.compress_case(name, lambda **kw: _codec(backend, **kw))
    assert dumps(ct) == want_blob
    assert codec.decompress(loads(want_blob)).tobytes() == want.tobytes()
    assert codec.fallbacks == []  # the loops ran, not the reference


@st.composite
def tensors(draw):
    """``(x, eb)``: float32 / float64, 1-4 axes, dense to all-zero, and
    a bound from 1e-9 to 10 of the value range, so outliers come in runs."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = tuple(
        draw(st.lists(st.integers(1, 9), min_size=1, max_size=4).filter(lambda d: math.prod(d) <= 600))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(shape) * draw(st.sampled_from([1e-3, 1.0, 1e4]))
    if draw(st.booleans()):
        x = np.maximum(x, 0)
    x[rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0
    x = x.astype(dtype)
    vrange = float(x.max() - x.min()) or 1.0
    return x, vrange * 10.0 ** draw(st.floats(-9, 1))


@pytest.mark.parametrize("backend", available_backends())
@given(
    tensors(),
    st.sampled_from([16, 1024]),
    st.sampled_from([1, 2, 3]),
    st.sampled_from(ENTROPY_STAGES),
    st.sampled_from([1, 7, 64]),
)
@settings(max_examples=150, deadline=None)
def test_any_slicing_gives_the_bytes_and_bits_of_one_slice(backend, tensor, dict_size, ndim, entropy, values):
    x, eb = tensor
    options = dict(dict_size=dict_size, lorenzo_ndim=ndim, entropy=entropy, kernel_backend=backend)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compressor, "SLICE_VALUES", WHOLE)
        whole = SZCompressor(eb, **options)
        want_ct = whole.compress(x)
        want = whole.decompress(want_ct)
        mp.setattr(compressor, "SLICE_VALUES", values)
        sliced = SZCompressor(eb, **options)
        ct = sliced.compress(x)
        assert dumps(ct) == dumps(want_ct)
        assert sliced.decompress(want_ct).tobytes() == want.tobytes()


def _outlier_run_across_planes():
    """Four 8x8 planes whose middle two are noise far above the bound:
    a run of outliers that a one-plane slice boundary cuts."""
    x = np.zeros((2, 2, 8, 8), dtype=np.float32)
    x[0, 1] = np.random.default_rng(0).standard_normal((8, 8)) * 100
    x[1, 0] = np.random.default_rng(1).standard_normal((8, 8)) * 100
    return x


@pytest.mark.parametrize("entropy", ENTROPY_STAGES)
def test_a_slice_boundary_that_splits_a_run_of_outliers(monkeypatch, entropy):
    x = _outlier_run_across_planes()
    whole = SZCompressor(1e-2, dict_size=16, entropy=entropy)
    _sliced(monkeypatch, WHOLE)
    want_ct = whole.compress(x)
    assert want_ct.outliers.size > 64  # more than one plane's worth: the run crosses
    _sliced(monkeypatch, 64)  # one plane per slice
    assert len(list(compressor._slices(x.shape, 2))) == 4
    sliced = SZCompressor(1e-2, dict_size=16, entropy=entropy)
    ct = sliced.compress(x)
    assert dumps(ct) == dumps(want_ct)
    got = sliced.decompress(loads(dumps(ct)))
    np.testing.assert_array_equal(got, whole.decompress(want_ct))
    assert np.abs(got - x).max() <= 1e-2


def test_emulated_zero_drift_lands_where_the_grid_is_zero(monkeypatch):
    """The drift mask is ``x == 0`` after the slice loop: the positions
    whose grid index is 0, and the same draws from the same stream."""
    x = np.maximum(np.random.default_rng(2).standard_normal((3, 4, 8, 8)), 0).astype(np.float32)
    eb = 0.05
    plain = SZCompressor(eb).decompress(SZCompressor(eb).compress(x))
    outs = []
    for values in (WHOLE, 1, 100):
        _sliced(monkeypatch, values)
        codec = SZCompressor(eb, emulate_zero_drift=True, zero_filter=False, rng=7)
        outs.append(codec.decompress(codec.compress(x)))
    assert all(out.tobytes() == outs[0].tobytes() for out in outs)
    drifted = plain == 0
    assert drifted.any() and np.abs(outs[0][drifted]).max() <= eb
    np.testing.assert_array_equal(outs[0][~drifted], plain[~drifted])
    want = np.random.default_rng(7).uniform(-eb, eb, int(drifted.sum())).astype(np.float32)
    np.testing.assert_array_equal(outs[0][drifted], want)


@pytest.mark.parametrize("values", [WHOLE, 64, 1])
@pytest.mark.parametrize("edit", ["one-more", "one-fewer", "none"])
def test_an_outlier_count_that_is_not_the_markers_raises_the_same_error(monkeypatch, values, edit):
    x = _outlier_run_across_planes()
    ct = SZCompressor(1e-2, dict_size=16).compress(x)
    markers = int(ct.outliers.size)
    ct.outliers = {
        "one-more": np.append(ct.outliers, ct.outliers[:1]),
        "one-fewer": ct.outliers[:-1],
        "none": ct.outliers[:0],
    }[edit]
    _sliced(monkeypatch, values)
    want = f"outlier bookkeeping mismatch: {markers} markers vs {ct.outliers.size} stored values"
    with pytest.raises(ValueError, match=want):
        SZCompressor(1e-2, dict_size=16).decompress(ct)
