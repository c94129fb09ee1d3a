"""A conv backward reads its compressed input slice by slice.

``Conv2D.backward`` pops its saved input with ``Layer._pop_rows``: under
``CompressingContext`` an szlike activation is reconstructed one batch
slice at a time, ReLU recompute included, and the gradients are those
of the whole reconstruction, bit for bit.  The handle is still released
exactly once: when the backward ends, also by an error between two
slices, and not again by a ``clear_saved`` that finds it gone.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro.api import AdaptiveSpec
from repro.compression import SZCompressor, get_codec
from repro.core import ByteArena, CompressingContext, MemoryTracker
from repro.kernels import available_backends
from repro.nn import Conv2D
from repro.nn.layers import conv as conv_module

#: (kernel, stride, padding): the transposed stride-1 path, and col2im
GEOMETRIES = [(3, 1, 1), (1, 1, 0), (3, 2, 1), (1, 2, 0)]


def _conv(kernel, stride, padding, ctx=None) -> Conv2D:
    layer = Conv2D(3, 4, kernel, stride=stride, padding=padding, rng=1, name="c")
    if ctx is not None:
        layer.saved_ctx = ctx
    return layer


def _context(codec, relu: bool, storage=None, tracker=None) -> CompressingContext:
    """A context that packs under *codec*'s own bound (the controller off)."""
    adaptive = AdaptiveSpec(enabled=False)
    ctx = CompressingContext(codec, tracker=tracker, storage=storage, adaptive=adaptive)
    if relu:
        ctx.relu_recompute_layers.add("c")
    return ctx


def _input(seed: int = 0) -> np.ndarray:
    x = np.random.default_rng(seed).standard_normal((5, 3, 9, 9))
    x[1] *= 50.0  # outliers
    return np.maximum(x, 0).astype(np.float32)


def _grads(layer: Conv2D, x: np.ndarray, dout_seed: int = 1):
    out = layer.forward(x)
    dout = np.random.default_rng(dout_seed).standard_normal(out.shape).astype(np.float32)
    dx = layer.backward(dout)
    return dx, layer.weight.grad.copy(), layer.bias.grad.copy()


@pytest.mark.parametrize("arena", [False, True])
@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("budget", [1, 1 << 20])  # one image a slice, one slice
@pytest.mark.parametrize("backend", available_backends())
def test_gradients_of_a_sliced_read_are_those_of_the_whole_reconstruction(
    monkeypatch, backend, budget, geometry, relu, arena
):
    """The reference conv saves ``ctx.unpack``'s whole reconstruction
    under the plain context; the codecs drift their zeros (the same
    generator seed), so the ReLU recompute has negative values and a
    sub-bound band to clear."""
    monkeypatch.setattr(conv_module, "PATCH_BUDGET_BYTES", budget)
    x = _input()

    def codec():
        return SZCompressor(0.05, emulate_zero_drift=True, zero_filter=False, rng=7, kernel_backend=backend)

    reference_ctx = _context(codec(), relu)
    reference = reference_ctx.unpack(_conv(*geometry), "x", reference_ctx.pack(_conv(*geometry), "x", x))
    if relu:
        assert (reference >= 0).all() and not ((reference > 0) & (reference <= 0.05)).any()
    else:
        assert (reference < 0).any()  # the drift the recompute clears
    with ByteArena() if arena else nullcontext() as storage:
        sliced = _conv(*geometry, _context(codec(), relu, storage=storage))
        got = _grads(sliced, x)
    want = _grads(_conv(*geometry), reference)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_a_codec_other_than_szlike_unpacks_whole():
    """``lossless`` is unpacked whole, as ``unpack`` does: the context
    hands the layer views of one decode, and the gradients are raw
    training's."""
    x = _input()
    got = _grads(_conv(3, 1, 1, _context(get_codec("lossless"), relu=True)), x)
    want = _grads(_conv(3, 1, 1), x)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


# ------------------------------------------------------ release exactly once
class _Counted:
    """A tracker and (optionally) an arena, with the releases counted."""

    def __init__(self, monkeypatch, arena: bool):
        self.tracker = MemoryTracker()
        self.storage = ByteArena() if arena else None
        self.releases = 0
        record = self.tracker.record_release

        def counted(raw, stored):
            self.releases += 1
            record(raw, stored)

        monkeypatch.setattr(self.tracker, "record_release", counted)

    def layer(self, codec="szlike") -> Conv2D:
        options = {"error_bound": 0.05} if codec == "szlike" else {}
        ctx = _context(get_codec(codec, **options), True, self.storage, self.tracker)
        return _conv(3, 1, 1, ctx)

    def assert_released_once(self) -> None:
        assert self.releases == 1
        assert self.tracker._live_raw == 0 and self.tracker._live_stored == 0
        if self.storage is not None:
            assert len(self.storage) == 0
            self.storage.close()


def _spy_im2col_rows(monkeypatch, on_call):
    """Run *on_call* (the call count) before each of a stride-1
    ``Conv2D``'s ``im2col_rows`` calls from here on: one per batch slice."""
    calls, im2col_rows = [], conv_module.im2col_rows

    def spied(*args, **kwargs):
        calls.append(1)
        on_call(len(calls))
        return im2col_rows(*args, **kwargs)

    monkeypatch.setattr(conv_module, "im2col_rows", spied)
    return calls


@pytest.mark.parametrize("arena", [False, True])
def test_a_backward_that_raises_between_slices_releases_once(monkeypatch, arena):
    monkeypatch.setattr(conv_module, "PATCH_BUDGET_BYTES", 1)  # one image a slice
    counted = _Counted(monkeypatch, arena)
    layer = counted.layer()
    out = layer.forward(_input())

    def fail_second(n):
        if n == 2:
            raise RuntimeError("boom")

    calls = _spy_im2col_rows(monkeypatch, fail_second)
    with pytest.raises(RuntimeError, match="boom"):
        layer.backward(np.ones_like(out))
    assert len(calls) == 2
    layer.clear_saved()  # the handle was popped: nothing left to release
    counted.assert_released_once()


@pytest.mark.parametrize("arena", [False, True])
def test_clear_saved_before_backward_releases_once(monkeypatch, arena):
    counted = _Counted(monkeypatch, arena)
    layer = counted.layer()
    out = layer.forward(_input())
    layer.clear_saved()
    with pytest.raises(KeyError):
        layer.backward(np.ones_like(out))
    counted.assert_released_once()


@pytest.mark.parametrize("codec, released_while_read", [("szlike", 0), ("lossless", 1)])
@pytest.mark.parametrize("arena", [False, True])
def test_a_backward_releases_once_when_it_ends(monkeypatch, arena, codec, released_while_read):
    """szlike is released when the reads end, not when they start: every
    slice is still read from the compressed tensor until then.  A whole
    unpack (lossless) is released by it, before the first slice."""
    monkeypatch.setattr(conv_module, "PATCH_BUDGET_BYTES", 1)
    counted = _Counted(monkeypatch, arena)
    layer = counted.layer(codec)
    out = layer.forward(_input())
    seen = []
    _spy_im2col_rows(monkeypatch, lambda n: seen.append(counted.releases))
    layer.backward(np.ones_like(out))
    layer.clear_saved()
    assert seen == [released_while_read] * len(out)
    counted.assert_released_once()


@pytest.mark.parametrize("arena", [False, True])
@pytest.mark.parametrize("geometry", [(3, 1, 1), (3, 2, 1)])
def test_every_slice_read_passes_through_obtain_and_decompress(monkeypatch, geometry, arena):
    """A wrapper set on the engine's ``obtain`` and on the codec's
    one-argument ``decompress`` (as an outside trace sets them) sees
    every slice the backward reads, and the slices add up to the input;
    the first call, of no rows, is the code array's decode."""
    monkeypatch.setattr(conv_module, "PATCH_BUDGET_BYTES", 1)  # one image a slice
    x = _input()
    with ByteArena() if arena else nullcontext() as storage:
        codec = SZCompressor(0.05)
        ctx = _context(codec, relu=True, storage=storage)
        obtained, decoded = [], []
        obtain, decompress = ctx.engine.obtain, codec.decompress

        def probed_obtain(*args, **kwargs):
            obtained.append(1)
            return obtain(*args, **kwargs)

        def probed_decompress(ct):
            out = decompress(ct)
            decoded.append(out.nbytes)
            return out

        ctx.engine.obtain, codec.decompress = probed_obtain, probed_decompress
        _grads(_conv(*geometry, ctx), x)
    assert len(obtained) == len(decoded) == 1 + len(x)
    assert decoded == [0] + [x[0].nbytes] * len(x)
