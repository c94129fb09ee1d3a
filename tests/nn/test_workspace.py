"""The workspace: what is borrowed, what escapes, who shares it.

The layer tests swap the process-wide pool for a fresh one that
overwrites a buffer with ``0xFF`` bytes (NaN as a float) the moment it
comes back, as the runtime sanitizer does: a stale border, a stale tail
or a returned view of a pooled buffer shows up as NaN instead of as
yesterday's plausible numbers.  The session tests run the real pool,
which the conv / pool layers and the SZ codec share.
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from repro.api import SessionConfig, build_session
from repro.compression.szlike import SZCompressor
from repro.core import activation_store
from repro.models import build_scaled_model
from repro.nn import (
    SGD,
    AvgPool2D,
    Conv2D,
    MaxPool2D,
    ReLU,
    SyntheticImageDataset,
    Trainer,
    batches,
    iter_layers,
)
from repro.nn.layers import activations, col2im, conv, conv_output_hw, im2col, pooling
from repro.utils import scratch
from repro.utils.scratch import ScratchPool

TOL = {np.dtype(np.float32): dict(rtol=1e-4, atol=1e-4), np.dtype(np.float64): dict(rtol=1e-10, atol=1e-10)}

GEOMETRIES = [(k, s, p) for k in (1, 3, 5) for s in (1, 2) for p in (0, 1, 2)]


class PoisoningPool(ScratchPool):
    """Remembers every view it hands out and the slab or fresh buffer
    behind it, counts the takes still out, and poisons each on return."""

    def __init__(self):
        super().__init__()
        self.views, self.buffers, self.out = [], [], 0
        self._count_lock = threading.Lock()  # two trainers take at once

    @contextmanager
    def take(self, shape, dtype):
        with super().take(shape, dtype) as view:
            root = view
            while root.base is not None:
                root = root.base
            with self._count_lock:
                if not any(root is seen for seen in self.buffers):
                    self.buffers.append(root)
                self.views.append(view)
                self.out += 1
            try:
                yield view
            finally:
                with self._count_lock:
                    self.out -= 1

    def _on_release(self, raw):
        raw.fill(0xFF)

    def shares_memory_with(self, arr) -> bool:
        return any(np.shares_memory(arr, buf) for buf in self.buffers)

    def all_poisoned(self) -> bool:
        return all((v.reshape(-1).view(np.uint8) == 0xFF).all() for v in self.views)


@pytest.fixture
def pool(monkeypatch):
    fresh = PoisoningPool()
    monkeypatch.setattr(conv, "WORKSPACE", fresh)
    monkeypatch.setattr(pooling, "WORKSPACE", fresh)
    monkeypatch.setattr(activations, "WORKSPACE", fresh)
    return fresh


# ------------------------------------------------- fresh-allocation oracles
def fresh_slabs(xp, k, s, ho, wo):
    return [xp[..., i : i + s * ho : s, j : j + s * wo : s] for i in range(k) for j in range(k)]


def col2im_fresh(d, x_shape, k, s, p):
    n, c, h, w = x_shape
    ho, wo = conv_output_hw(h, w, k, s, p)
    dxp = np.zeros((c, n, h + 2 * p, w + 2 * p), dtype=d.dtype)
    for t, slab in enumerate(fresh_slabs(dxp, k, s, ho, wo)):
        slab += d.reshape(c, k * k, n, ho, wo)[:, t]
    return dxp[:, :, p : p + h, p : p + w].transpose(1, 0, 2, 3)


def conv_fresh(x, w, b, k, s, p):
    """The convolution with every temporary freshly allocated (``np.pad``,
    ``np.stack``, ``@``): the same operands, no workspace."""
    n, c, h, wd = x.shape
    cout = w.shape[0]
    ho, wo = conv_output_hw(h, wd, k, s, p)
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))).transpose(1, 0, 2, 3)
    cols = np.stack(fresh_slabs(xp, k, s, ho, wo), axis=1).reshape(c * k * k, n * ho * wo)
    wmat = w.reshape(cout, -1)
    out = (wmat @ cols + b[:, None]).reshape(cout, n, ho, wo).transpose(1, 0, 2, 3)

    def grads(dout):
        dmat = dout.transpose(1, 0, 2, 3).reshape(cout, -1)
        dx = col2im_fresh(wmat.T @ dmat, x.shape, k, s, p)
        return (dmat @ cols.T).reshape(w.shape), dmat.sum(axis=1), dx

    return cols, out, grads


def maxpool_fresh(x, k, s, p):
    ho, wo = conv_output_hw(x.shape[2], x.shape[3], k, s, p)
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=-np.inf)
    stack = np.stack(fresh_slabs(xp, k, s, ho, wo))
    idx = stack.argmax(axis=0)  # first of tied elements, like the strict ``>``

    def grad(dout):
        dxp = np.zeros(xp.shape, dtype=dout.dtype)
        for t, slab in enumerate(fresh_slabs(dxp, k, s, ho, wo)):
            slab += dout * (idx == t)
        return dxp[:, :, p : p + x.shape[2], p : p + x.shape[3]]

    return stack.max(axis=0), grad


def avgpool_fresh(x, k, s, p):
    ho, wo = conv_output_hw(x.shape[2], x.shape[3], k, s, p)
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))

    def grad(dout):
        dxp = np.zeros(xp.shape, dtype=dout.dtype)
        for slab in fresh_slabs(dxp, k, s, ho, wo):
            slab += dout / (k * k)
        return dxp[:, :, p : p + x.shape[2], p : p + x.shape[3]]

    return sum(fresh_slabs(xp, k, s, ho, wo)) / (k * k), grad


# ----------------------------------------------------------- (a) footprint
def conv_temporaries_nbytes(layer, in_shape, input_grad=True):
    """What one float32 conv pass over one batch slice holds at once, the
    larger of the two passes; takes stack at multiples of the alignment.
    At stride 1, ``p <= k-1`` (the padded-width grid, ``Wp = W + 2p``):
    forward holds the patch matrix, then on top of it the bordered input
    with its ``k-1`` slack elements or the GEMM result; backward holds
    the patch matrix of ``dout``, the channel-major input on ``dout``'s
    grid (``W + k-1`` wide), then the bordered ``dout`` or, given
    *input_grad*, ``dx``'s GEMM result.  At any other geometry: forward
    the bordered input and its patch matrix; backward the transposed
    ``dout``, the input's patch matrix (then ``dcols``) and the bordered
    input (then ``col2im``'s bordered target)."""
    n, c, h, w = in_shape
    _, cout, ho, wo = layer.output_shape(in_shape)
    p, k = layer.padding, layer.kernel

    def images(patch_elems):
        return min(n, max(1, conv.PATCH_BUDGET_BYTES // (4 * patch_elems)))

    def stacked(*frames):
        end = 0
        for nbytes in frames:
            end = -(-end // scratch.ALIGN) * scratch.ALIGN + nbytes
        return end

    if layer.stride == 1 and p < k:
        hp, wp, grid = h + 2 * p, w + 2 * p, w + k - 1
        m = images(c * k * k * ho * wp)
        cols = 4 * m * c * k * k * ho * wp
        forward = max(
            stacked(cols, 4 * (m * c * hp * wp + k - 1)), stacked(cols, 4 * m * cout * ho * wp)
        )
        m = images(cout * k * k * h * grid)
        held = (4 * m * cout * k * k * h * grid, 4 * m * c * h * grid)
        on_top = [4 * (m * cout * (h + k - 1) * grid + k - 1)]
        if input_grad:
            on_top.append(4 * m * c * h * grid)
        return max(forward, *(stacked(*held, top) for top in on_top))
    bordered = c * (h + 2 * p) * (w + 2 * p)
    m = images(c * k * k * ho * wo)
    forward = 4 * m * (bordered + c * k * k * ho * wo)
    return max(forward, 4 * m * (cout * ho * wo + c * k * k * ho * wo + bordered))


def test_steady_state_borrows_nothing_new_and_holds_one_layers_worth(pool):
    shape = (8, 3, 32, 32)
    net = build_scaled_model("vgg16", num_classes=4, image_size=32, batch=8, rng=0)
    per_conv = []
    for layer in iter_layers(net):
        if isinstance(layer, Conv2D):  # the first conv's input gradient is never taken
            per_conv.append(conv_temporaries_nbytes(layer, shape, input_grad=bool(per_conv)))
        shape = layer.output_shape(shape)
    trainer = Trainer(net, SGD(net.parameters(), lr=0.01))
    data = batches(SyntheticImageDataset(num_classes=4, image_size=32, seed=1), 8, 12, seed=2)
    for _ in range(2):
        trainer.train_step(*next(data))
    misses, hits = pool.misses, pool.hits
    for _ in range(10):
        assert np.isfinite(trainer.train_step(*next(data)).loss)
    assert pool.misses == misses and pool.hits > hits and pool.out == 0
    # one stack: the slab is exactly the largest slice's set, not one set per layer
    assert len(per_conv) > 4
    assert pool.nbytes == max(per_conv)


# -------------------------------------------- (b) stale borders, stale tails
def checked_forward(pool, rng, layer, x):
    """Forward (and the bare data movement) against the oracle; returns
    what :func:`checked_backward` needs."""
    geometry = (layer.kernel, layer.stride, layer.padding)
    cols, want, grads = conv_fresh(x, layer.weight.data, layer.bias.data, *geometry)
    # bit for bit, into a buffer that holds the previous pass's poisoned bytes
    with pool.take(cols.shape, x.dtype) as buf:
        np.testing.assert_array_equal(im2col(x, *geometry, out=buf), cols)
    d = rng.standard_normal(cols.shape).astype(x.dtype)
    np.testing.assert_array_equal(col2im(d, x.shape, *geometry), col2im_fresh(d, x.shape, *geometry))
    out = layer.forward(x)
    assert out.dtype == want.dtype
    np.testing.assert_allclose(out, want, **TOL[out.dtype])
    return grads, rng.standard_normal(out.shape).astype(np.float32)


def checked_backward(layer, grads, dout):
    for prm in layer.parameters():
        prm.zero_grad()
    dx = layer.backward(dout)
    dw, db, dx_want = grads(dout)
    np.testing.assert_allclose(dx, dx_want, **TOL[dx.dtype])
    np.testing.assert_allclose(layer.weight.grad, dw, rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose(layer.bias.grad, db, rtol=1e-4, atol=1e-4)


@pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
def test_interleaved_layers_on_one_pool_match_fresh_allocation(pool, rng, kernel, stride, padding):
    wide = Conv2D(5, 6, kernel, stride=stride, padding=padding, rng=1)
    narrow = Conv2D(2, 3, kernel, stride=stride, padding=padding, rng=2)
    for layer in (wide, narrow):
        layer.bias.data[:] = rng.standard_normal(layer.out_channels)
    strided = rng.standard_normal((3, 2, 14, 18))[:, ::-1, ::2, 1::2]  # float64, not contiguous
    assert not strided.flags.c_contiguous
    shapes = ((2, 5, 11, 13), (1, 5, 9, 10), (4, 2, 6, 5))
    f32 = [rng.standard_normal(shape).astype(np.float32) for shape in shapes]
    # f32 -> f64 -> f32 through the same buffers, each layer's backward
    # between the other's forward and backward
    for (a, xa), (b, xb) in [
        ((wide, f32[0]), (narrow, strided)),
        ((wide, f32[1]), (narrow, f32[2])),
        ((narrow, strided), (wide, f32[0])),
    ]:
        pass_a = checked_forward(pool, rng, a, xa)
        pass_b = checked_forward(pool, rng, b, xb)
        checked_backward(a, *pass_a)
        checked_backward(b, *pass_b)
    assert pool.out == 0


@pytest.mark.parametrize("kernel,stride,padding", [g for g in GEOMETRIES if g[2] <= g[0] // 2])
def test_pools_on_a_poisoned_pool_match_fresh_allocation_bit_for_bit(pool, rng, kernel, stride, padding):
    big, small = (2, 3, 11, 13), (1, 2, 7, 9)
    for shape, dtype in [(big, np.float32), (small, np.float64), (big, np.float32)]:
        # post-ReLU: windows full of ties
        x = np.maximum(rng.standard_normal(shape), 0).astype(dtype)
        for cls, fresh in ((MaxPool2D, maxpool_fresh), (AvgPool2D, avgpool_fresh)):
            layer = cls(kernel, stride=stride, padding=padding)
            want, grad = fresh(x, kernel, stride, padding)
            out = layer.forward(x)
            np.testing.assert_array_equal(out, want)
            dout = rng.standard_normal(out.shape).astype(dtype)
            np.testing.assert_array_equal(layer.backward(dout), grad(dout))
    assert pool.out == 0


def transposed(kernel, stride, padding) -> bool:
    """Whether the backward takes the transposed (``col2im``-free) path,
    and both passes build their patch matrices on the padded-width grid
    (``im2col_rows``)."""
    return stride == 1 and padding < kernel


def count_patch_matrices(monkeypatch):
    """Record ``(builder, channels, images)`` of every patch matrix a
    layer builds (``im2col``, or ``im2col_rows`` on the padded-width
    grid) and count the ``col2im`` calls it makes."""
    calls = dict(patches=[], col2im=0)
    col2im_whole = conv.col2im

    def spy(name):
        whole = getattr(conv, name)

        def built(xs, *args, **kwargs):
            calls["patches"].append((name, *xs.shape[:2][::-1]))
            return whole(xs, *args, **kwargs)

        monkeypatch.setattr(conv, name, built)

    def col2im(*args, **kwargs):
        calls["col2im"] += 1
        return col2im_whole(*args, **kwargs)

    spy("im2col")
    spy("im2col_rows")
    monkeypatch.setattr(conv, "col2im", col2im)
    return calls


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
def test_a_batch_cut_into_uneven_slices_matches_fresh_allocation(
    pool, rng, monkeypatch, kernel, stride, padding, dtype
):
    """Five images, two to a slice in each pass: the one-image tail runs in
    the buffers the two-image slices poisoned, so a stale tail reads as NaN.
    Each pass slices by its own patch matrix: forward by ``im2col(x)``'s
    ``3*k*k`` rows of ``Ho*Wo`` columns an image (``Ho*Wp``, ``Wp = W +
    2p``, on the padded-width grid), the transposed backward by
    ``im2col_rows(dout)``'s ``4*k*k`` rows of ``H*(W+k-1)``."""
    layer = Conv2D(3, 4, kernel, stride=stride, padding=padding, rng=1)
    layer.bias.data[:] = rng.standard_normal(4)
    x = rng.standard_normal((5, 3, 9, 7)).astype(dtype)
    _, _, ho, wo = layer.output_shape(x.shape)
    image = 3 * kernel * kernel * ho * wo * x.itemsize
    backward_image, builder = image, "im2col"
    if transposed(kernel, stride, padding):
        image = 3 * kernel * kernel * ho * (7 + 2 * padding) * x.itemsize
        backward_image = 4 * kernel * kernel * 9 * (7 + kernel - 1) * x.itemsize
        builder = "im2col_rows"
    calls = count_patch_matrices(monkeypatch)
    _, want, grads = conv_fresh(x, layer.weight.data, layer.bias.data, kernel, stride, padding)
    monkeypatch.setattr(conv, "PATCH_BUDGET_BYTES", 3 * image - 1)
    out = layer.forward(x)
    np.testing.assert_allclose(out, want, **TOL[out.dtype])
    dout = rng.standard_normal(out.shape).astype(dtype)
    monkeypatch.setattr(conv, "PATCH_BUDGET_BYTES", 3 * backward_image - 1)
    dx = layer.backward(dout)
    dw, db, dx_want = grads(dout)
    np.testing.assert_allclose(dx, dx_want, **TOL[dx.dtype])
    np.testing.assert_allclose(layer.weight.grad, dw, rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose(layer.bias.grad, db, rtol=1e-4, atol=1e-4)
    patched = 4 if transposed(kernel, stride, padding) else 3
    shapes = [(3, 2), (3, 2), (3, 1), (patched, 2), (patched, 2), (patched, 1)]
    assert calls["patches"] == [(builder, *shape) for shape in shapes]
    assert pool.out == 0


STRIDE_ONE = [g for g in GEOMETRIES if g[1] == 1]


@pytest.mark.parametrize(
    "case", ["f32", "f64", "f64-input-f32-dout", "strided-views", "one-image", "one-filter"]
)
@pytest.mark.parametrize("kernel,stride,padding", STRIDE_ONE)
def test_the_stride_one_backward_matches_fresh_allocation(pool, rng, kernel, stride, padding, case):
    n, cout = {"one-image": (1, 4), "one-filter": (3, 1)}.get(case, (3, 4))
    x_dtype = np.float64 if case.startswith("f64") else np.float32
    d_dtype = np.float64 if case == "f64" else np.float32
    layer = Conv2D(3, cout, kernel, stride=stride, padding=padding, rng=1)
    layer.bias.data[:] = rng.standard_normal(cout)
    x = rng.standard_normal((n, 3, 9, 7)).astype(x_dtype)
    if case == "strided-views":  # channel-reversed, every other row and column
        x = rng.standard_normal((n, 3, 18, 14)).astype(x_dtype)[:, ::-1, ::2, 1::2]
    _, want, grads = conv_fresh(x, layer.weight.data, layer.bias.data, kernel, stride, padding)
    out = layer.forward(x)
    np.testing.assert_allclose(out, want, **TOL[out.dtype])
    dout = rng.standard_normal(out.shape).astype(d_dtype)
    if case == "strided-views":
        wide = out.shape[:2] + (2 * out.shape[2], out.shape[3])
        dout = rng.standard_normal(wide).astype(d_dtype)[:, :, ::2]
        assert not (x.flags.c_contiguous or dout.flags.c_contiguous)
    dx = layer.backward(dout)
    dw, db, dx_want = grads(dout)
    assert dx.shape == x.shape and dx.dtype == np.result_type(np.float32, d_dtype)
    np.testing.assert_allclose(dx, dx_want, **TOL[dx.dtype])
    np.testing.assert_allclose(layer.weight.grad, dw, rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose(layer.bias.grad, db, rtol=1e-4, atol=1e-4)
    assert np.isfinite(dx).all() and pool.out == 0


def conv_pass(layer, x, dout):
    """``(out, dx, dW)`` of one forward and backward, from zeroed gradients."""
    for prm in layer.parameters():
        prm.zero_grad()
    out = layer.forward(x)
    return out, layer.backward(dout), layer.weight.grad.copy()


@pytest.mark.parametrize("kernel,stride,padding", [g for g in STRIDE_ONE if transposed(*g)])
def test_a_poisoned_pool_moves_no_bit_of_a_stride_one_pass(
    pool, rng, monkeypatch, kernel, stride, padding
):
    """On the padded-width grid the last windows of the bordered buffer
    overshoot into its ``k-1`` slack elements, and ``dW = D @ X.T`` meets
    the columns of ``D`` that read past the border with ``X``'s zero
    columns: both come from the pool, and ``NaN * 0`` is NaN, so a slack or
    a column left unwritten carries the poison into ``dW``."""
    layer = Conv2D(3, 4, kernel, stride=stride, padding=padding, rng=1)
    x = rng.standard_normal((3, 3, 9, 7)).astype(np.float32)
    dout = rng.standard_normal(layer.output_shape(x.shape)).astype(np.float32)
    monkeypatch.setattr(conv, "PATCH_BUDGET_BYTES", 1)  # one image a slice
    conv_pass(layer, x, dout)  # grows the slab ...
    pool._stack.slab.fill(0xFF)  # ... which starts out poisoned, as released takes are
    poisoned = conv_pass(layer, x, dout)
    monkeypatch.setattr(conv, "WORKSPACE", ScratchPool())
    plain = conv_pass(layer, x, dout)
    for got, want in zip(poisoned, plain):
        assert np.isfinite(got).all() and got.tobytes() == want.tobytes()
    assert pool.out == 0


@pytest.mark.parametrize("stride", [1, 2])
def test_only_a_strided_backward_scatters_through_col2im(pool, rng, monkeypatch, stride):
    """A stride-1 backward builds one patch matrix of ``dout`` per slice,
    on the input's padded-width grid, and no ``col2im``; a stride-2 one
    patches ``x`` and scatters back."""
    layer = Conv2D(3, 4, 3, stride=stride, padding=1, rng=1)
    x = rng.standard_normal((5, 3, 9, 7)).astype(np.float32)
    dout = rng.standard_normal(layer.forward(x).shape).astype(np.float32)
    calls = count_patch_matrices(monkeypatch)
    _, _, ho, wo = dout.shape
    image = 4 * (4 * 9 * 9 * (7 + 2) if stride == 1 else 3 * 9 * ho * wo)  # float32 patch bytes
    monkeypatch.setattr(conv, "PATCH_BUDGET_BYTES", 2 * image)
    layer.backward(dout)
    if stride == 1:
        want = dict(patches=[("im2col_rows", 4, m) for m in (2, 2, 1)], col2im=0)
    else:
        want = dict(patches=[("im2col", 3, m) for m in (2, 2, 1)], col2im=3)
    assert calls == want
    assert pool.out == 0


# ------------------------------------------------------- (c) nothing escapes
@pytest.mark.parametrize(
    "make,x_shape",
    [
        (lambda: Conv2D(3, 4, 3, padding=1, rng=0), (2, 3, 6, 5)),
        # a single image / a single filter: the NCHW transpose of the GEMM
        # output is already contiguous, so "make it contiguous" would be a view
        (lambda: Conv2D(3, 4, 3, rng=0), (1, 3, 6, 5)),
        (lambda: Conv2D(2, 1, 1, rng=0), (3, 2, 4, 4)),
        (lambda: MaxPool2D(2), (2, 3, 6, 4)),
        (lambda: MaxPool2D(3, stride=2, padding=1), (2, 3, 7, 5)),
        (lambda: AvgPool2D(2), (2, 3, 6, 4)),
        (lambda: AvgPool2D(3, stride=1, padding=1), (2, 3, 5, 5)),
        (ReLU, (2, 3, 5, 7)),  # borrows the bool of x > 0 and saves its packed bits
    ],
)
def test_what_a_layer_returns_or_saves_is_never_a_pooled_buffer(pool, rng, make, x_shape):
    layer = make()
    x = rng.standard_normal(x_shape).astype(np.float32)
    out = layer.forward(x)
    saved = [v for v in layer._saved.values() if isinstance(v, np.ndarray)]
    dout = rng.standard_normal(out.shape).astype(np.float32)
    dx = layer.backward(dout)
    assert pool.buffers and pool.out == 0
    for arr in [out, dx] + saved:
        assert not pool.shares_memory_with(arr)
    # ... and every pooled byte is 0xFF by now, so the values had to be copies
    assert np.isfinite(out).all() and np.isfinite(dx).all()
    assert pool.all_poisoned()


# ------------------------------------------------- (d) errors return buffers
def test_an_error_in_the_middle_of_a_pass_returns_every_buffer(pool, rng):
    layer = Conv2D(3, 4, 3, padding=1, rng=0)
    x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
    with pytest.raises(ValueError, match="expected"):
        layer.forward(x[:, :2])  # wrong channel count
    with pytest.raises(ValueError, match="does not fit"):
        Conv2D(3, 4, 7, rng=0).forward(x)
    with pytest.raises(ValueError, match="does not fit"):
        MaxPool2D(8).forward(x)
    good_bias, layer.bias.data = layer.bias.data, np.zeros(5, dtype=np.float32)
    with pytest.raises(ValueError):  # raised with the patch matrix and the GEMM output borrowed
        layer.forward(x)
    assert pool.buffers and pool.out == 0
    layer.bias.data = good_bias
    layer.forward(x)
    with pytest.raises(ValueError):  # wrong upstream gradient: raised inside backward
        layer.backward(np.zeros((2, 4, 5, 5), dtype=np.float32))
    assert pool.out == 0
    want = conv_fresh(x, layer.weight.data, layer.bias.data, 3, 1, 1)[1]
    np.testing.assert_allclose(layer.forward(x), want, **TOL[np.dtype(np.float32)])


# ------------------------------------------------------ (e) one pool, shared
def run_trainer(seed, steps, losses):
    net = build_scaled_model("vgg16", num_classes=4, image_size=16, batch=4, rng=seed)
    trainer = Trainer(net, SGD(net.parameters(), lr=0.01, momentum=0.9))
    data = batches(SyntheticImageDataset(num_classes=4, image_size=16, seed=seed), 4, steps, seed=seed)
    for images, labels in data:
        losses.append(trainer.train_step(images, labels).loss)


def test_two_trainers_on_two_threads_share_the_pool_bit_for_bit(pool):
    steps = 8
    alone = {seed: [] for seed in (11, 12)}
    for seed, losses in alone.items():
        run_trainer(seed, steps, losses)
    together = {seed: [] for seed in alone}
    threads = [threading.Thread(target=run_trainer, args=(seed, steps, together[seed])) for seed in alone]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter over in the middle of passes
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert together == alone and all(len(v) == steps for v in together.values())
    assert pool.out == 0


def test_the_codec_borrows_from_the_layers_workspace(monkeypatch, rng):
    codec = SZCompressor(error_bound=1e-2)
    pools, encode = [], codec._kernels.quantize_encode

    def quantize_encode(x, eb, radius, ndim, pool, stack):
        pools.append(pool)
        return encode(x, eb, radius, ndim, pool, stack)

    kernels = dataclasses.replace(codec._kernels, quantize_encode=quantize_encode)
    monkeypatch.setattr(codec, "_kernels", kernels)
    codec.compress(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
    # one slice, quantized under both predictor candidates
    assert len(pools) == 2
    layers = (conv.WORKSPACE, pooling.WORKSPACE, activations.WORKSPACE)
    assert all(pool is scratch.WORKSPACE and all(ws is pool for ws in layers) for pool in pools)


E2E = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks", "e2e", "configs")


def session_steps(workload="train_sz", steps=12):
    """A fresh session of one of the benchmark's workloads on its task, as
    a stream of step results, with the workspace emptied first."""
    with open(os.path.join(E2E, "workloads.json")) as f:
        task = json.load(f)["task"]
    dataset = SyntheticImageDataset(
        num_classes=task["num_classes"], image_size=task["image_size"], signal=task["signal"], seed=3
    )
    net = build_scaled_model(
        task["model"],
        num_classes=task["num_classes"],
        image_size=task["image_size"],
        batch=task["batch_size"],
        rng=np.random.default_rng(task["weight_seed"]),
    )
    scratch.WORKSPACE.clear()
    with build_session(net, SessionConfig.from_json(os.path.join(E2E, f"{workload}.json"))) as session:
        for images, labels in batches(dataset, task["batch_size"], steps, seed=3):
            yield session.train_step(images, labels)


def test_a_train_sz_step_borrows_nothing_new_after_warm_up():
    steps = session_steps()
    for _ in range(2):
        next(steps)
    misses = scratch.WORKSPACE.misses
    assert all(np.isfinite(step.loss) for step in steps)
    assert scratch.WORKSPACE.misses == misses


def test_compressed_training_settles_at_the_raw_workspace_high_water():
    """The conv layers alone size the slab: the codec's slices and the
    controller's statistics (collected at iterations 0, 1 and 10) fit
    under what the same network trained raw already holds."""
    high_water = {}
    for workload in ("train_raw", "train_sz"):
        assert all(np.isfinite(step.loss) for step in session_steps(workload))
        high_water[workload] = scratch.WORKSPACE.nbytes
    assert high_water["train_sz"] == high_water["train_raw"] > 0


#: per steady step of the benchmark's VGG-16 task: workspace takes (the
#: codec's on top of the layers', on the five convs whose input needs a
#: gradient: 237 when the data layer packed the batch too),
#: ``im2col_rows`` calls (every conv is 3x3, stride 1, padding 1) and ReLU
#: recomputes, which the szlike codec never needs on a non-negative input
STEADY_STEP_COUNTS = {
    "train_raw": dict(takes=146, im2col_rows=38, recomputes=0),
    "train_sz": dict(takes=221, im2col_rows=38, recomputes=0),
}


class CountedCopies(np.ndarray):
    """A patch buffer that counts the assignments into it and its views."""

    copies = 0

    def __setitem__(self, index, value):
        CountedCopies.copies += 1
        super().__setitem__(index, value)


@pytest.mark.parametrize("workload", sorted(STEADY_STEP_COUNTS))
def test_a_steady_step_makes_the_counted_calls(monkeypatch, workload):
    """One copy per ``im2col_rows`` (not one per window offset or per
    output row), no ReLU recompute where the codec cannot have moved a
    value out of ``{0} | (eb, inf)`` (a non-negative input has grid
    indices ``>= 0``), and the takes of a step, counted by wrapping the
    functions here."""
    calls = dict(takes=0, im2col_rows=0, recomputes=0)
    take, im2col_rows = scratch.WORKSPACE.take, conv.im2col_rows
    recompute = activation_store.CompressingContext._recompute_relu

    def counted_take(shape, dtype):
        calls["takes"] += 1
        return take(shape, dtype)

    def counted_im2col_rows(x, kernel, padding, out=None):
        calls["im2col_rows"] += 1
        return im2col_rows(x, kernel, padding, out=out.view(CountedCopies))

    def counted_recompute(ctx, handle, out):
        calls["recomputes"] += 1
        return recompute(ctx, handle, out)

    monkeypatch.setitem(vars(scratch.WORKSPACE), "take", counted_take)  # undone by deletion
    monkeypatch.setattr(conv, "im2col_rows", counted_im2col_rows)
    monkeypatch.setattr(activation_store.CompressingContext, "_recompute_relu", counted_recompute)
    monkeypatch.setattr(CountedCopies, "copies", 0)
    steps = session_steps(workload, steps=6)
    for _ in range(5):  # the controller collects at iterations 0 and 1
        next(steps)
    for key in calls:
        calls[key] = 0
    CountedCopies.copies = 0
    assert np.isfinite(next(steps).loss)
    assert calls == STEADY_STEP_COUNTS[workload]
    assert CountedCopies.copies == calls["im2col_rows"]


#: traced high-water marks of steady-state steps 2-10 (the window holds
#: iteration 10, where the ``train_sz`` controller collects its
#: statistics) of a session traced from its build, pool included, each
#: measured in a process that runs only those steps, x 1.2 (pytest with
#: this file alone reads ~0.1-0.2 MiB less).  Since ReLU and dropout save
#: packed bits and the pool ``uint8`` offsets, ``train_sz`` reads 4.07 MiB
#: and ``train_raw`` 3.98 (4.01 and 3.93 with stride-1 convs on the
#: padded-width grid); with a byte per mask element and ``int16``
#: offsets they read 4.18 and 4.22.  With the conv backward decoding its
#: input whole and the codebooks caching their decode tables the
#: ``train_sz`` window read 4.76 MiB; before one scratch stack, a sliced
#: codec and a borrowed controller buffer 7.91 MiB (7.28 over steps 2-4,
#: which collect nothing); whole-batch patch matrices plus a private
#: codec pool read 13.9 MiB.
TRACED_PEAK_CEILING = int(4.07 * 1.2 * 2**20)
RAW_TRACED_PEAK_CEILING = int(3.98 * 1.2 * 2**20)


def traced_peak(workload):
    steps = session_steps(workload)
    tracemalloc.start()
    try:
        for _ in range(2):
            next(steps)
        tracemalloc.reset_peak()
        for _ in range(9):
            next(steps)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        steps.close()


def test_train_sz_steps_trace_under_the_ceiling():
    assert traced_peak("train_sz") < TRACED_PEAK_CEILING


def test_train_raw_steps_trace_under_the_ceiling():
    assert traced_peak("train_raw") < RAW_TRACED_PEAK_CEILING


# ------------------------------------------------- the import cycle is gone
@pytest.mark.parametrize("sanitize", ["", "1"])
def test_the_pool_is_built_while_nn_is_imported_without_repro_core(sanitize):
    """``ScratchPool()`` used to import ``repro.core.sanitizer``, i.e. the
    ``repro.core`` package, which imports ``repro.nn`` back."""
    code = (
        "import sys, numpy as np\n"
        "import repro.nn\n"
        "from repro.utils.scratch import WORKSPACE\n"
        f"assert ('repro.core' in sys.modules) == {bool(sanitize)}\n"
        "with WORKSPACE.take((4,), np.float32) as buf:\n"
        "    buf[:] = 1.0\n"
        f"assert bool(np.isnan(buf).all()) == {bool(sanitize)}\n"
    )
    env = dict(os.environ, REPRO_SANITIZE=sanitize, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("sanitize", ["", "1"])
def test_a_buffer_the_codec_returns_to_the_workspace_is_poisoned(sanitize):
    code = (
        "from contextlib import contextmanager\n"
        "import numpy as np\n"
        "from repro.compression.szlike import SZCompressor\n"
        "from repro.utils.scratch import WORKSPACE\n"
        "views, take = [], WORKSPACE.take\n"
        "@contextmanager\n"
        "def spy(shape, dtype):\n"
        "    with take(shape, dtype) as view:\n"
        "        views.append(view)\n"
        "        yield view\n"
        "WORKSPACE.take = spy\n"
        "x = np.random.default_rng(0).standard_normal((4, 8, 8)).astype(np.float32)\n"
        "codec = SZCompressor(error_bound=1e-2)\n"
        "codec.decompress(codec.compress(x))\n"
        "grids = [v for v in views if v.dtype == np.float64]\n"
        "assert len(grids) == 2\n"  # one per predictor candidate
        f"assert all(bool(np.isnan(grid).all()) for grid in grids) == {bool(sanitize)}\n"
        "poisoned = [bool((v.reshape(-1).view(np.uint8) == 0xFF).all()) for v in views]\n"
        f"assert len(views) > 5 and all(poisoned) == {bool(sanitize)}\n"
    )
    env = dict(os.environ, REPRO_SANITIZE=sanitize, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
