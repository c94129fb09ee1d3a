"""2-D convolution with exact analytic backward pass (im2col formulation).

The layer's saved tensor is its *input activation* — the tensor the paper
compresses.  Patch matrices are recomputed during backward rather than
saved (they are ``k*k`` times larger than the activation), matching how
training frameworks checkpoint convolutions.

Patch matrices are channel-major, one row per ``(c, i, j)``, and are
filled by one strided copy out of a zero-bordered buffer, so no
element-wise gather is ever made.  Both passes take one of two paths,
chosen by the geometry alone:

* stride 1 and ``padding <= k-1``: the padded-width grid
  (:func:`im2col_rows`).  The patch matrix is ``(C*k*k, N*Ho*Wp)``, ``Wp =
  W + 2p``, with a column for every ``u < Wp`` of each output row, so
  each of its rows is one run of ``Ho*Wp`` elements of the bordered
  buffer; only the columns ``u < Wo`` are output pixels.  Forward is the
  GEMM ``W(Cout, C*k*k) @ cols``, batched over the images' column blocks
  into a borrowed result, whose valid columns one copy moves into the
  NCHW output before the bias is added.  Backward is the transposed
  convolution: one patch matrix of the upstream gradient, ``D =
  im2col_rows(dout, k, k-1-p)``, lies on the input's own grid (``H``
  rows of ``W + k-1``); ``dx = Wflip @ D`` (``W`` with both spatial axes
  flipped and its channel axes swapped) is batched into a borrowed
  result and its valid columns copied into ``dx``, and ``dW = D @ X.T``
  reads the input as ``X``, ``(C, N, H, W + k-1)`` with zero columns
  ``u >= W`` that cancel ``D``'s out-of-border ones, at flipped window
  offsets.  There is no :func:`col2im`.
* any other geometry: :func:`im2col`'s compact ``(C*k*k, N*Ho*Wo)``
  matrix, from a strided view of every window (:func:`windows`), whose
  rows are ``Ho`` runs of ``Wo`` an image.  Forward writes its GEMM
  straight into the NCHW output; backward is ``dW = dmat @ cols.T`` and
  ``dcols = W.T @ dmat``, scatter-added back by :func:`col2im`.  At
  stride ``s`` the transposed form would need a dilated ``dout`` with
  ``s*s`` times the columns.

A pass builds its patch matrix for one batch slice at a time, of as many
images as fit in :data:`PATCH_BUDGET_BYTES` (at least one), and writes
each slice's result into the NCHW output or ``dx``: a pass holds one
slice's patches, not the batch's.  Backward reads its saved input the
same way, slice by slice (:meth:`~repro.nn.layers.base.Layer._pop_rows`):
under a compressing context a slice is reconstructed only when its
patches are built, in the transposed path straight into the columns
``u < W`` of the ``X`` buffer the ``dW`` GEMM reads.  Every array that
does not outlive the call, GEMM results on the padded-width grid
included, is borrowed from :data:`repro.utils.scratch.WORKSPACE`.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Iterator, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.nn.layers.base import Layer, Parameter
from repro.nn.init import kaiming_uniform
from repro.utils.scratch import WORKSPACE

__all__ = ["Conv2D", "im2col", "im2col_rows", "col2im", "conv_output_hw", "padded", "slabs"]

#: bytes of patch matrix a conv pass builds at once: the batch is cut into
#: slices of as many images as fit (one when a single image does not).
#: Each slice adds fixed NumPy call overhead (its patch copy, pool takes
#: and GEMM calls): of 256 KiB - 2 MiB, this is the smallest budget that
#: does not slow the e2e benchmark's ``train_raw`` step (swept when a
#: patch matrix took ``k*k`` slab copies).
PATCH_BUDGET_BYTES = 1 << 20


def conv_output_hw(h: int, w: int, kernel: int, stride: int, padding: int) -> Tuple[int, int]:
    """Spatial output size of a convolution/pooling window."""
    ho = (h + 2 * padding - kernel) // stride + 1
    wo = (w + 2 * padding - kernel) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ValueError(
            f"window (k={kernel}, s={stride}, p={padding}) does not fit input {h}x{w}"
        )
    return ho, wo


class padded:
    """``with padded(x, padding, fill) as xp``: ``x`` inside a border of
    ``fill`` on both spatial axes, in a borrowed buffer (``x`` itself when
    there is no padding).  A plain context manager, not a generator: a
    step enters one per padded conv / pool pass."""

    __slots__ = ("_x", "_padding", "_fill", "_take")

    def __init__(self, x: np.ndarray, padding: int, fill: float = 0.0):
        self._x, self._padding, self._fill, self._take = x, padding, fill, None

    def __enter__(self) -> np.ndarray:
        x, p = self._x, self._padding
        if not p:
            return x
        n, c, h, w = x.shape
        self._take = WORKSPACE.take((n, c, h + 2 * p, w + 2 * p), x.dtype)
        xp = self._take.__enter__()
        try:
            xp.fill(self._fill)
            xp[:, :, p : p + h, p : p + w] = x
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return xp

    def __exit__(self, *exc) -> None:
        if self._take is not None:
            self._take.__exit__(*exc)
            self._take = None


def slabs(xp: np.ndarray, kernel: int, stride: int, ho: int, wo: int):
    """The ``k*k`` strided views ``xp[..., i::s, j::s]`` of a padded
    buffer, one per window offset in row-major ``(i, j)`` order; view
    ``i*k + j`` holds element ``(i, j)`` of every window."""
    for i in range(kernel):
        for j in range(kernel):
            yield xp[..., i : i + stride * ho : stride, j : j + stride * wo : stride]


def windows(xp: np.ndarray, kernel: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Every window of an ``(N, C, Hp, Wp)`` padded buffer as one
    read-only strided view, ``(C, k, k, N, Ho, Wo)``: element ``[c, i, j,
    n, y, x]`` is ``xp[n, c, s*y + i, s*x + j]`` (the :func:`slabs`,
    stacked on axes 1-2, channel-major)."""
    sn, sc, sh, sw = xp.strides
    shape = (xp.shape[1], kernel, kernel, xp.shape[0], ho, wo)
    strides = (sc, sh, sw, sn, stride * sh, stride * sw)
    if xp.flags.c_contiguous:  # the usual case, a borrowed buffer: no interface round trip
        view = np.ndarray(shape, xp.dtype, xp, 0, strides)
    else:
        view = as_strided(xp, shape, strides)
    view.flags.writeable = False
    return view


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int, out=None) -> np.ndarray:
    """Extract conv patches: ``(N, C, H, W) -> (C*k*k, N*Ho*Wo)``, into
    ``out`` when given, with one strided copy out of the padded buffer."""
    n, c, h, w = x.shape
    ho, wo = conv_output_hw(h, w, kernel, stride, padding)
    if out is None:
        out = np.empty((c * kernel * kernel, n * ho * wo), dtype=x.dtype)
    with padded(x, padding) as xp:
        out.reshape(c, kernel, kernel, n, ho, wo)[...] = windows(xp, kernel, stride, ho, wo)
    return out


def im2col_rows(x: np.ndarray, kernel: int, padding: int, out=None) -> np.ndarray:
    """Stride-1 conv patches on the padded-width grid: ``(N, C, H, W) ->
    (C*k*k, N*Ho*Wp)``, ``Wp = W + 2*padding``, into ``out`` when given.

    Column ``(n, y, u)`` holds the window at ``(y, u)`` for every ``u <
    Wp``: the columns ``u < Wo`` are :func:`im2col`'s, the others read
    past the right border into the next row (finite values a caller
    discards or multiplies by zero).  Row ``(c, i, j)`` of image ``n`` is
    then one run of ``Ho*Wp`` elements of the zero-bordered buffer,
    starting at ``(i, j)``, so the copy moves whole padded rows; the
    buffer ends in ``k-1`` zeroed slack elements that the last runs
    overshoot into."""
    n, c, h, w = x.shape
    ho, _ = conv_output_hw(h, w, kernel, 1, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    if out is None:
        out = np.empty((c * kernel * kernel, n * ho * wp), dtype=x.dtype)
    image, s = c * hp * wp, x.itemsize
    with WORKSPACE.take((n * image + kernel - 1,), x.dtype) as flat:
        flat.fill(0)
        xp = flat[: n * image].reshape(n, c, hp, wp)
        xp[:, :, padding : padding + h, padding : padding + w] = x
        # element [c, i, j, n, t] is flat[n*image + c*hp*wp + i*wp + j + t]
        strides = (hp * wp * s, wp * s, s, image * s, s)
        runs = np.ndarray((c, kernel, kernel, n, ho * wp), x.dtype, flat, 0, strides)
        out.reshape(c, kernel, kernel, n, ho * wp)[...] = runs
    return out


def col2im(
    dcols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patch gradients back."""
    n, c, h, w = x_shape
    ho, wo = conv_output_hw(h, w, kernel, stride, padding)
    d5 = dcols.reshape(c, kernel * kernel, n, ho, wo)
    with WORKSPACE.take((c, n, h + 2 * padding, w + 2 * padding), dcols.dtype) as dxp:
        dxp.fill(0)
        for t, slab in enumerate(slabs(dxp, kernel, stride, ho, wo)):
            slab += d5[:, t]
        return dxp[:, :, padding : padding + h, padding : padding + w].transpose(1, 0, 2, 3).copy()


def batch_slices(n: int, image_bytes: int) -> Iterator[slice]:
    """Slices of a batch of ``n`` whose patch matrices, ``image_bytes`` per
    image, each fit in :data:`PATCH_BUDGET_BYTES`."""
    step = max(1, PATCH_BUDGET_BYTES // image_bytes)
    return (slice(lo, lo + step) for lo in range(0, n, step))


def per_image(mat: np.ndarray, n: int) -> np.ndarray:
    """``(R, n*m)`` as the ``(n, R, m)`` view of its per-image column blocks."""
    return mat.reshape(len(mat), n, -1).transpose(1, 0, 2)


def gemm_result(dst: np.ndarray, grid: int):
    """Where a batched GEMM writes the ``(n, R, Ho, grid)`` result whose
    columns ``[..., :Wo]`` are *dst*, ``(n, R, Ho, Wo)``: a borrowed buffer
    the caller copies them out of, or *dst* itself when ``grid == Wo``."""
    if grid == dst.shape[3]:
        return nullcontext(dst)
    return WORKSPACE.take(dst.shape[:3] + (grid,), dst.dtype)


class Conv2D(Layer):
    """``(N, C_in, H, W) -> (N, C_out, Ho, Wo)`` convolution layer."""

    compressible = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        name: str = None,
        rng=None,
    ):
        super().__init__(name)
        if kernel < 1 or stride < 1 or padding < 0:
            raise ValueError("invalid conv geometry")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel * kernel
        self.weight = Parameter(
            kaiming_uniform((out_channels, in_channels, kernel, kernel), fan_in, rng=rng),
            name=f"{self.name}.weight",
        )
        self.bias = Parameter(np.zeros(out_channels), name=f"{self.name}.bias") if bias else None

    def parameters(self):
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def _on_rows_grid(self) -> bool:
        """Stride 1 with ``padding <= k-1``: both passes build their patch
        matrices with :func:`im2col_rows`."""
        return self.stride == 1 and self.padding < self.kernel

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        k, p = self.kernel, self.padding
        ho, wo = conv_output_hw(x.shape[2], x.shape[3], k, self.stride, p)
        wmat = self.weight.data.reshape(self.out_channels, -1)
        out = np.empty((x.shape[0], self.out_channels, ho, wo), np.result_type(wmat, x))
        rows = self._on_rows_grid()
        grid = x.shape[3] + 2 * p if rows else wo  # columns of a patch-matrix row
        for sl in batch_slices(len(x), wmat.shape[1] * ho * grid * x.itemsize):
            xs, outs = x[sl], out[sl]
            with WORKSPACE.take((wmat.shape[1], len(xs) * ho * grid), x.dtype) as cols:
                if rows:
                    im2col_rows(xs, k, p, out=cols)
                else:
                    im2col(xs, k, self.stride, p, out=cols)
                with gemm_result(outs, grid) as res:
                    np.matmul(wmat, per_image(cols, len(xs)), out=res.reshape(*res.shape[:2], -1))
                    if res is not outs:
                        outs[...] = res[..., :wo]
            if self.bias is not None:
                # a contiguous pass: fused into the strided copy above, it reads slower
                outs += self.bias.data[:, None, None]
        if self.training:
            self._save("x", x)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        with self._pop_rows("x") as x:
            dx = None
            if self.needs_input_grad:
                dx = np.empty(x.shape, np.result_type(self.weight.data, dout))
            if self.bias is not None:
                self.bias.grad += dout.sum(axis=(0, 2, 3))
            if self._on_rows_grid():
                self._backward_transposed(x, dout, dx)
            else:
                self._backward_col2im(x, dout, dx)
        return dx

    def _backward_transposed(self, x, dout, dx) -> None:
        """Stride 1, ``padding <= k-1``: ``dW`` and ``dx`` from one patch
        matrix of ``dout`` per slice, on the input's padded-width grid."""
        k, (_, c, h, w), cout = self.kernel, x.shape, dout.shape[1]
        rows, grid = cout * k * k, w + k - 1
        # Wflip[c, (co, i, j)] = W[co, c, k-1-i, k-1-j]
        wflip = self.weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, rows)
        for sl in batch_slices(len(dout), rows * h * grid * dout.itemsize):
            ds = dout[sl]
            with WORKSPACE.take((rows, len(ds) * h * grid), dout.dtype) as d, WORKSPACE.take(
                (c, len(ds), h, grid), x.dtype
            ) as xt:
                # zero columns u >= W: they meet D's columns that read past the border
                xt[..., w:] = 0
                x.read(sl, out=xt[..., :w].transpose(1, 0, 2, 3))
                im2col_rows(ds, k, k - 1 - self.padding, out=d)
                # dW[co, c, i, j] = (X @ D.T)[c, (co, k-1-i, k-1-j)], taken as D @ X.T:
                # BLAS streams the long N*H*(W+k-1) axis of the big operand row by row
                dw = (d @ xt.reshape(c, -1).T).reshape(cout, k, k, c)
                self.weight.grad += dw[:, ::-1, ::-1].transpose(0, 3, 1, 2)
                if dx is None:
                    continue
                dxs = dx[sl]
                with gemm_result(dxs, grid) as res:
                    np.matmul(wflip, per_image(d, len(ds)), out=res.reshape(*res.shape[:2], -1))
                    if res is not dxs:
                        dxs[...] = res[..., :w]

    def _backward_col2im(self, x, dout, dx) -> None:
        """Any other geometry: ``im2col(x)`` for ``dW``, :func:`col2im` for ``dx``."""
        cout, ho, wo = dout.shape[1:]
        wmat = self.weight.data.reshape(cout, -1)
        for sl in batch_slices(len(dout), wmat.shape[1] * ho * wo * x.dtype.itemsize):
            xs, ds = x.read(sl), dout[sl]
            cols_shape = (wmat.shape[1], len(ds) * ho * wo)
            with WORKSPACE.take((cout, len(ds), ho, wo), dout.dtype) as d4:
                d4[...] = ds.transpose(1, 0, 2, 3)
                dmat = d4.reshape(cout, -1)
                with WORKSPACE.take(cols_shape, x.dtype) as cols:
                    im2col(xs, self.kernel, self.stride, self.padding, out=cols)
                    # dW = dmat @ cols.T, taken as (cols @ dmat.T).T: BLAS streams the long
                    # N*Ho*Wo axis of the big operand row by row instead of column by column.
                    self.weight.grad += (cols @ dmat.T).T.reshape(self.weight.data.shape)
                if dx is None:
                    continue
                # dW is taken: the pool hands the patch buffer straight back for dcols
                with WORKSPACE.take(cols_shape, dx.dtype) as dcols:
                    np.matmul(wmat.T, dmat, out=dcols)
                    dx[sl] = col2im(dcols, xs.shape, self.kernel, self.stride, self.padding)

    def output_shape(self, in_shape):
        n, c, h, w = in_shape
        ho, wo = conv_output_hw(h, w, self.kernel, self.stride, self.padding)
        return (n, self.out_channels, ho, wo)

    def __repr__(self):
        return (
            f"Conv2D({self.in_channels}->{self.out_channels}, k={self.kernel}, "
            f"s={self.stride}, p={self.padding})"
        )
