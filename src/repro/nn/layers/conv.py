"""2-D convolution with exact analytic backward pass (im2col formulation).

The layer's saved tensor is its *input activation* — the tensor the paper
compresses.  Patch matrices are recomputed during backward rather than
saved (they are ``k*k`` times larger than the activation), matching how
training frameworks checkpoint convolutions.

The patch matrix is channel-major, ``(C*k*k, N*Ho*Wo)``: it is filled by
one copy out of a zero-bordered buffer, from a strided view of all its
windows (:func:`windows`, ``(C, k, k, N, Ho, Wo)``) whose rows stay
contiguous along ``W``, so no element-wise gather is ever made.  Forward
is the GEMM ``W(Cout, C*k*k) @ cols``, batched over the images' column
blocks and written straight into the NCHW output.  Backward
takes one of two paths, chosen by the geometry alone:

* stride 1 and ``padding <= k-1``: the transposed convolution.  One patch
  matrix of the upstream gradient, ``D = im2col(dout, k, 1, k-1-p)``, has
  exactly the input's ``N*H*W`` columns; ``dx = Wflip @ D`` (``W`` with
  both spatial axes flipped and its channel axes swapped) is batched
  straight into NCHW ``dx``, and ``dW`` is ``D @ X.T`` (``X`` the input as
  ``(C, N*H*W)``) read at flipped window offsets.  There is no
  :func:`col2im` and no ``(C*k*k, N*H*W)`` gradient matrix.
* any other geometry: ``dW = dmat @ cols.T`` and ``dcols = W.T @ dmat``,
  scatter-added back by :func:`col2im`.  At stride ``s`` the transposed
  form would need a dilated ``dout`` with ``s*s`` times the columns.

A pass builds its patch matrix for one batch slice at a time, of as many
images as fit in :data:`PATCH_BUDGET_BYTES` (at least one), and writes
each slice's result into the NCHW output or ``dx``: a pass holds one
slice's patches, not the batch's.  Backward reads its saved input the
same way, slice by slice (:meth:`~repro.nn.layers.base.Layer._pop_rows`):
under a compressing context a slice is reconstructed only when its
patches are built, in the transposed path straight into the ``(C, N,
H, W)`` buffer the ``dW`` GEMM reads.  Every array that does not outlive
the call is borrowed from :data:`repro.utils.scratch.WORKSPACE`.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.nn.layers.base import Layer, Parameter
from repro.nn.init import kaiming_uniform
from repro.utils.scratch import WORKSPACE

__all__ = ["Conv2D", "im2col", "col2im", "conv_output_hw", "padded", "slabs"]

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

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        ho, wo = conv_output_hw(x.shape[2], x.shape[3], self.kernel, self.stride, self.padding)
        wmat = self.weight.data.reshape(self.out_channels, -1)
        out = np.empty((x.shape[0], self.out_channels, ho, wo), np.result_type(wmat, x))
        for sl in batch_slices(len(x), wmat.shape[1] * ho * wo * x.itemsize):
            xs = x[sl]
            with WORKSPACE.take((wmat.shape[1], len(xs) * ho * wo), x.dtype) as cols:
                im2col(xs, self.kernel, self.stride, self.padding, out=cols)
                outs = out[sl].reshape(len(xs), self.out_channels, -1)
                np.matmul(wmat, per_image(cols, len(xs)), out=outs)
            if self.bias is not None:
                outs += self.bias.data[:, None]
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
            if self.stride == 1 and self.padding < self.kernel:
                self._backward_transposed(x, dout, dx)
            else:
                self._backward_col2im(x, dout, dx)
        return dx

    def _backward_transposed(self, x, dout, dx) -> None:
        """Stride 1, ``padding <= k-1``: ``dW`` and ``dx`` from one patch
        matrix of ``dout`` per slice, whose columns are the input's pixels."""
        k, (_, c, h, w), cout = self.kernel, x.shape, dout.shape[1]
        rows = cout * k * k
        # Wflip[c, (co, i, j)] = W[co, c, k-1-i, k-1-j]
        wflip = self.weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, rows)
        for sl in batch_slices(len(dout), rows * h * w * dout.itemsize):
            ds = dout[sl]
            with WORKSPACE.take((rows, len(ds) * h * w), dout.dtype) as d, WORKSPACE.take(
                (c, len(ds), h, w), x.dtype
            ) as xt:
                x.read(sl, out=xt.transpose(1, 0, 2, 3))
                im2col(ds, k, 1, k - 1 - self.padding, out=d)
                # dW[co, c, i, j] = (X @ D.T)[c, (co, k-1-i, k-1-j)], taken as D @ X.T:
                # BLAS streams the long N*H*W axis of the big operand row by row
                dw = (d @ xt.reshape(c, -1).T).reshape(cout, k, k, c)
                self.weight.grad += dw[:, ::-1, ::-1].transpose(0, 3, 1, 2)
                if dx is not None:
                    np.matmul(wflip, per_image(d, len(ds)), out=dx[sl].reshape(len(ds), c, -1))

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
