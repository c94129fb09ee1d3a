"""2-D convolution with exact analytic backward pass (im2col formulation).

The layer's saved tensor is its *input activation* — the tensor the paper
compresses.  ``im2col`` patches are recomputed during backward rather than
saved (they are ``k*k`` times larger than the activation), matching how
training frameworks checkpoint convolutions.

The patch matrix is channel-major, ``(C*k*k, N*Ho*Wo)``: it is filled by
``k*k`` slab copies out of a zero-bordered buffer, each one a strided view
whose rows stay contiguous along ``W``, so no element-wise gather is ever
made.  Forward is the GEMM ``W(Cout, C*k*k) @ cols``; backward is
``dW = dmat @ cols.T`` and ``dcols = W.T @ dmat`` plus :func:`col2im`,
which scatter-adds the same ``k*k`` slabs.  A layer builds the patch
matrix for one batch slice at a time, of as many images as fit in
:data:`PATCH_BUDGET_BYTES` (at least one), and writes each slice's result
into the NCHW output or ``dx``: a pass holds one slice's patches, not
the batch's.  Every array that does not outlive the call is borrowed
from :data:`repro.utils.scratch.WORKSPACE`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Tuple

import numpy as np

from repro.nn.layers.base import Layer, Parameter
from repro.nn.init import kaiming_uniform
from repro.utils.scratch import WORKSPACE

__all__ = ["Conv2D", "im2col", "col2im", "conv_output_hw", "padded", "slabs"]

#: bytes of patch matrix a conv pass builds at once: the batch is cut into
#: slices of as many images as fit (one when a single image does not).
#: Each slice adds fixed NumPy call overhead (its ``k*k`` slab copies and
#: pool takes): of 256 KiB - 2 MiB, this is the smallest budget that does
#: not slow the e2e benchmark's ``train_raw`` step.
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


@contextmanager
def padded(x: np.ndarray, padding: int, fill: float = 0.0) -> Iterator[np.ndarray]:
    """``x`` inside a border of ``fill`` on both spatial axes, in a
    borrowed buffer (``x`` itself when there is no padding)."""
    if not padding:
        yield x
        return
    n, c, h, w = x.shape
    with WORKSPACE.take((n, c, h + 2 * padding, w + 2 * padding), x.dtype) as xp:
        xp.fill(fill)
        xp[:, :, padding : padding + h, padding : padding + w] = x
        yield xp


def slabs(xp: np.ndarray, kernel: int, stride: int, ho: int, wo: int):
    """The ``k*k`` strided views ``xp[..., i::s, j::s]`` of a padded
    buffer, one per window offset in row-major ``(i, j)`` order; view
    ``i*k + j`` holds element ``(i, j)`` of every window."""
    for i in range(kernel):
        for j in range(kernel):
            yield xp[..., i : i + stride * ho : stride, j : j + stride * wo : stride]


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int, out=None) -> np.ndarray:
    """Extract conv patches: ``(N, C, H, W) -> (C*k*k, N*Ho*Wo)``, into
    ``out`` when given."""
    n, c, h, w = x.shape
    ho, wo = conv_output_hw(h, w, kernel, stride, padding)
    if out is None:
        out = np.empty((c * kernel * kernel, n * ho * wo), dtype=x.dtype)
    cols = out.reshape(c, kernel * kernel, n, ho, wo)
    with padded(x, padding) as xp:
        for t, slab in enumerate(slabs(xp.transpose(1, 0, 2, 3), kernel, stride, ho, wo)):
            cols[:, t] = slab
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

    def _batch_slices(self, x: np.ndarray, ho: int, wo: int) -> Iterator[slice]:
        """The batch slices a pass over ``x`` visits, each one's patch
        matrix within :data:`PATCH_BUDGET_BYTES`."""
        image = self.weight.data[0].size * ho * wo * x.dtype.itemsize
        step = max(1, PATCH_BUDGET_BYTES // image)
        return (slice(lo, lo + step) for lo in range(0, x.shape[0], step))

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        ho, wo = conv_output_hw(x.shape[2], x.shape[3], self.kernel, self.stride, self.padding)
        wmat = self.weight.data.reshape(self.out_channels, -1)
        out = np.empty((x.shape[0], self.out_channels, ho, wo), np.result_type(wmat, x))
        for sl in self._batch_slices(x, ho, wo):
            xs = x[sl]
            m = len(xs) * ho * wo
            with WORKSPACE.take((wmat.shape[1], m), x.dtype) as cols, WORKSPACE.take(
                (self.out_channels, m), out.dtype
            ) as mat:
                im2col(xs, self.kernel, self.stride, self.padding, out=cols)
                np.matmul(wmat, cols, out=mat)
                if self.bias is not None:
                    mat += self.bias.data[:, None]
                out[sl] = mat.reshape(self.out_channels, -1, ho, wo).transpose(1, 0, 2, 3)
        if self.training:
            self._save("x", x)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x = self._pop("x")
        cout, ho, wo = dout.shape[1:]
        wmat = self.weight.data.reshape(cout, -1)
        dx = None
        if self.needs_input_grad:
            dx = np.empty(x.shape, np.result_type(wmat, dout))
        for sl in self._batch_slices(x, ho, wo):
            xs, ds = x[sl], dout[sl]
            cols_shape = (wmat.shape[1], len(ds) * ho * wo)
            with WORKSPACE.take((cout, len(ds), ho, wo), dout.dtype) as d4:
                d4[...] = ds.transpose(1, 0, 2, 3)
                dmat = d4.reshape(cout, -1)
                with WORKSPACE.take(cols_shape, x.dtype) as cols:
                    im2col(xs, self.kernel, self.stride, self.padding, out=cols)
                    # dW = dmat @ cols.T, taken as (cols @ dmat.T).T: BLAS streams the long
                    # N*Ho*Wo axis of the big operand row by row instead of column by column.
                    self.weight.grad += (cols @ dmat.T).T.reshape(self.weight.data.shape)
                if self.bias is not None:
                    self.bias.grad += dmat.sum(axis=1)
                if dx is None:
                    continue
                # dW is taken: the pool hands the patch buffer straight back for dcols
                with WORKSPACE.take(cols_shape, dx.dtype) as dcols:
                    np.matmul(wmat.T, dmat, out=dcols)
                    dx[sl] = col2im(dcols, xs.shape, self.kernel, self.stride, self.padding)
        return dx

    def output_shape(self, in_shape):
        n, c, h, w = in_shape
        ho, wo = conv_output_hw(h, w, self.kernel, self.stride, self.padding)
        return (n, self.out_channels, ho, wo)

    def __repr__(self):
        return (
            f"Conv2D({self.in_channels}->{self.out_channels}, k={self.kernel}, "
            f"s={self.stride}, p={self.padding})"
        )
