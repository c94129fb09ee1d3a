"""2-D convolution with exact analytic backward pass (im2col formulation).

The layer's saved tensor is its *input activation* — the tensor the paper
compresses.  ``im2col`` patches are recomputed during backward rather than
saved (they are ``k*k`` times larger than the activation), matching how
training frameworks checkpoint convolutions.

The patch matrix is channel-major, ``(C*k*k, N*Ho*Wo)``: it is filled by
``k*k`` slab copies out of a zero-bordered buffer, each one a strided view
whose rows stay contiguous along ``W``, so no element-wise gather is ever
made.  Forward is the one GEMM ``W(Cout, C*k*k) @ cols``; backward is
``dW = dmat @ cols.T`` and ``dcols = W.T @ dmat`` plus :func:`col2im`,
which scatter-adds the same ``k*k`` slabs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.layers.base import Layer, Parameter
from repro.nn.init import kaiming_uniform

__all__ = ["Conv2D", "im2col", "col2im", "conv_output_hw", "padded", "slabs"]


def conv_output_hw(h: int, w: int, kernel: int, stride: int, padding: int) -> Tuple[int, int]:
    """Spatial output size of a convolution/pooling window."""
    ho = (h + 2 * padding - kernel) // stride + 1
    wo = (w + 2 * padding - kernel) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ValueError(
            f"window (k={kernel}, s={stride}, p={padding}) does not fit input {h}x{w}"
        )
    return ho, wo


def padded(x: np.ndarray, padding: int, fill: float = 0.0) -> np.ndarray:
    """``x`` inside a border of ``fill`` on both spatial axes (``x`` itself
    when there is no padding)."""
    if not padding:
        return x
    n, c, h, w = x.shape
    xp = np.full((n, c, h + 2 * padding, w + 2 * padding), fill, dtype=x.dtype)
    xp[:, :, padding : padding + h, padding : padding + w] = x
    return xp


def slabs(xp: np.ndarray, kernel: int, stride: int, ho: int, wo: int):
    """The ``k*k`` strided views ``xp[..., i::s, j::s]`` of a padded
    buffer, one per window offset in row-major ``(i, j)`` order; view
    ``i*k + j`` holds element ``(i, j)`` of every window."""
    for i in range(kernel):
        for j in range(kernel):
            yield xp[..., i : i + stride * ho : stride, j : j + stride * wo : stride]


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Extract conv patches: ``(N, C, H, W) -> (C*k*k, N*Ho*Wo)``."""
    n, c, h, w = x.shape
    ho, wo = conv_output_hw(h, w, kernel, stride, padding)
    xp = padded(x, padding).transpose(1, 0, 2, 3)
    cols = np.empty((c, kernel * kernel, n, ho, wo), dtype=x.dtype)
    for t, slab in enumerate(slabs(xp, kernel, stride, ho, wo)):
        cols[:, t] = slab
    return cols.reshape(c * kernel * kernel, n * ho * wo)


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
    dxp = np.zeros((c, n, h + 2 * padding, w + 2 * padding), dtype=dcols.dtype)
    d5 = dcols.reshape(c, kernel * kernel, n, ho, wo)
    for t, slab in enumerate(slabs(dxp, kernel, stride, ho, wo)):
        slab += d5[:, t]
    return dxp[:, :, padding : padding + h, padding : padding + w].transpose(1, 0, 2, 3)


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
        n = x.shape[0]
        ho, wo = conv_output_hw(x.shape[2], x.shape[3], self.kernel, self.stride, self.padding)
        cols = im2col(x, self.kernel, self.stride, self.padding)
        out = self.weight.data.reshape(self.out_channels, -1) @ cols
        if self.bias is not None:
            out += self.bias.data[:, None]
        if self.training:
            self._save("x", x)
            self._x_shape = x.shape
        return np.ascontiguousarray(
            out.reshape(self.out_channels, n, ho, wo).transpose(1, 0, 2, 3)
        )

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x = self._pop("x")
        dmat = dout.transpose(1, 0, 2, 3).reshape(self.out_channels, -1)
        cols = im2col(x, self.kernel, self.stride, self.padding)
        wmat = self.weight.data.reshape(self.out_channels, -1)
        # dW = dmat @ cols.T, taken as (cols @ dmat.T).T: BLAS streams the long
        # N*Ho*Wo axis of the big operand row by row instead of column by column.
        self.weight.grad += (cols @ dmat.T).T.reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += dmat.sum(axis=1)
        return col2im(wmat.T @ dmat, x.shape, self.kernel, self.stride, self.padding)

    def output_shape(self, in_shape):
        n, c, h, w = in_shape
        ho, wo = conv_output_hw(h, w, self.kernel, self.stride, self.padding)
        return (n, self.out_channels, ho, wo)

    def __repr__(self):
        return (
            f"Conv2D({self.in_channels}->{self.out_channels}, k={self.kernel}, "
            f"s={self.stride}, p={self.padding})"
        )
