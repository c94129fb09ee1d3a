"""Spatial pooling layers (max, average, global average)."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer
from repro.nn.layers.conv import conv_output_hw, padded, slabs
from repro.utils.scratch import WORKSPACE

__all__ = ["MaxPool2D", "AvgPool2D", "GlobalAvgPool2D"]


class MaxPool2D(Layer):
    """Max pooling; backward routes gradients to per-window argmax.

    Saves each window's argmax offset ``0 .. k*k-1`` in the narrowest
    unsigned type that holds it (``uint8`` for any kernel up to 16).
    """

    def __init__(self, kernel: int, stride: int = None, padding: int = 0, name=None):
        super().__init__(name)
        self.kernel = kernel
        self.stride = stride if stride is not None else kernel
        self.padding = padding

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"{self.name}: expected 4-D input, got {x.shape}")
        k, s, p = self.kernel, self.stride, self.padding
        ho, wo = conv_output_hw(x.shape[2], x.shape[3], k, s, p)
        offset = np.min_scalar_type(k * k - 1)
        # Running max over the k*k window offsets; a strict ``>`` keeps the
        # first of tied elements (post-ReLU windows are mostly ties).
        with padded(x, p, -np.inf) as xp, WORKSPACE.take(x.shape[:2] + (ho, wo), offset) as won:
            views = slabs(xp, k, s, ho, wo)
            out = next(views).copy()
            idx = np.zeros(out.shape, dtype=offset)
            for t, slab in enumerate(views, 1):
                # idx = t where slab > out: t exceeds every offset seen so far,
                # so two dense passes do what a boolean-mask scatter did
                np.greater(slab, out, out=won)
                np.maximum(idx, np.multiply(won, t, out=won), out=idx)
                np.maximum(out, slab, out=out)
        if self.training:
            self._save("idx", idx)
            self._x_shape = x.shape
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        idx = self._pop("idx")
        n, c, h, w = self._x_shape
        k, s, p = self.kernel, self.stride, self.padding
        ho, wo = conv_output_hw(h, w, k, s, p)
        dxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=dout.dtype)
        # Offset t of every window lands on distinct cells, so one slab is
        # written whole; slabs overlap each other only when stride < kernel.
        with WORKSPACE.take(idx.shape, bool) as hit, WORKSPACE.take(dout.shape, dout.dtype) as part:
            for t, slab in enumerate(slabs(dxp, k, s, ho, wo)):
                np.equal(idx, t, out=hit)
                if s >= k:
                    np.multiply(dout, hit, out=slab)
                else:
                    slab += np.multiply(dout, hit, out=part)
        return dxp[:, :, p : p + h, p : p + w] if p else dxp

    def output_shape(self, in_shape):
        n, c, h, w = in_shape
        ho, wo = conv_output_hw(h, w, self.kernel, self.stride, self.padding)
        return (n, c, ho, wo)

    def __repr__(self):
        return f"MaxPool2D(k={self.kernel}, s={self.stride}, p={self.padding})"


class AvgPool2D(Layer):
    """Average pooling (count includes padding, TF/Caffe style)."""

    def __init__(self, kernel: int, stride: int = None, padding: int = 0, name=None):
        super().__init__(name)
        self.kernel = kernel
        self.stride = stride if stride is not None else kernel
        self.padding = padding

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"{self.name}: expected 4-D input, got {x.shape}")
        k, s, p = self.kernel, self.stride, self.padding
        ho, wo = conv_output_hw(x.shape[2], x.shape[3], k, s, p)
        with padded(x, p) as xp, WORKSPACE.take(x.shape[:2] + (ho, wo), x.dtype) as total:
            total.fill(0)
            for slab in slabs(xp, k, s, ho, wo):
                total += slab
            out = total / (k * k)
        if self.training:
            self._x_shape = x.shape
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        n, c, h, w = self._x_shape
        k, s, p = self.kernel, self.stride, self.padding
        ho, wo = conv_output_hw(h, w, k, s, p)
        hp, wp = h + 2 * p, w + 2 * p
        dxp = np.zeros((n, c, hp, wp), dtype=dout.dtype)
        with WORKSPACE.take(dout.shape, dout.dtype) as g:
            np.divide(dout, k * k, out=g)
            for slab in slabs(dxp, k, s, ho, wo):
                slab += g
        return dxp[:, :, p : p + h, p : p + w] if p else dxp

    def output_shape(self, in_shape):
        n, c, h, w = in_shape
        ho, wo = conv_output_hw(h, w, self.kernel, self.stride, self.padding)
        return (n, c, ho, wo)


class GlobalAvgPool2D(Layer):
    """Mean over the spatial axes: ``(N, C, H, W) -> (N, C)``."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"{self.name}: expected 4-D input, got {x.shape}")
        if self.training:
            self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        n, c, h, w = self._x_shape
        return np.broadcast_to(dout[:, :, None, None] / (h * w), (n, c, h, w)).copy()

    def output_shape(self, in_shape):
        return (in_shape[0], in_shape[1])
