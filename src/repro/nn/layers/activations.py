"""The elementwise activation layer."""

from __future__ import annotations

import math

import numpy as np

from repro.nn.layers.base import Layer
from repro.utils.scratch import WORKSPACE

__all__ = ["ReLU"]


class ReLU(Layer):
    """max(x, 0).

    Saves only ``x > 0`` for backward, packed eight elements to a byte
    (``np.packbits``), plus the input shape (Section 2.1's canonical
    layer that is cheap to recompute: its output is trivially derived
    from its input, which is why the paper can recompute the activation
    function to restore exact zeros).
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.maximum(x, 0)
        if self.training:
            with WORKSPACE.take(x.shape, bool) as pos:
                self._save("mask", np.packbits(np.greater(x, 0, out=pos), axis=None))
            self._x_shape = x.shape
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        shape = self._x_shape
        mask = np.unpackbits(self._pop("mask"), count=math.prod(shape)).view(bool)
        return dout * mask.reshape(shape)

    def output_shape(self, in_shape):
        return in_shape

