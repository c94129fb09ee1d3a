"""Inverted dropout."""

from __future__ import annotations

import math

import numpy as np

from repro.nn.layers.base import Layer
from repro.utils.rng import ensure_rng

__all__ = ["Dropout"]


class Dropout(Layer):
    """Inverted dropout: identity at eval time, scaled mask when training.

    Saves the keep-bits packed eight to a byte; backward rebuilds the
    scaled mask from them with the forward's own operations.
    """

    def __init__(self, p: float = 0.5, name=None, rng=None):
        super().__init__(name)
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = ensure_rng(rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.clear_saved()  # an identity pass leaves no earlier mask for backward to find
        if not self.training or self.p == 0.0:
            return x
        bits = self._rng.random(x.shape) < 1.0 - self.p
        self._save("mask", np.packbits(bits, axis=None))
        self._x_shape, self._x_dtype = x.shape, x.dtype
        return x * self._scaled(bits)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self.p == 0.0 or "mask" not in self._saved:
            return dout
        bits = np.unpackbits(self._pop("mask"), count=math.prod(self._x_shape)).view(bool)
        return dout * self._scaled(bits.reshape(self._x_shape))

    def _scaled(self, bits: np.ndarray) -> np.ndarray:
        return bits.astype(self._x_dtype) / (1.0 - self.p)

    def output_shape(self, in_shape):
        return in_shape
