"""Inverted dropout."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer
from repro.utils.rng import ensure_rng

__all__ = ["Dropout"]


class Dropout(Layer):
    """Inverted dropout: identity at eval time, scaled mask when training."""

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
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(x.dtype) / keep
        self._save("mask", mask)
        return x * mask

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self.p == 0.0 or "mask" not in self._saved:
            return dout
        return dout * self._pop("mask")

    def output_shape(self, in_shape):
        return in_shape
