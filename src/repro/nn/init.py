"""Weight initializer (Kaiming uniform)."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng

__all__ = ["kaiming_uniform"]


def kaiming_uniform(shape, fan_in: int, rng=None) -> np.ndarray:
    """He et al. uniform init for ReLU networks: U(+-sqrt(6/fan_in))."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    bound = np.sqrt(6.0 / fan_in)
    return ensure_rng(rng).uniform(-bound, bound, size=shape).astype(np.float32)

