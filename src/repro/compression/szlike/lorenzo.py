"""Vectorized Lorenzo predictor (the prediction stage of SZ / cuSZ).

The Lorenzo predictor estimates each point from its already-decoded
neighbours; for integer (pre-quantized) data the prediction residual is
exactly the d-dimensional finite difference of the array, and the inverse
transform is a cumulative sum along each predicted axis.  Both directions
are therefore fully vectorized NumPy primitives — no Python-level loops —
matching cuSZ's data-parallel formulation.

The transform operates on the *last* ``ndim`` axes of the input; leading
axes (batch, channel) are carried along untouched, which is how we apply
2-D Lorenzo prediction per feature map of an ``(N, C, H, W)`` activation
tensor.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.numpy_backend import (
    cumsum_axes,
    diff_axes,
    diff_axes_alloc,
    validate_lorenzo as _validate,
)

__all__ = ["lorenzo_encode", "lorenzo_decode"]


def lorenzo_encode(
    q: np.ndarray, ndim: int = 2, out: np.ndarray = None, work: np.ndarray = None
) -> np.ndarray:
    """Residuals of the Lorenzo predictor over the last ``ndim`` axes.

    For integer input the transform is exact (losslessly invertible by
    :func:`lorenzo_decode`).  The first element along each axis is
    predicted as 0, i.e. residuals at the boundary equal the raw values.
    ``ndim=0`` predicts nothing: the residuals are *q* itself.

    With *out* (and, for ``ndim >= 2``, *work*) the per-axis differences
    ping-pong between the two caller-owned buffers instead of allocating
    — *work* may be *q* itself when the caller no longer needs the
    input.  The returned array is whichever buffer holds the final
    residuals.
    """
    _validate(q, ndim)
    if out is None:
        return diff_axes_alloc(q, ndim)
    if ndim >= 2 and work is None:
        raise ValueError("lorenzo_encode with out= needs a work buffer for ndim >= 2")
    return diff_axes(q, ndim, out=out, work=work)


def lorenzo_decode(delta: np.ndarray, ndim: int = 2) -> np.ndarray:
    """Invert :func:`lorenzo_encode` (cumulative sums along each axis)."""
    _validate(delta, ndim)
    return cumsum_axes(delta, ndim)
