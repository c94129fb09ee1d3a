"""Dual-quantization (cuSZ) with linear-scaling error control.

cuSZ first *pre-quantizes* the floating-point input onto a uniform grid of
pitch ``2*eb`` so that all later stages operate on integers and the
reconstruction error is bounded by construction:

    q   = round(x / (2*eb))          (prequantization)
    x'  = q * (2*eb)                 (reconstruction)
    =>  |x - x'| <= eb               (absolute error bound)

The Lorenzo residuals of ``q`` are then mapped to bounded *quantization
codes* around a radius; residuals outside the code range are "outliers"
stored verbatim.  Code value 0 is reserved as the outlier marker, exactly
as in SZ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.numpy_backend import apply_outliers

__all__ = [
    "prequantize",
    "reconstruct",
    "codes_from_residuals",
    "residuals_from_codes",
    "QuantizedResiduals",
]


def prequantize(x: np.ndarray, error_bound: float) -> np.ndarray:
    """Quantize *x* onto the ``2*eb`` grid, returning int64 grid indices."""
    if not 0 < error_bound < np.inf:
        raise ValueError(f"error bound must be positive and finite, got {error_bound}")
    # rint keeps ties-to-even like cuSZ's round; int64 avoids overflow for
    # small error bounds on large-magnitude data.
    return np.rint(np.asarray(x, dtype=np.float64) / (2.0 * error_bound)).astype(np.int64)


def reconstruct(q: np.ndarray, error_bound: float, dtype=np.float32) -> np.ndarray:
    """Map grid indices back to floating point values.

    The error-bound contract: the reconstruction is computed in float64,
    where ``|x - q * 2*eb| <= eb`` holds exactly (up to float64 rounding
    of the product, i.e. well below any float32 ulp).  Requesting a
    narrower output ``dtype`` adds at most half an ulp of the value
    magnitude on top of ``eb`` — the same caveat real cuSZ carries.
    Pass ``dtype=np.float64`` to keep the guarantee exact.
    """
    out = q.astype(np.float64) * (2.0 * error_bound)
    dtype = np.dtype(dtype)
    return out if dtype == np.float64 else out.astype(dtype)


@dataclass
class QuantizedResiduals:
    """Bounded quantization codes plus the escaped outlier residuals.

    ``codes`` is a flat ``uint16``/``uint32`` array over the original
    element order; positions holding the reserved value 0 take their
    residual from ``outliers`` (in order of appearance).
    """

    codes: np.ndarray
    outliers: np.ndarray
    radius: int
    shape: tuple

    @property
    def outlier_count(self) -> int:
        return int(self.outliers.size)

    @property
    def outlier_ratio(self) -> float:
        n = int(np.prod(self.shape)) if self.shape else 0
        return self.outlier_count / n if n else 0.0


def codes_from_residuals(delta: np.ndarray, radius: int = 512) -> QuantizedResiduals:
    """Map Lorenzo residuals to codes ``delta + radius`` in ``(0, 2*radius)``.

    Residuals with ``|delta| >= radius`` cannot be represented and are
    escaped into the outlier array (marker code 0).
    """
    if radius < 2:
        raise ValueError(f"radius must be >= 2, got {radius}")
    flat = delta.reshape(-1)
    shifted = flat + radius
    inlier = (shifted > 0) & (shifted < 2 * radius)
    dtype = np.uint16 if 2 * radius <= np.iinfo(np.uint16).max else np.uint32
    codes = np.where(inlier, shifted, 0).astype(dtype)
    outliers = flat[~inlier].astype(np.int64)
    return QuantizedResiduals(codes=codes, outliers=outliers, radius=radius, shape=delta.shape)


def residuals_from_codes(qr: QuantizedResiduals) -> np.ndarray:
    """Invert :func:`codes_from_residuals` back to int64 residuals."""
    return apply_outliers(qr.codes, qr.outliers, qr.radius).reshape(qr.shape)
