"""Compression quality metrics and distribution tests.

These back the paper's measurement plots: compression ratio (Table 1),
the uniformity of SZ reconstruction error (Figure 3), and error summary
statistics used throughout Section 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "compression_ratio",
    "max_abs_error",
    "mse",
    "psnr",
    "ErrorStats",
    "error_stats",
    "uniformity_pvalue",
    "normality_pvalue",
]


def compression_ratio(original: np.ndarray, compressed_nbytes: int) -> float:
    """Original bytes over compressed bytes."""
    if compressed_nbytes <= 0:
        raise ValueError("compressed size must be positive")
    return original.nbytes / compressed_nbytes


def max_abs_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    return float(np.max(np.abs(original.astype(np.float64) - reconstructed.astype(np.float64))))


def mse(original: np.ndarray, reconstructed: np.ndarray) -> float:
    d = original.astype(np.float64) - reconstructed.astype(np.float64)
    return float(np.mean(d * d))


def psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB over the data's value range."""
    m = mse(original, reconstructed)
    if m == 0:
        return float("inf")
    vrange = float(original.max()) - float(original.min())
    if vrange == 0:
        return float("-inf")
    return 10.0 * np.log10(vrange**2 / m)


@dataclass
class ErrorStats:
    """Summary of a pointwise error sample."""

    mean: float
    std: float
    max_abs: float
    skew: float
    kurtosis: float  # Fisher (normal == 0)
    n: int


def error_stats(errors: np.ndarray) -> ErrorStats:
    """Moments of an error sample (biased estimators, as ``scipy.stats``
    defaults).  A constant sample has zero skew and kurtosis."""
    e = np.asarray(errors, dtype=np.float64).reshape(-1)
    if e.size == 0:
        return ErrorStats(mean=0.0, std=0.0, max_abs=0.0, skew=0.0, kurtosis=0.0, n=0)
    mean = float(e.mean())
    d = e - mean
    d2 = d * d
    m2 = float(d2.mean())
    skew = kurtosis = 0.0
    # constant up to the rounding of the mean counts as constant
    if m2 > (np.finfo(np.float64).eps * mean) ** 2:
        if e.size > 2:
            skew = float((d2 * d).mean()) / m2**1.5
        if e.size > 3:
            kurtosis = float((d2 * d2).mean()) / m2**2 - 3.0
    return ErrorStats(
        mean=mean,
        std=float(np.sqrt(m2)),
        max_abs=float(np.abs(e).max()),
        skew=skew,
        kurtosis=kurtosis,
        n=int(e.size),
    )


def uniformity_pvalue(errors: np.ndarray, bound: float) -> float:
    """KS-test p-value of errors against U(-bound, +bound).

    High p-value -> consistent with the uniform error model of Section 3.1.
    """
    e = np.asarray(errors, dtype=np.float64).reshape(-1)
    if e.size == 0:
        raise ValueError("empty error sample")
    if not bound > 0:
        raise ValueError(f"bound must be positive, got {bound}")
    from scipy.stats import kstest

    return float(kstest(e, "uniform", args=(-bound, 2 * bound)).pvalue)


def normality_pvalue(errors: np.ndarray) -> float:
    """KS-test p-value against a normal fitted by moments (Figure 6 check)."""
    e = np.asarray(errors, dtype=np.float64).reshape(-1)
    if e.size == 0:
        raise ValueError("empty error sample")
    s = e.std()
    if s == 0:
        return 0.0
    from scipy.stats import kstest

    return float(kstest((e - e.mean()) / s, "norm").pvalue)
