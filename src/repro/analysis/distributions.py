"""Distribution diagnostics used by the Section 3 / Section 5 analyses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["sigma_within_fraction", "DistributionReport", "describe_sample"]


def sigma_within_fraction(sample: np.ndarray) -> float:
    """Fraction of the sample within +-1 std of its mean.

    The paper's normality check for Figure 6: "by calculating the
    percentage of the area within +-sigma of each curve, we can get a
    value close to 68.2%".
    """
    e = np.asarray(sample, dtype=np.float64).reshape(-1)
    if e.size == 0:
        raise ValueError("empty sample")
    mu, sd = e.mean(), e.std()
    if sd == 0:
        return 1.0
    return float(((e >= mu - sd) & (e <= mu + sd)).mean())


@dataclass
class DistributionReport:
    mean: float
    std: float
    within_one_sigma: float
    normal_ks_pvalue: float
    uniform_ks_pvalue: float
    n: int


def describe_sample(sample: np.ndarray, uniform_bound: float = None) -> DistributionReport:
    """One-stop summary: moments plus normal/uniform KS diagnostics."""
    e = np.asarray(sample, dtype=np.float64).reshape(-1)
    if e.size < 8:
        raise ValueError("sample too small to characterize")
    from scipy.stats import kstest

    sd = e.std()
    if sd > 0:
        # Subsample for the KS test: at full size the test rejects any
        # infinitesimal deviation from the reference distribution.
        sub = e if e.size <= 5000 else e[:: e.size // 5000]
        normal_p = float(kstest((sub - sub.mean()) / sd, "norm").pvalue)
    else:
        normal_p = 0.0
    if uniform_bound is not None and uniform_bound > 0:
        sub = e if e.size <= 5000 else e[:: e.size // 5000]
        uni_p = float(kstest(sub, "uniform", args=(-uniform_bound, 2 * uniform_bound)).pvalue)
    else:
        uni_p = float("nan")
    return DistributionReport(
        mean=float(e.mean()),
        std=float(sd),
        within_one_sigma=sigma_within_fraction(e),
        normal_ks_pvalue=normal_p,
        uniform_ks_pvalue=uni_p,
        n=int(e.size),
    )
