"""Known-bad: scipy imported when the module is imported."""

import numpy as np
from scipy import stats

try:
    import scipy.fft as fft
except ImportError:
    fft = None


class Report:
    from scipy.special import erf


def pvalue(sample):
    return stats.kstest(np.asarray(sample), "norm").pvalue
