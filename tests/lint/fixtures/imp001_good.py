"""Clean: the same scipy imports, paid by the functions that use them."""

import numpy as np


def pvalue(sample):
    from scipy.stats import kstest

    return kstest(np.asarray(sample), "norm").pvalue


class Transform:
    def __init__(self):
        import scipy.fft

        self.dctn = scipy.fft.dctn


async def erf(x):
    from scipy import special

    return special.erf(x)
