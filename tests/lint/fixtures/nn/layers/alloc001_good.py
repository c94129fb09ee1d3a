"""Clean: what is allocated is returned or saved; the rest is borrowed."""

import numpy as np

from repro.utils.scratch import WORKSPACE


def helper(v):
    return np.concatenate([np.zeros_like(v[:1]), v])  # not a layer method


class Pool:
    def __init__(self, channels):
        self.gain = np.ones(channels)

    def forward(self, x):
        out = np.empty(x.shape, dtype=x.dtype)
        idx = np.zeros(x.shape, dtype=np.int16)
        with WORKSPACE.take(x.shape, bool) as mask:
            np.greater(x, 0, out=mask)
            np.multiply(x, mask, out=out)
        self._save("idx", idx)
        return out

    def backward(self, dout):
        dxp = np.zeros((2,) + dout.shape, dtype=dout.dtype)
        dxp[0] += dout
        return dxp[0] if dout.ndim else np.zeros_like(dout)
