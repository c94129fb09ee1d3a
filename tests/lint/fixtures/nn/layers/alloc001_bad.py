"""Known-bad: arrays that die inside forward / backward, freshly allocated."""

import numpy as np


class Pool:
    def forward(self, x):
        acc = np.zeros(x.shape, dtype=x.dtype)
        acc += x
        mask = np.empty_like(x, dtype=bool)
        np.greater(x, 0, out=mask)
        return x * mask + acc.sum()

    def backward(self, dout):
        dx = np.zeros_like(dout)
        dx += dout * np.ones(dout.shape[1:])
        self._save("scale", np.full(3, 2.0))
        return dx
