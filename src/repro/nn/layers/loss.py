"""Loss functions (softmax cross-entropy with stable log-sum-exp)."""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["SoftmaxCrossEntropy"]


class SoftmaxCrossEntropy:
    """Combined softmax + cross-entropy over integer class labels.

    ``forward`` returns ``(loss, dlogits)`` so the backward pass never
    recomputes the softmax; the gradient is averaged over the batch,
    matching the paper's Eq. 4 batch-averaged gradient.
    """

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
        if logits.ndim != 2:
            raise ValueError(f"expected (N, classes) logits, got {logits.shape}")
        n = logits.shape[0]
        if labels.shape != (n,):
            raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
        shifted = logits - logits.max(axis=1, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - logsumexp
        loss = -float(log_probs[np.arange(n), labels].mean())
        probs = np.exp(log_probs)
        dlogits = probs
        dlogits[np.arange(n), labels] -= 1.0
        dlogits /= n
        return loss, dlogits

    @staticmethod
    def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
        return float((logits.argmax(axis=1) == labels).mean())
