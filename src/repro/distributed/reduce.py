"""Deterministic weighted gradient reduction.

Floating-point addition is not associative, so the *schedule* of a
reduction is part of a run's identity: bit-reproducibility from a
committed config requires pinning one.  This module sums over a fixed
binary rank-tree, ``(0+1) + (2+3)`` then up (``distributed.reduce_order``
names it ``"tree"``, its one legal value).  The pairing depends only on
the rank indices, never on arrival order or hash state.

Terms accumulate in float64 and the weighted mean is cast back to
float32 at the end, so the result is independent of *when* each rank's
gradient arrived (the coordinator always receives in rank order).

The weights are the ranks' shard sizes: with per-rank losses averaged
over their shard, the shard-size-weighted mean of the rank gradients
equals the single-worker global-batch gradient (up to summation order).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["reduce_arrays"]


def _tree_sum(terms: List[np.ndarray]) -> np.ndarray:
    """Combine fixed adjacent pairs until one term remains."""
    while len(terms) > 1:
        nxt = []
        for i in range(0, len(terms) - 1, 2):
            nxt.append(terms[i] + terms[i + 1])
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
    return terms[0]


def reduce_arrays(arrays: Sequence[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """Weighted mean of *arrays* summed over the fixed rank-tree.

    ``arrays[r]`` is rank *r*'s gradient, ``weights[r]`` its shard size.
    Terms are promoted to float64, tree-summed, divided by the
    (identically summed) weight total, and cast to float32 — the same
    bits every time for the same inputs.
    """
    if not arrays:
        raise ValueError("reduce_arrays needs at least one array")
    if len(arrays) != len(weights):
        raise ValueError(
            f"got {len(arrays)} arrays but {len(weights)} weights"
        )
    if any(w <= 0 for w in weights):
        raise ValueError(f"weights must be positive, got {list(weights)}")
    terms = [
        np.asarray(a, dtype=np.float64) * float(w)
        for a, w in zip(arrays, weights)
    ]
    shape = terms[0].shape
    for t in terms[1:]:
        if t.shape != shape:
            raise ValueError(
                f"rank gradients disagree on shape: {shape} vs {t.shape}"
            )
    total = _tree_sum([np.float64(w) for w in weights])
    return (_tree_sum(terms) / total).astype(np.float32)
