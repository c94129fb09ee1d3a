"""Deterministic weighted gradient reduction.

Floating-point addition is not associative, so the *schedule* of a
reduction is part of a run's identity: two orders give two (slightly)
different float results, and bit-reproducibility from a committed config
requires pinning one.  This module implements the two schedules
:class:`~repro.api.config.DistributedSpec` names:

* ``"tree"`` — fixed binary rank-tree: ``(0+1) + (2+3)`` then up.  The
  pairing depends only on the rank indices, never on arrival order or
  hash state.
* ``"linear"`` — left fold ``((0+1)+2)+3`` in rank order.

Both accumulate in float64 and cast the weighted mean back to float32
at the end, so the schedule's rounding differences stay in the last
float32 bit and the result is independent of *when* each rank's
gradient arrived (the coordinator always receives in rank order).

The weights are the ranks' shard sizes: with per-rank losses averaged
over their shard, the shard-size-weighted mean of the rank gradients
equals the single-worker global-batch gradient (up to summation order).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.api.config import REDUCE_ORDERS

__all__ = ["REDUCE_ORDERS", "reduce_arrays"]


def _fold(terms: List[np.ndarray], order: str) -> np.ndarray:
    if order == "linear":
        acc = terms[0]
        for t in terms[1:]:
            acc = acc + t
        return acc
    # tree: combine fixed adjacent pairs until one term remains
    while len(terms) > 1:
        nxt = []
        for i in range(0, len(terms) - 1, 2):
            nxt.append(terms[i] + terms[i + 1])
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
    return terms[0]


def reduce_arrays(
    arrays: Sequence[np.ndarray],
    weights: Sequence[float],
    order: str = "tree",
) -> np.ndarray:
    """Weighted mean of *arrays* under a fixed summation schedule.

    ``arrays[r]`` is rank *r*'s gradient, ``weights[r]`` its shard size.
    Terms are promoted to float64, combined in the schedule *order*
    prescribes, divided by the (identically scheduled) weight total, and
    cast to float32 — the same bits every time for the same inputs.
    """
    if order not in REDUCE_ORDERS:
        raise ValueError(
            f"reduce order must be one of {REDUCE_ORDERS}, got {order!r}"
        )
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
    total = _fold([np.float64(w) for w in weights], order)
    return (_fold(terms, order) / total).astype(np.float32)
