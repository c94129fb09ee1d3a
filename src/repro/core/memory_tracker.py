"""Per-layer memory accounting for saved activations and persistent state.

Tracks, per training iteration, the raw bytes each layer would have kept
resident (baseline training) versus the bytes actually stored under the
active memory policy — the quantities behind Table 1 and Figure 10's
compression-ratio curve.

Alongside the per-iteration activation pool there is a **persistent
pool** for state that outlives iterations: arena-backed parameters and
optimizer slots (:mod:`repro.core.param_store`).  Persistent entries are
charged on adopt/write-back, credited exactly once on release, survive
:meth:`MemoryTracker.end_iteration`, and count toward the peak byte
watermarks next to the live activation bytes.

When the session runs under a :class:`~repro.core.policy_table.PolicyTable`
(per-layer codec/error-bound rules), every pack also carries its rule's
group label and the tracker keeps a parallel **per-group** ledger —
``per_group`` / :meth:`group_summary` — so a mixed-codec session reports
raw-vs-stored bytes per layer *and* per policy rule.

Every mutation and read path is serialized behind one internal lock:
a multi-tenant server (:mod:`repro.server`) reads :meth:`group_summary`
from its metrics endpoint while steps are in flight — snapshots must
never tear or race a concurrent ``record_pack``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["LayerMemoryRecord", "MemoryTracker"]


@dataclass
class LayerMemoryRecord:
    layer_name: str
    raw_bytes: int = 0
    stored_bytes: int = 0
    packs: int = 0

    @property
    def ratio(self) -> float:
        return self.raw_bytes / self.stored_bytes if self.stored_bytes else 0.0

    def copy(self) -> "LayerMemoryRecord":
        return LayerMemoryRecord(
            self.layer_name, self.raw_bytes, self.stored_bytes, self.packs
        )


class MemoryTracker:
    """Accumulates raw-vs-stored byte counts per layer and per iteration.

    Thread-safe: recording (training threads) and summary reads
    (metrics/stats threads) may interleave freely; summaries return
    consistent copies, never live records mid-mutation.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.per_layer: Dict[str, LayerMemoryRecord] = {}
        #: policy-rule group label -> cumulative record (only populated
        #: when packs are recorded with a group, i.e. under a PolicyTable)
        self.per_group: Dict[str, LayerMemoryRecord] = {}
        self._iter_raw = 0
        self._iter_stored = 0
        self.iteration_ratios: List[float] = []
        self.peak_raw_bytes = 0
        self.peak_stored_bytes = 0
        self._live_raw = 0
        self._live_stored = 0
        #: persistent entry name -> (raw_bytes, stored_bytes)
        self._persistent: Dict[str, Tuple[int, int]] = {}
        self.persistent_raw_bytes = 0
        self.persistent_stored_bytes = 0

    def _track_peaks(self) -> None:
        """Callers hold the lock."""
        self.peak_raw_bytes = max(
            self.peak_raw_bytes, self._live_raw + self.persistent_raw_bytes
        )
        self.peak_stored_bytes = max(
            self.peak_stored_bytes, self._live_stored + self.persistent_stored_bytes
        )

    def record_pack(
        self, layer_name: str, raw_bytes: int, stored_bytes: int, group: str = ""
    ) -> None:
        with self._lock:
            rec = self.per_layer.setdefault(layer_name, LayerMemoryRecord(layer_name))
            rec.raw_bytes += raw_bytes
            rec.stored_bytes += stored_bytes
            rec.packs += 1
            if group:
                grec = self.per_group.setdefault(group, LayerMemoryRecord(group))
                grec.raw_bytes += raw_bytes
                grec.stored_bytes += stored_bytes
                grec.packs += 1
            self._iter_raw += raw_bytes
            self._iter_stored += stored_bytes
            self._live_raw += raw_bytes
            self._live_stored += stored_bytes
            self._track_peaks()

    def record_release(self, raw_bytes: int, stored_bytes: int) -> None:
        with self._lock:
            self._live_raw -= raw_bytes
            self._live_stored -= stored_bytes

    # -- persistent pool (arena-backed parameters / optimizer slots) -------
    def record_persistent(self, name: str, raw_bytes: int, stored_bytes: int) -> None:
        """Charge (or re-charge, on write-back) one persistent entry."""
        with self._lock:
            old = self._persistent.get(name)
            if old is not None:
                self.persistent_raw_bytes -= old[0]
                self.persistent_stored_bytes -= old[1]
            self._persistent[name] = (raw_bytes, stored_bytes)
            self.persistent_raw_bytes += raw_bytes
            self.persistent_stored_bytes += stored_bytes
            self._track_peaks()

    def release_persistent(self, name: str) -> None:
        """Credit one persistent entry exactly once; releasing an unknown
        (or already-released) entry is an accounting bug and raises."""
        with self._lock:
            raw, stored = self._persistent.pop(name)
            self.persistent_raw_bytes -= raw
            self.persistent_stored_bytes -= stored

    def end_iteration(self) -> float:
        """Close the iteration; returns its overall compression ratio."""
        with self._lock:
            ratio = self._iter_raw / self._iter_stored if self._iter_stored else 0.0
            if self._iter_stored:
                self.iteration_ratios.append(ratio)
            self._iter_raw = 0
            self._iter_stored = 0
            self._live_raw = 0
            self._live_stored = 0
            return ratio

    @property
    def overall_ratio(self) -> float:
        with self._lock:
            raw = sum(r.raw_bytes for r in self.per_layer.values())
            stored = sum(r.stored_bytes for r in self.per_layer.values())
            return raw / stored if stored else 0.0

    def summary(self) -> List[LayerMemoryRecord]:
        with self._lock:
            return sorted(
                (r.copy() for r in self.per_layer.values()),
                key=lambda r: r.layer_name,
            )

    def group_summary(self) -> List[LayerMemoryRecord]:
        """Per-policy-rule cumulative records (empty without a table).

        Returns consistent copies: a concurrent ``record_pack`` on the
        training thread cannot mutate a row after this snapshot returns
        (the contract the server's live metrics endpoint relies on)."""
        with self._lock:
            return sorted(
                (r.copy() for r in self.per_group.values()),
                key=lambda r: r.layer_name,
            )
