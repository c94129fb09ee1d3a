"""Lightweight hot-path stage profiler.

The paper's overhead story lives or dies on where the compress path
spends its time; this module records it instead of guessing.  Components
on the hot path bracket their work with :func:`stage`:

    from repro.utils import profiler

    with profiler.stage("encode"):
        ...entropy coding...

When no profiler is active (the default) ``stage`` returns a shared
no-op context — one global read per call, nothing timed, so production
paths pay effectively nothing.  Activating a :class:`StageProfiler`
(directly or via ``SessionConfig(profiler=ProfilerSpec(enabled=True))``) turns every bracketed
region into a per-stage (total seconds, call count) accumulator,
thread-safe so the async engine's workers and the chunked codec's pool
threads can report concurrently.

Stages used by the framework: ``quantize`` / ``predict`` / ``encode``
(compress side), ``decode`` (decompress side), ``arena-io`` (byte-arena
put/get/spill), ``engine-wait`` (training thread blocked on an async
pack or prefetch), ``unpack-ahead`` (speculative decompress on the
worker pool), ``bind-window`` (param-store window materialization and
next-window staging), ``step`` (whole training iteration, recorded by
the trainer), and the distributed exchange's ``grad-pack`` /
``grad-exchange`` / ``grad-unpack`` (rank side) and ``grad-reduce``
(coordinator side, hidden behind the ranks' exchange wait).  Custom
stages are just new names.

Overlap accounting: a stage bracketed with ``hidden=True`` runs off the
critical path (engine worker threads) — its seconds count toward the
stage total *and* toward a per-stage hidden accumulator, so
:meth:`StageProfiler.overlap_summary` can report how much of each
stage's time was hidden behind compute versus exposed on the training
thread.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

__all__ = [
    "StageProfiler",
    "stage",
    "get_active",
    "set_active",
    "bind_to_thread",
    "merge_snapshots",
]


class _NullContext:
    """Shared do-nothing context for the profiler-off fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullContext()


class _StageContext:
    """Times one bracketed region and reports it to its profiler."""

    __slots__ = ("_profiler", "_name", "_hidden", "_t0")

    def __init__(self, profiler: "StageProfiler", name: str, hidden: bool = False):
        self._profiler = profiler
        self._name = name
        self._hidden = hidden

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._profiler.record(
            self._name, time.perf_counter() - self._t0, hidden=self._hidden
        )
        return False


class StageProfiler:
    """Thread-safe per-stage wall-clock accumulator.

    ``enabled`` can be flipped at runtime; a disabled profiler hands out
    the shared no-op context, so leaving one active costs nothing while
    it is switched off.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._seconds: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}
        self._hidden: Dict[str, float] = {}

    # -- recording ---------------------------------------------------------
    def stage(self, name: str, hidden: bool = False):
        """Context manager timing one region under *name*.

        ``hidden=True`` marks the region as off-critical-path work
        (engine worker threads): it still accumulates into the stage
        total, and additionally into the hidden-time bucket reported by
        :meth:`overlap_summary`.
        """
        if not self.enabled:
            return _NULL
        return _StageContext(self, name, hidden)

    def record(self, name: str, seconds: float, hidden: bool = False) -> None:
        with self._lock:
            self._seconds[name] = self._seconds.get(name, 0.0) + float(seconds)
            self._calls[name] = self._calls.get(name, 0) + 1
            if hidden:
                self._hidden[name] = self._hidden.get(name, 0.0) + float(seconds)

    def merge(self, snapshot: Dict[str, Dict[str, float]]) -> None:
        """Fold another profiler's :meth:`snapshot` into this one.

        Used to carry stage timings across a process boundary: pool
        workers (e.g. ``ChunkedCodec(executor="process")``) time their
        stages under a child-local profiler, return the snapshot with
        the result, and the parent merges it here.
        """
        with self._lock:
            for name, rec in snapshot.items():
                self._seconds[name] = self._seconds.get(name, 0.0) + float(rec["seconds"])
                self._calls[name] = self._calls.get(name, 0) + int(rec["calls"])
                hidden = float(rec.get("hidden_seconds", 0.0))
                if hidden:
                    self._hidden[name] = self._hidden.get(name, 0.0) + hidden

    # -- reporting ---------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{stage: {"seconds": total, "calls": n}}`` at this instant.

        Stages with hidden (worker-side) time carry an extra
        ``"hidden_seconds"`` key; stages without stay two-key, so
        snapshots from profilers that never used ``hidden=True`` are
        unchanged.
        """
        with self._lock:
            out: Dict[str, Dict[str, float]] = {}
            for name in sorted(self._seconds):
                rec = {"seconds": self._seconds[name], "calls": self._calls[name]}
                hidden = self._hidden.get(name, 0.0)
                if hidden:
                    rec["hidden_seconds"] = hidden
                out[name] = rec
            return out

    def overlap_summary(self) -> Dict[str, Dict[str, float]]:
        """Hidden-vs-exposed decomposition of the overlap stages.

        Returns ``{stage: {"seconds", "hidden_seconds",
        "exposed_seconds", "hidden_fraction"}}`` for every stage that
        recorded hidden time, plus the always-exposed wait stages when
        present — ``engine-wait`` (the training thread blocked on the
        engine) and ``grad-exchange`` (a rank blocked on the reduced
        gradient) — the two sides of the pipeline-overlap ledger.
        """
        with self._lock:
            out: Dict[str, Dict[str, float]] = {}
            for name in sorted(self._seconds):
                hidden = self._hidden.get(name, 0.0)
                if hidden <= 0.0 and name not in ("engine-wait", "grad-exchange"):
                    continue
                total = self._seconds[name]
                out[name] = {
                    "seconds": total,
                    "hidden_seconds": hidden,
                    "exposed_seconds": total - hidden,
                    "hidden_fraction": hidden / total if total > 0.0 else 0.0,
                }
            return out

    def total_seconds(self, name: str) -> float:
        with self._lock:
            return self._seconds.get(name, 0.0)

    def report_lines(self) -> list:
        """Human-readable per-stage breakdown, widest stages first."""
        snap = self.snapshot()
        if not snap:
            return ["(no stages recorded)"]
        width = max(len(n) for n in snap)
        lines = []
        for name, rec in sorted(snap.items(), key=lambda kv: -kv[1]["seconds"]):
            mean_ms = 1e3 * rec["seconds"] / rec["calls"] if rec["calls"] else 0.0
            lines.append(
                f"{name:{width}s} {rec['seconds']:9.3f}s "
                f"{rec['calls']:7d} calls {mean_ms:9.3f} ms/call"
            )
        return lines

    def reset(self) -> None:
        with self._lock:
            self._seconds.clear()
            self._calls.clear()
            self._hidden.clear()

    # -- activation --------------------------------------------------------
    def activate(self) -> "StageProfiler":
        """Install as the process-wide active profiler."""
        set_active(self)
        return self

    def deactivate(self) -> None:
        """Remove as the active profiler (if it is the active one)."""
        if get_active() is self:
            set_active(None)

    def __enter__(self) -> "StageProfiler":
        return self.activate()

    def __exit__(self, *exc) -> None:
        self.deactivate()


#: process-wide active profiler (None = off); module-level so hot paths
#: pay one global read when profiling is off
_ACTIVE: Optional[StageProfiler] = None

#: per-thread override of the active profiler: a multi-tenant server
#: runs many sessions' steps concurrently on scheduler threads, and each
#: step's stages must land in *that tenant's* profiler, not whichever
#: session activated last.  The process-wide slot stays the fallback for
#: unbound threads (the single-session case is unchanged).
_THREAD = threading.local()


def get_active() -> Optional[StageProfiler]:
    bound = getattr(_THREAD, "profiler", None)
    return bound if bound is not None else _ACTIVE


def set_active(profiler: Optional[StageProfiler]) -> None:
    global _ACTIVE
    _ACTIVE = profiler


class _ThreadBinding:
    """Context manager scoping a thread-local profiler binding."""

    __slots__ = ("_profiler", "_prev")

    def __init__(self, profiler: Optional[StageProfiler]):
        self._profiler = profiler

    def __enter__(self):
        self._prev = getattr(_THREAD, "profiler", None)
        _THREAD.profiler = self._profiler
        return self._profiler

    def __exit__(self, *exc):
        _THREAD.profiler = self._prev
        return False


def bind_to_thread(profiler: Optional[StageProfiler]) -> _ThreadBinding:
    """Bind *profiler* as this thread's active profiler for a scope:

        with profiler.bind_to_thread(tenant_profiler):
            session.train_step(...)

    Inside the scope, :func:`stage` on this thread records into
    *profiler* regardless of the process-wide active one; other threads
    are unaffected.  ``None`` is an unbind (the thread falls back to the
    process-wide profiler)."""
    return _ThreadBinding(profiler)


def stage(name: str, hidden: bool = False):
    """Time a region under the active profiler (no-op when none)."""
    p = getattr(_THREAD, "profiler", None)
    if p is None:
        p = _ACTIVE
    if p is None:
        return _NULL
    return p.stage(name, hidden)


def merge_snapshots(snapshots) -> Dict[str, Dict[str, float]]:
    """Fold many :meth:`StageProfiler.snapshot` dicts into one merged
    view — the cross-tenant aggregate a server's metrics surface reports
    next to the per-tenant breakdowns.  Seconds, calls, and hidden
    seconds sum per stage; input snapshots are untouched."""
    merged = StageProfiler()
    for snap in snapshots:
        merged.merge(snap)
    return merged.snapshot()
