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
thread-safe so a server's scheduler threads can report concurrently.

Stages used by the framework: ``quantize`` / ``predict`` / ``encode``
(compress side), ``decode`` (decompress side), ``arena-io`` (byte-arena
put/get/spill), ``step`` (whole training iteration, recorded by the
trainer), and the distributed exchange's ``grad-pack`` /
``grad-exchange`` / ``grad-unpack`` (rank side) and ``grad-reduce``
(coordinator side).  Custom stages are just new names.
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

    __slots__ = ("_profiler", "_name", "_t0")

    def __init__(self, profiler: "StageProfiler", name: str):
        self._profiler = profiler
        self._name = name

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._profiler.record(self._name, time.perf_counter() - self._t0)
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

    # -- recording ---------------------------------------------------------
    def stage(self, name: str):
        """Context manager timing one region under *name*."""
        if not self.enabled:
            return _NULL
        return _StageContext(self, name)

    def record(self, name: str, seconds: float) -> None:
        with self._lock:
            self._seconds[name] = self._seconds.get(name, 0.0) + float(seconds)
            self._calls[name] = self._calls.get(name, 0) + 1

    def merge(self, snapshot: Dict[str, Dict[str, float]]) -> None:
        """Fold another profiler's :meth:`snapshot` into this one.

        Used to carry stage timings across a process boundary: each
        data-parallel rank returns its snapshot when it closes, and the
        coordinator merges it here.
        """
        with self._lock:
            for name, rec in snapshot.items():
                self._seconds[name] = self._seconds.get(name, 0.0) + float(rec["seconds"])
                self._calls[name] = self._calls.get(name, 0) + int(rec["calls"])

    # -- reporting ---------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{stage: {"seconds": total, "calls": n}}`` at this instant."""
        with self._lock:
            return {
                name: {"seconds": self._seconds[name], "calls": self._calls[name]}
                for name in sorted(self._seconds)
            }

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


def stage(name: str):
    """Time a region under the active profiler (no-op when none)."""
    p = getattr(_THREAD, "profiler", None)
    if p is None:
        p = _ACTIVE
    if p is None:
        return _NULL
    return p.stage(name)


def merge_snapshots(snapshots) -> Dict[str, Dict[str, float]]:
    """Fold many :meth:`StageProfiler.snapshot` dicts into one merged
    view — the cross-tenant aggregate a server's metrics surface reports
    next to the per-tenant breakdowns.  Seconds and calls sum per
    stage; input snapshots are untouched."""
    merged = StageProfiler()
    for snap in snapshots:
        merged.merge(snap)
    return merged.snapshot()
