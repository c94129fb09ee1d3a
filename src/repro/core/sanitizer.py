"""Runtime sanitizer: instrumented locks and poisoned buffers.

Set ``REPRO_SANITIZE=1`` (or enable :class:`~repro.api.config.SanitizerSpec`
in a :class:`~repro.api.config.SessionConfig`) and every arena, arena
pool, scratch pool, codebook cache and param store constructed
afterwards swaps in instrumented internals:

* **Lock-order tracking** — every class-internal lock becomes a
  :class:`TrackedLock` feeding one process-wide
  :class:`LockOrderMonitor`.  The monitor records the acquisition-order
  graph across *all* sanitized locks and raises :class:`LockOrderError`
  **before** an acquire that would close a cycle — a stress test sees a
  crisp exception with both hold sites instead of a silent deadlock.
* **Release poisoning** — bytes leaving the arena (``discard``/
  ``close``) are filled with ``0xFF`` (NaN when reinterpreted as
  float32/float64); scratch buffers returning to the pool are filled
  with NaN (float dtypes) or the dtype max (ints).  Code that keeps a
  reference past release produces loud garbage instead of silently
  reading stale activations.
* **Double-release trapping** — arena ``put``/``get``/``discard``/
  ``pop`` are wrapped per instance; a second release of a live-then-dead
  key raises :class:`DoubleReleaseError`, a ``get``/``pop`` after
  release raises :class:`UseAfterReleaseError`, both carrying the
  first release's formatted traceback.  Keys the arena never issued are
  still a no-op, preserving ``discard``'s documented contract.

The sanitizer is process-wide and sticky: :func:`enable` affects objects
constructed *after* the call (``build_session`` enables it before
constructing anything), plus the one pool built at import: the conv /
pool workspace of ``repro.nn``.  It never changes behavior when disabled — the
production classes only expose tiny hook points
(``ByteArena._copy_in``/``_on_release``) that default to no-ops.
"""

from __future__ import annotations

import os
import sys
import threading
import traceback
from typing import Dict, List, Set

import numpy as np

__all__ = [
    "SanitizerError",
    "LockOrderError",
    "DoubleReleaseError",
    "UseAfterReleaseError",
    "TrackedLock",
    "LockOrderMonitor",
    "enable",
    "disable",
    "enabled",
    "maybe_instrument",
    "report",
]


class SanitizerError(RuntimeError):
    """Base class for sanitizer-detected bugs."""


class LockOrderError(SanitizerError):
    """Acquiring this lock would close a cycle in the lock-order graph."""


class DoubleReleaseError(SanitizerError):
    """An arena key was released twice."""


class UseAfterReleaseError(SanitizerError):
    """An arena key was read after its release."""


# ---------------------------------------------------------------------------
# lock-order monitoring
# ---------------------------------------------------------------------------


class LockOrderMonitor:
    """Process-wide acquisition-order graph over all tracked locks.

    An edge ``a -> b`` means some thread acquired *b* while holding *a*.
    Before any acquire of *b* while holding ``{a...}``, the monitor adds
    the new edges and searches for a path ``b ~> a``; finding one means
    another code path takes the same locks in the opposite order —
    raised as :class:`LockOrderError` *before* blocking on the inner
    lock, so stress tests fail loudly instead of hanging.
    """

    def __init__(self) -> None:
        self._graph_lock = threading.Lock()
        self._edges: Dict[int, Set[int]] = {}
        self._names: Dict[int, str] = {}
        self._tls = threading.local()
        self.acquisitions = 0

    def _held(self) -> List[int]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = self._tls.held = []
        return held

    def _path_exists(self, src: int, targets: Set[int]) -> bool:
        stack, seen = [src], {src}
        while stack:
            node = stack.pop()
            if node in targets:
                return True
            for nxt in self._edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def before_acquire(self, lock: "TrackedLock") -> None:
        held = self._held()
        lock_id = id(lock)
        if lock_id in held:
            if lock.reentrant:
                return  # re-entry adds no ordering information
            raise LockOrderError(
                f"non-reentrant lock {lock.name!r} re-acquired by the "
                f"thread already holding it (self-deadlock)"
            )
        outer = set(held)
        if not outer:
            return
        with self._graph_lock:
            self._names[lock_id] = lock.name
            for h in outer:
                self._edges.setdefault(h, set()).add(lock_id)
            if self._path_exists(lock_id, outer):
                order = " -> ".join(self._names.get(h, "?") for h in held)
                raise LockOrderError(
                    f"acquiring {lock.name!r} while holding [{order}] closes "
                    f"a cycle in the lock-order graph (another path acquires "
                    f"these locks in the opposite order); potential deadlock"
                )

    def after_acquire(self, lock: "TrackedLock") -> None:
        self._held().append(id(lock))
        self.acquisitions += 1
        with self._graph_lock:
            self._names.setdefault(id(lock), lock.name)

    def on_release(self, lock: "TrackedLock") -> None:
        held = self._held()
        lock_id = id(lock)
        for i in range(len(held) - 1, -1, -1):
            if held[i] == lock_id:
                del held[i]
                return

    def edge_count(self) -> int:
        with self._graph_lock:
            return sum(len(v) for v in self._edges.values())


class TrackedLock:
    """Drop-in wrapper over ``threading.Lock``/``RLock`` that reports
    every acquire/release to a :class:`LockOrderMonitor`."""

    def __init__(self, inner, name: str, reentrant: bool, monitor: LockOrderMonitor):
        self._inner = inner
        self.name = name
        self.reentrant = reentrant
        self._monitor = monitor

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._monitor.before_acquire(self)
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._monitor.after_acquire(self)
        return got

    def release(self) -> None:
        self._inner.release()
        self._monitor.on_release(self)

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"TrackedLock({self.name!r})"


# ---------------------------------------------------------------------------
# global state
# ---------------------------------------------------------------------------


class _State:
    def __init__(self) -> None:
        self.enabled = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
        self.poison = True
        self.lock_order = True
        self.trap_double_release = True
        self.monitor = LockOrderMonitor()
        self.poisoned_buffers = 0
        self.trapped_keys = 0
        self.instrumented = 0


_STATE = _State()
_counter_lock = threading.Lock()


def enabled() -> bool:
    """Is the sanitizer currently active for new constructions?"""
    return _STATE.enabled


def enable(
    poison: bool = True, lock_order: bool = True, trap_double_release: bool = True
) -> None:
    """Turn the sanitizer on for every object constructed afterwards.

    Process-wide and sticky by design: instrumentation happens at
    construction time and is never removed from live objects.
    ``build_session`` calls this before constructing the stack when
    ``config.sanitizer.enabled`` is set.
    """
    _STATE.enabled = True
    _STATE.poison = poison
    _STATE.lock_order = lock_order
    _STATE.trap_double_release = trap_double_release
    _instrument_nn_workspace()


def disable() -> None:
    """Stop instrumenting new objects (existing ones stay instrumented)."""
    _STATE.enabled = False


def report() -> dict:
    """Counters for tests and debugging."""
    return {
        "enabled": _STATE.enabled,
        "instrumented_objects": _STATE.instrumented,
        "lock_acquisitions": _STATE.monitor.acquisitions,
        "lock_order_edges": _STATE.monitor.edge_count(),
        "poisoned_buffers": _STATE.poisoned_buffers,
        "trapped_keys": _STATE.trapped_keys,
    }


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------


def _track_lock(obj, attr: str, name: str, reentrant: bool) -> None:
    inner = getattr(obj, attr, None)
    if inner is None or isinstance(inner, TrackedLock):
        return
    setattr(obj, attr, TrackedLock(inner, name, reentrant, _STATE.monitor))


def _format_site() -> str:
    return "".join(traceback.format_stack(limit=8)[:-2])


def _poison_bytes(buf) -> None:
    if isinstance(buf, bytearray):
        buf[:] = b"\xff" * len(buf)
        with _counter_lock:
            _STATE.poisoned_buffers += 1


def _poison_array(arr: np.ndarray) -> None:
    flat = arr.reshape(-1)
    if flat.dtype.kind == "f":
        flat.fill(np.nan)
    elif flat.dtype.kind in ("i", "u"):
        flat.fill(np.iinfo(flat.dtype).max)
    elif flat.dtype.kind == "c":
        flat.fill(complex(np.nan, np.nan))
    else:
        return
    with _counter_lock:
        _STATE.poisoned_buffers += 1


def _instrument_arena(arena) -> None:
    if _STATE.lock_order:
        _track_lock(arena, "_lock", f"arena-{id(arena):#x}", reentrant=True)
    if _STATE.poison:
        # put() ingests into a mutable buffer so release can poison it
        arena._copy_in = bytearray
        arena._on_release = _poison_bytes
    if not _STATE.trap_double_release:
        return

    trap_lock = threading.Lock()
    live: Dict[int, str] = {}  # key -> acquisition site
    dead: Dict[int, str] = {}  # key -> first release site

    orig_put = arena.put
    orig_get = arena.get
    orig_discard = arena.discard

    def put(data, group=None):
        key = orig_put(data, group=group)
        with trap_lock:
            live[key] = _format_site()
        return key

    def get(key):
        with trap_lock:
            site = dead.get(key)
        if site is not None:
            raise UseAfterReleaseError(
                f"arena key {key} read after release; first released at:\n{site}"
            )
        return orig_get(key)

    def discard(key):
        with trap_lock:
            site = dead.get(key)
            if site is None and key in live:
                dead[key] = _format_site()
                del live[key]
                _STATE.trapped_keys += 1
        if site is not None:
            raise DoubleReleaseError(
                f"arena key {key} released twice; first released at:\n{site}"
            )
        # keys this arena never issued stay a documented no-op
        orig_discard(key)

    def pop(key):
        # copy before discarding: the poisoning release would otherwise
        # scribble over the very bytes we are handing back
        data = bytes(get(key))
        discard(key)
        return data

    arena.put = put
    arena.get = get
    arena.discard = discard
    arena.pop = pop


def _instrument_scratch(pool) -> None:
    if _STATE.lock_order:
        _track_lock(pool, "_lock", f"scratch-{id(pool):#x}", reentrant=False)
    if _STATE.poison:
        orig_give = pool._give

        def give(buf):
            _poison_array(buf)
            orig_give(buf)

        pool._give = give


def _instrument_nn_workspace() -> None:
    """The one pool that outlives sessions: built when ``repro.nn`` is
    imported, so usually before anything enables the sanitizer."""
    conv = sys.modules.get("repro.nn.layers.conv")
    if conv is not None and "_give" not in vars(conv.WORKSPACE):
        maybe_instrument(conv.WORKSPACE, "scratch")


def maybe_instrument(obj, kind: str) -> None:
    """Constructor hook: swap in instrumented internals when enabled.

    Called (cheaply — one attribute read when disabled) from the
    ``__init__`` of every sanitizer-aware class.  *kind* selects the
    instrumentation: ``"arena"``, ``"arena_pool"``, ``"scratch"``,
    ``"codebook_cache"``, ``"param_store"``.
    """
    if not _STATE.enabled:
        return
    if kind == "arena":
        _instrument_arena(obj)
    elif kind == "scratch":
        _instrument_scratch(obj)
    elif kind == "arena_pool" and _STATE.lock_order:
        _track_lock(obj, "_lock", f"arena-pool-{id(obj):#x}", reentrant=False)
    elif kind == "codebook_cache" and _STATE.lock_order:
        _track_lock(obj, "_lock", f"codebook-{id(obj):#x}", reentrant=False)
    elif kind == "param_store" and _STATE.lock_order:
        _track_lock(obj, "_lock", f"param_store-{id(obj):#x}", reentrant=True)
    _STATE.instrumented += 1


if _STATE.enabled:  # REPRO_SANITIZE=1, and a pool was built before this import
    _instrument_nn_workspace()
