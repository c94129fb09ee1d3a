"""Step scheduler: per-tenant FIFO queues drained by a shared worker pool.

The multi-tenant server's concurrency story in one class.  Each tenant
owns a FIFO of submitted step requests; a fixed pool of worker threads
drains them with two invariants:

- **Per-tenant serialism**: at most one worker runs a given tenant at a
  time (the tenant is *checked out* while its requests execute), and its
  requests run in submission order.  A tenant's training trajectory is
  therefore identical to running the same steps on a plain session —
  workers add cross-tenant concurrency only.
- **Round-robin fairness**: tenants with pending work rotate through a
  ready queue; each checkout runs at most ``max_batch_requests``
  consecutive requests (request batching amortizes dispatch overhead
  under load) before the tenant goes to the back of the line.

Backpressure is per-tenant: submits beyond ``queue_depth`` pending
requests raise :class:`QueueFullError` instead of growing without bound.

With ``workers=1`` the interleaving is fully deterministic (one global
drain order), which is what the benchmark gates rely on; ``workers>1``
keeps per-tenant results bit-identical and only reorders cross-tenant.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.utils import profiler as profiler_mod

__all__ = ["QueueFullError", "StepScheduler", "Ticket"]


class QueueFullError(RuntimeError):
    """A tenant's pending-request queue is at ``queue_depth``."""


class Ticket:
    """One submitted request: wait on it, then read ``result``.

    ``wait()`` re-raises the exception the request's callable raised, so
    failures surface on the submitting side, not inside a worker.
    Latency fields (seconds): ``queue_seconds`` (enqueue to start) and
    ``run_seconds`` (start to done); ``latency_seconds`` is their sum —
    the end-to-end number the server's p50/p99 metrics are built from.
    """

    __slots__ = (
        "tenant",
        "fn",
        "result",
        "error",
        "queue_seconds",
        "run_seconds",
        "cancelled",
        "_enqueued",
        "_done",
    )

    def __init__(self, tenant: str, fn: Callable[[], object]):
        self.tenant = tenant
        self.fn = fn
        self.result: object = None
        self.error: Optional[BaseException] = None
        self.queue_seconds = 0.0
        self.run_seconds = 0.0
        self.cancelled = False
        self._enqueued = time.perf_counter()
        self._done = threading.Event()

    @property
    def latency_seconds(self) -> float:
        return self.queue_seconds + self.run_seconds

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> object:
        if not self._done.wait(timeout):
            raise TimeoutError(f"ticket for tenant {self.tenant!r} still pending")
        if self.cancelled:
            raise RuntimeError(
                f"request cancelled (tenant {self.tenant!r} evicted with work queued)"
            )
        if self.error is not None:
            raise self.error
        return self.result


class _TenantQueue:
    """Per-tenant scheduler state.  Callers hold the scheduler lock."""

    __slots__ = ("name", "profiler", "pending", "checked_out", "executed", "rejected", "latencies")

    def __init__(self, name: str, profiler=None):
        self.name = name
        self.profiler = profiler
        self.pending: deque = deque()
        self.checked_out = False
        self.executed = 0
        self.rejected = 0
        #: end-to-end latency samples (seconds), newest last, bounded
        self.latencies: deque = deque(maxlen=4096)


class StepScheduler:
    """Shared worker pool draining per-tenant FIFO request queues."""

    def __init__(
        self,
        workers: int = 1,
        max_batch_requests: int = 1,
        queue_depth: int = 64,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_batch_requests < 1:
            raise ValueError("max_batch_requests must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.max_batch_requests = max_batch_requests
        self.queue_depth = queue_depth
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._tenants: Dict[str, _TenantQueue] = {}
        #: names with pending work, not currently checked out (round-robin)
        self._ready: deque = deque()
        self._closed = False
        self._workers = [
            threading.Thread(target=self._worker, name=f"repro-sched-{i}", daemon=True)
            for i in range(workers)
        ]
        for t in self._workers:
            t.start()

    # -- tenant lifecycle ----------------------------------------------------
    def register(self, name: str, profiler=None) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            if name in self._tenants:
                raise ValueError(f"tenant {name!r} already registered")
            self._tenants[name] = _TenantQueue(name, profiler)

    def unregister(self, name: str) -> None:
        """Remove *name*, waiting out any in-flight request batch.

        Pending (not yet started) requests are cancelled — their tickets
        complete with ``cancelled=True`` so waiters unblock with an
        error instead of hanging forever.
        """
        with self._cond:
            tq = self._tenants.get(name)
            if tq is None:
                return
            while tq.checked_out:
                self._cond.wait()
            for ticket in tq.pending:
                ticket.cancelled = True
                ticket._done.set()
            tq.pending.clear()
            try:
                self._ready.remove(name)
            except ValueError:
                pass
            del self._tenants[name]

    # -- submission ----------------------------------------------------------
    def submit(self, name: str, fn: Callable[[], object]) -> Ticket:
        """Enqueue ``fn`` for *name*; returns immediately with a ticket."""
        ticket = Ticket(name, fn)
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            tq = self._tenants.get(name)
            if tq is None:
                raise KeyError(f"unknown tenant {name!r}")
            if len(tq.pending) >= self.queue_depth:
                tq.rejected += 1
                raise QueueFullError(
                    f"tenant {name!r} has {len(tq.pending)} pending requests "
                    f"(queue_depth={self.queue_depth})"
                )
            tq.pending.append(ticket)
            if not tq.checked_out and name not in self._ready:
                self._ready.append(name)
                self._cond.notify()
        return ticket

    # -- worker loop ---------------------------------------------------------
    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._ready and not self._closed:
                    self._cond.wait()
                if self._closed and not self._ready:
                    return
                name = self._ready.popleft()
                tq = self._tenants.get(name)
                if tq is None:
                    continue
                tq.checked_out = True
                batch: List[Ticket] = []
                while tq.pending and len(batch) < self.max_batch_requests:
                    batch.append(tq.pending.popleft())
            t0 = time.perf_counter()
            try:
                with profiler_mod.bind_to_thread(tq.profiler):
                    for ticket in batch:
                        ticket.queue_seconds = t0 - ticket._enqueued
                        start = time.perf_counter()
                        try:
                            ticket.result = ticket.fn()
                        except BaseException as exc:  # surfaced via ticket.wait()
                            ticket.error = exc
                        ticket.run_seconds = time.perf_counter() - start
                        t0 = time.perf_counter()
            finally:
                # Even if the profiler bind itself blew up, the batch must
                # be accounted and its tickets completed — a stuck
                # checked_out flag would deadlock unregister()/close().
                with self._cond:
                    tq.checked_out = False
                    tq.executed += len(batch)
                    for ticket in batch:
                        tq.latencies.append(ticket.latency_seconds)
                    if tq.pending and name in self._tenants:
                        self._ready.append(name)
                    # Wake both idle workers and unregister() waiters.
                    self._cond.notify_all()
                for ticket in batch:
                    ticket._done.set()

    # -- reporting -----------------------------------------------------------
    def stats(self) -> Dict[str, dict]:
        """Per-tenant queue/latency counters at this instant."""
        with self._lock:
            out: Dict[str, dict] = {}
            for name in sorted(self._tenants):
                tq = self._tenants[name]
                samples = sorted(tq.latencies)
                row = {
                    "queue_depth": len(tq.pending),
                    "executed": tq.executed,
                    "rejected": tq.rejected,
                    "checked_out": tq.checked_out,
                }
                if samples:
                    row["latency_p50_ms"] = 1e3 * _percentile(samples, 50.0)
                    row["latency_p99_ms"] = 1e3 * _percentile(samples, 99.0)
                out[name] = row
            return out

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Drain remaining ready work, then stop the workers.  Idempotent."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        for t in self._workers:
            t.join()

    def __enter__(self) -> "StepScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _percentile(sorted_samples: List[float], pct: float) -> float:
    """Nearest-rank percentile over an ascending-sorted sample list."""
    if not sorted_samples:
        return 0.0
    rank = max(0, min(len(sorted_samples) - 1, int(round(pct / 100.0 * (len(sorted_samples) - 1)))))
    return sorted_samples[rank]
