"""Multi-tenant session server: many Sessions over shared infrastructure.

One :class:`SessionServer` hosts N concurrent tenants, each a full
:func:`~repro.api.session.build_session` session built from its own
JSON :class:`~repro.api.config.SessionConfig` — but instead of every
session bringing its own arena, codebook cache, and thread pool, the
server shares three things across the fleet:

- **One memory budget**: every arena-backed tenant's activation arena is
  a member of one :class:`~repro.core.arena.ArenaPool`, so the *pool*
  budget (not the sum of tenant budgets) bounds resident bytes, and a
  tenant bursting past its fair share spills before it starves the
  others.
- **One codebook table**: every tenant codebook cache becomes a
  :class:`~repro.compression.szlike.codebook_cache.SharedCodebookCache`
  over the server's one in-memory
  :class:`~repro.compression.szlike.codebook_cache.CodebookTable`, so
  tenant B adopts the canonical Huffman books tenant A already built
  instead of rebuilding them.  Adoption is lossless — per-tenant results
  stay bit-identical to standalone runs.
- **One scheduler**: step requests from all tenants drain through a
  shared :class:`~repro.server.scheduler.StepScheduler` (per-tenant
  FIFO, round-robin across tenants, optional request batching), with
  per-tenant queue-depth backpressure.

Admission control keeps the fleet honest: a tenant whose declared arena
budget would push ``sum(declared) > pool_budget * overcommit`` is either
rejected (:class:`AdmissionError`) or queued until an eviction frees
budget, per :class:`~repro.api.config.ServerSpec.admission`.

Determinism contract: a tenant admitted to a server trains bit-identically
to the same ``(model, seed, session config)`` run standalone through
``build_session`` — the pool only moves bytes between RAM and disk, the
shared table only changes *compressed* bytes (never reconstructions),
and the scheduler runs each tenant's steps serially in FIFO order.
:func:`run_standalone` is the reference implementation the equivalence
tests pin this against.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.api.config import (
    ConfigError,
    ServerSpec,
    SessionConfig,
    _load_json_source,
    _Section,
    knob,
)
from repro.api.session import Session, build_session, session_codecs
from repro.compression.szlike import CodebookTable, SharedCodebookCache, SZCompressor
from repro.core.arena import ArenaPool
from repro.models.registry import build_scaled_model
from repro.nn.data import SyntheticImageDataset, batches
from repro.server.scheduler import StepScheduler, Ticket
from repro.utils.profiler import merge_snapshots

__all__ = [
    "AdmissionError",
    "ServerError",
    "SessionServer",
    "Tenant",
    "TenantSpec",
    "load_server_config",
    "run_standalone",
]

#: effectively-infinite batch stream length: tenants are long-lived and
#: consume batches lazily, one per executed step
_STREAM_LEN = 1 << 40


class ServerError(RuntimeError):
    """Base class for server-side failures."""


class AdmissionError(ServerError):
    """Tenant rejected by admission control (budget or tenant cap)."""


@dataclass
class TenantSpec(_Section):
    """One tenant: a model + synthetic workload + session config.

    The workload fields pin the tenant's data stream and initial weights
    so a run is reproducible from the spec alone: the model is built
    with ``rng=default_rng(seed)`` and batches come from a
    :class:`~repro.nn.data.SyntheticImageDataset` sampled with the same
    seed — exactly what :func:`run_standalone` replays outside the
    server for the bit-identity contract.
    """

    _name = "tenant"

    name: str = ""
    kind: str = knob("train", choices=("train", "infer"))
    model: str = "alexnet"
    num_classes: int = knob(8, ge=1)
    image_size: int = knob(16, ge=1)
    batch_size: int = knob(8, ge=1)
    signal: float = 1.5
    seed: int = 0
    session: SessionConfig = field(default_factory=SessionConfig)

    def _check(self, where: str) -> None:
        if not self.name:
            raise ConfigError(f"{where}: name must be a non-empty string")
        if self.session.distributed.world_size > 1:
            raise ConfigError(
                f"{where}: distributed sessions cannot be hosted as server "
                f"tenants (world_size must be 1)"
            )

    @property
    def declared_bytes(self) -> int:
        """Arena budget this tenant asks the pool for (0 = no arena)."""
        if self.session.storage.activations == "arena":
            return int(self.session.storage.budget_bytes)
        return 0


@dataclass
class _Fleet(_Section):
    """A fleet file: ``{"server": {...}, "tenants": [...]}``."""

    _name = "fleet config"

    server: ServerSpec = field(default_factory=ServerSpec)
    tenants: List[TenantSpec] = field(default_factory=list)

    @classmethod
    def _prefix(cls, where: str) -> str:
        return ""  # errors name "server", "tenants[0]"

    def _check(self, where: str) -> None:
        seen = set()
        for i, t in enumerate(self.tenants):
            if t.name in seen:
                raise ConfigError(f"tenants[{i}]: duplicate tenant name {t.name!r}")
            seen.add(t.name)


def load_server_config(
    source: Union[str, "os.PathLike"],
) -> Tuple[ServerSpec, List[TenantSpec]]:
    """Parse a fleet file — ``{"server": {...}, "tenants": [...]}`` —
    from a JSON string or path.  Both keys are optional (an empty object
    is a default server with no tenants); tenant names must be unique."""
    fleet = _Fleet.from_dict(_load_json_source(source))
    return fleet.server, fleet.tenants


def _build_workload(spec: TenantSpec):
    """(network, batch stream) for *spec* — the shared recipe the server
    and :func:`run_standalone` both use, so their runs are comparable."""
    network = build_scaled_model(
        spec.model,
        num_classes=spec.num_classes,
        image_size=spec.image_size,
        batch=spec.batch_size,
        rng=np.random.default_rng(spec.seed),
    )
    dataset = SyntheticImageDataset(
        num_classes=spec.num_classes,
        image_size=spec.image_size,
        signal=spec.signal,
        seed=1234 + spec.seed,
    )
    stream = batches(dataset, spec.batch_size, _STREAM_LEN, seed=spec.seed)
    return network, stream


def _fresh_config(spec: TenantSpec) -> SessionConfig:
    """An independent copy of the tenant's session config (through the
    JSON wire format, so hosted and standalone runs can never alias
    mutable spec state)."""
    return SessionConfig.from_json(spec.session.to_json())


def run_standalone(spec: TenantSpec, steps: int) -> List[dict]:
    """Run *spec*'s first *steps* steps outside any server — the
    reference trajectory for the bit-identity contract."""
    network, stream = _build_workload(spec)
    with build_session(network, _fresh_config(spec)) as session:
        return [_one_step(spec, session, stream) for _ in range(steps)]


def _one_step(spec: TenantSpec, session: Session, stream: Iterator) -> dict:
    """Execute one workload step: a training iteration for ``train``
    tenants, a batch-accuracy evaluation for ``infer`` tenants."""
    images, labels = next(stream)
    if spec.kind == "train":
        rec = session.train_step(images, labels)
        return {
            "iteration": rec.iteration,
            "loss": rec.loss,
            "accuracy": rec.accuracy,
        }
    acc = session.evaluate(images, labels, batch_size=images.shape[0])
    return {"accuracy": acc}


class Tenant:
    """A hosted tenant: the spec, its live session, and its counters.

    ``state`` is ``"queued"`` (admitted under ``admission='queue'`` but
    waiting for budget) or ``"running"``.  Queued tenants have no
    session yet; :meth:`SessionServer.submit` on one is an error."""

    def __init__(self, spec: TenantSpec):
        self.spec = spec
        self.state = "queued"
        self.session: Optional[Session] = None
        self.arena = None
        self._stream: Optional[Iterator] = None
        self.steps_done = 0
        self.last_result: Optional[dict] = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def declared_bytes(self) -> int:
        return self.spec.declared_bytes

    def _step(self) -> dict:
        """One workload step (runs on a scheduler worker; the scheduler
        guarantees per-tenant serialism so no lock is needed here)."""
        result = _one_step(self.spec, self.session, self._stream)
        self.steps_done += 1
        self.last_result = result
        return result

    def summary(self) -> dict:
        out = {
            "kind": self.spec.kind,
            "model": self.spec.model,
            "state": self.state,
            "declared_bytes": self.declared_bytes,
            "steps_done": self.steps_done,
        }
        if self.last_result is not None:
            out["last_result"] = dict(self.last_result)
        return out


class SessionServer:
    """Host for many concurrent Sessions over shared infrastructure.

        spec, tenants = load_server_config("fleet.json")
        with SessionServer(spec) as server:
            for t in tenants:
                server.admit(t)
            results = server.run(steps=20)
            print(server.stats()["pool"])

    Thread-safe: admit/evict/submit/stats may be called from any thread
    (the HTTP endpoint calls them from handler threads).  Lock order is
    strictly server -> (scheduler | pool); neither ever calls back into
    the server.
    """

    def __init__(self, spec: Optional[ServerSpec] = None):
        self.spec = spec if spec is not None else ServerSpec()
        self.spec.validate()
        self._lock = threading.RLock()
        self._tenants: Dict[str, Tenant] = {}
        #: admission="queue" tenants waiting for budget, FIFO
        self._waiting: deque = deque()
        self._closed = False
        self.pool = ArenaPool(
            budget_bytes=self.spec.pool_budget_bytes, spill_dir=self.spec.spill_dir
        )
        self.scheduler = StepScheduler(
            workers=self.spec.workers,
            max_batch_requests=self.spec.max_batch_requests,
            queue_depth=self.spec.queue_depth,
        )
        #: the codebooks every tenant publishes to and adopts from
        self.codebooks = CodebookTable()
        #: admission ledger: counters + a bounded decision log
        self.admitted_total = 0
        self.rejected_total = 0
        self.queued_total = 0
        self.promoted_total = 0
        self.evicted_total = 0
        self._decisions: deque = deque(maxlen=256)

    # -- admission -----------------------------------------------------------
    def admit(self, spec: Union[TenantSpec, Dict[str, Any]]) -> Tenant:
        """Admit one tenant.  Returns its handle, ``state`` telling you
        whether it is running or parked; raises :class:`AdmissionError`
        under ``admission='reject'`` when the fleet is full."""
        if isinstance(spec, dict):
            spec = TenantSpec.from_dict(spec)
        spec.validate()
        with self._lock:
            if self._closed:
                raise ServerError("server is closed")
            if spec.name in self._tenants:
                raise ServerError(f"tenant {spec.name!r} already admitted")
            tenant = Tenant(spec)
            reason = self._admission_blocker(tenant)
            if reason is None:
                self._start(tenant)
                self._decide(tenant, "admitted", None)
            elif self.spec.admission == "queue":
                self._tenants[spec.name] = tenant
                self._waiting.append(tenant)
                self.queued_total += 1
                self._decide(tenant, "queued", reason)
            else:
                self.rejected_total += 1
                self._decide(tenant, "rejected", reason)
                raise AdmissionError(f"tenant {spec.name!r} rejected: {reason}")
            return tenant

    def _admission_blocker(self, tenant: Tenant) -> Optional[str]:
        """Why *tenant* cannot start now (None = admissible).  Callers
        hold the lock."""
        running = [t for t in self._tenants.values() if t.state == "running"]
        if len(running) >= self.spec.max_tenants:
            return f"{len(running)} tenants running (max_tenants={self.spec.max_tenants})"
        declared = sum(t.declared_bytes for t in running) + tenant.declared_bytes
        limit = self.spec.pool_budget_bytes * self.spec.overcommit
        if declared > limit:
            return (
                f"declared budgets would reach {declared} bytes, over the "
                f"admission limit {int(limit)} "
                f"(pool_budget_bytes={self.spec.pool_budget_bytes} "
                f"x overcommit={self.spec.overcommit})"
            )
        return None

    def _start(self, tenant: Tenant) -> None:
        """Build the tenant's session over the shared infrastructure and
        register it with the scheduler.  Callers hold the lock."""
        spec = tenant.spec
        network, stream = _build_workload(spec)
        arena = None
        if spec.declared_bytes > 0:
            arena = self.pool.create_arena(spec.name, budget_bytes=spec.declared_bytes)
        try:
            session = build_session(network, _fresh_config(spec), storage=arena)
        except BaseException:
            if arena is not None:
                arena.close()
            raise
        tenant.session = session
        tenant.arena = arena
        tenant._stream = stream
        tenant.state = "running"
        if self.spec.shared_codebook_cache:
            self._share_codebooks(spec.name, session)
        self._tenants[spec.name] = tenant
        self.scheduler.register(spec.name, profiler=session.profiler)
        self.admitted_total += 1

    def _share_codebooks(self, name: str, session: Session) -> None:
        """Re-point every szlike codec's codebook cache in *session* at
        the server's table, publishing as *name*."""
        for codec in session_codecs(session):
            if isinstance(codec, SZCompressor):
                codec.codebook_cache = SharedCodebookCache(self.codebooks, owner=name)

    def _decide(self, tenant: Tenant, decision: str, reason: Optional[str]) -> None:
        entry = {
            "tenant": tenant.name,
            "decision": decision,
            "declared_bytes": tenant.declared_bytes,
        }
        if reason:
            entry["reason"] = reason
        self._decisions.append(entry)

    # -- eviction / promotion ------------------------------------------------
    def evict(self, name: str) -> None:
        """Tear one tenant down: cancel queued requests, wait out its
        in-flight batch, close its session and arena (releasing pool
        budget), then promote waiting tenants that now fit."""
        with self._lock:
            tenant = self._tenants.pop(name, None)
            if tenant is None:
                raise KeyError(f"unknown tenant {name!r}")
            if tenant.state == "queued":
                try:
                    self._waiting.remove(tenant)
                except ValueError:
                    pass
                self.evicted_total += 1
                self._decide(tenant, "evicted", "was queued")
                return
            # unregister blocks until the tenant's in-flight requests
            # finish; scheduler workers never take the server lock, so
            # holding it here cannot deadlock.
            self.scheduler.unregister(name)
            tenant.session.close()
            if tenant.arena is not None:
                tenant.arena.close()
            tenant.state = "evicted"
            self.evicted_total += 1
            self._decide(tenant, "evicted", None)
            self._promote()

    def _promote(self) -> None:
        """Start waiting tenants that fit now.  Callers hold the lock."""
        while self._waiting and not self._closed:
            tenant = self._waiting[0]
            if self._admission_blocker(tenant) is not None:
                return
            self._waiting.popleft()
            # _start re-inserts under the same name with state running
            del self._tenants[tenant.name]
            self._start(tenant)
            self.promoted_total += 1
            self._decide(tenant, "promoted", None)

    # -- work ----------------------------------------------------------------
    def submit(self, name: str, steps: int = 1) -> List[Ticket]:
        """Enqueue *steps* workload steps for tenant *name*; returns one
        ticket per step (wait on them for results).  Raises
        :class:`~repro.server.scheduler.QueueFullError` on backpressure."""
        if steps < 1:
            raise ValueError("steps must be >= 1")
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                raise KeyError(f"unknown tenant {name!r}")
            if tenant.state != "running":
                raise ServerError(f"tenant {name!r} is {tenant.state}, not running")
            return [self.scheduler.submit(name, tenant._step) for _ in range(steps)]

    def run(
        self, steps: int, names: Optional[List[str]] = None
    ) -> Dict[str, List[dict]]:
        """Submit *steps* steps to every (running) tenant, interleaved
        round-robin at step granularity, and wait for all results."""
        with self._lock:
            if names is None:
                names = [n for n, t in sorted(self._tenants.items()) if t.state == "running"]
        tickets: Dict[str, List[Ticket]] = {n: [] for n in names}
        for _ in range(steps):
            for n in names:
                tickets[n].extend(self.submit(n, 1))
        return {n: [t.wait() for t in ts] for n, ts in tickets.items()}

    # -- metrics -------------------------------------------------------------
    def stats(self) -> dict:
        """The server's full metrics surface: admission ledger, pool
        accounting, scheduler queues/latencies, and per-tenant memory,
        profiler, and codebook-sharing breakdowns (plus the cross-tenant
        merged profiler view)."""
        with self._lock:
            scheduler = self.scheduler.stats()
            per_tenant: Dict[str, dict] = {}
            snapshots = []
            for name in sorted(self._tenants):
                tenant = self._tenants[name]
                row = tenant.summary()
                row.update(scheduler.get(name, {}))
                session = tenant.session
                if session is not None:
                    if session.tracker is not None:
                        row["memory"] = [asdict(r) for r in session.tracker.summary()]
                    if session.profiler is not None:
                        snap = session.profiler.snapshot()
                        row["profiler"] = snap
                        snapshots.append(snap)
                    cache_stats = self._cache_stats(session)
                    if cache_stats is not None:
                        row["codebook_cache"] = cache_stats
                per_tenant[name] = row
            return {
                "tenants": per_tenant,
                "pool": self.pool.stats(),
                "profiler_merged": merge_snapshots(snapshots),
                "admission": {
                    "admitted": self.admitted_total,
                    "rejected": self.rejected_total,
                    "queued": self.queued_total,
                    "promoted": self.promoted_total,
                    "evicted": self.evicted_total,
                    "waiting": [t.name for t in self._waiting],
                    "decisions": list(self._decisions),
                },
                "server": self.spec.to_dict(),
            }

    @staticmethod
    def _cache_stats(session: Session) -> Optional[dict]:
        codec = session.compressed.ctx.compressor if session.compressed else None
        return codec.codebook_cache.stats() if isinstance(codec, SZCompressor) else None

    def capture(self) -> ServerSpec:
        """Re-serialize the live server's spec (round-trip identity)."""
        return ServerSpec.from_dict(self.spec.to_dict())

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Evict every tenant, stop the scheduler and close the pool.
        Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            names = list(self._tenants)
        for name in names:
            self.evict(name)
        self.scheduler.close()
        self.pool.close()

    def __enter__(self) -> "SessionServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        with self._lock:
            running = sum(1 for t in self._tenants.values() if t.state == "running")
            return (
                f"SessionServer(tenants={running} running/"
                f"{len(self._waiting)} queued, "
                f"pool_budget={self.spec.pool_budget_bytes})"
            )
