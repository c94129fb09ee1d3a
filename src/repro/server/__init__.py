"""Multi-tenant session server (see :mod:`repro.server.server`).

Host many concurrent :func:`~repro.api.session.build_session` sessions
over shared infrastructure: one :class:`~repro.core.arena.ArenaPool`
memory budget, one shared codebook table, one step scheduler — with
admission control, per-tenant backpressure, and a metrics surface
(:meth:`SessionServer.stats` / the :func:`serve` HTTP endpoint).
"""

from repro.server.http import Endpoint, serve
from repro.server.scheduler import QueueFullError, StepScheduler, Ticket
from repro.server.server import (
    AdmissionError,
    ServerError,
    SessionServer,
    Tenant,
    TenantSpec,
    load_server_config,
    run_standalone,
)

__all__ = [
    "AdmissionError",
    "Endpoint",
    "QueueFullError",
    "ServerError",
    "SessionServer",
    "StepScheduler",
    "Tenant",
    "TenantSpec",
    "Ticket",
    "load_server_config",
    "run_standalone",
    "serve",
]
