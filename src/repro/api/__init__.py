"""repro.api — the declarative front door to the framework.

Everything the stack can do — registry codecs, per-layer policy rules,
byte-arena activation storage, out-of-core parameters, kernel backends,
the adaptive error-bound controller, stage profiling — is driven from
one serializable :class:`SessionConfig`:

    from repro.api import SessionConfig, PolicyRule, CodecSpec, StorageSpec, build_session

    cfg = SessionConfig(
        rules=[PolicyRule(match="l0", codec=CodecSpec("lossless")),
               PolicyRule(match="l[24]", error_bound=1e-4)],
        storage=StorageSpec(activations="arena", budget_bytes=8 << 20),
    )
    with build_session(network, cfg) as session:
        session.train(batches(dataset, 32, 100, seed=1))

``cfg.to_json(path)`` / ``SessionConfig.from_json(path)`` round-trip
the whole tree, so a committed JSON file reproduces a run bit-for-bit,
and ``session.capture()`` re-serializes a live session.
:func:`build_session` is the only way to assemble a session.
"""

from repro.api.config import (
    AdaptiveSpec,
    CodecSpec,
    ConfigError,
    DistributedSpec,
    EngineSpec,
    OptimizerSpec,
    PolicyRule,
    ProfilerSpec,
    SessionConfig,
    StorageSpec,
)
from repro.api.session import Session, build_policy_table, build_session

__all__ = [
    "AdaptiveSpec",
    "CodecSpec",
    "ConfigError",
    "DistributedSpec",
    "EngineSpec",
    "OptimizerSpec",
    "PolicyRule",
    "ProfilerSpec",
    "SessionConfig",
    "StorageSpec",
    "Session",
    "build_policy_table",
    "build_session",
]
