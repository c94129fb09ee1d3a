"""The front door: ``build_session(network, config) -> Session``.

One call composes the whole stack the previous PRs grew — codec
registry, per-layer :class:`~repro.core.policy_table.PolicyTable`,
:class:`~repro.core.arena.ByteArena` activation storage,
:class:`~repro.core.param_store.ParamStore` out-of-core parameters,
sync/async :mod:`~repro.core.engine`, the Eq. 8/9 adaptive controller,
and the stage profiler — from one declarative
:class:`~repro.api.config.SessionConfig`, and hands back a
:class:`Session` that owns every resource behind a single
:meth:`~Session.close`.

    cfg = SessionConfig.from_json("run.json")
    with build_session(network, cfg) as session:
        session.train(batches(dataset, 32, 100, seed=1))
        print(session.tracker.overall_ratio)

Determinism contract: for the same network (same initial weights) and
the same batch stream, a session built from a config is bit-identical
to the equivalent hand-wired ``Trainer`` + ``CompressedTraining`` pair
— the shim-equivalence tests in ``tests/api`` pin this.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.api.config import ConfigError, PolicyRule, SessionConfig
from repro.core.policy_table import PolicyTable, ResolvedPolicy, compile_matcher

__all__ = ["Session", "build_session", "build_policy_table"]


def _apply_kernel_backend(codec, backend: str, where: str) -> None:
    """Route *backend* to the szlike kernels inside *codec*.

    :class:`~repro.compression.registry.ChunkedCodec` wrappers are
    unwrapped to their inner codec; codecs without a kernel backend
    (lossless, jpeg) silently ignore the setting.  An unavailable
    explicit backend (``"numba"`` without numba installed) surfaces as
    a :class:`ConfigError` naming the offending config location.
    """
    inner = getattr(codec, "inner", None)
    if inner is not None:
        codec = inner
    setter = getattr(codec, "set_kernel_backend", None)
    if setter is None:
        return
    try:
        setter(backend)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def build_policy_table(rules: List[PolicyRule]) -> Optional[PolicyTable]:
    """Compile declarative :class:`PolicyRule` specs into a live
    :class:`PolicyTable` (codec instances built once per rule and shared
    by every layer the rule matches).  Returns ``None`` for no rules.

    The source rules are kept on the table (``table.source_rules``) so a
    session built from it can reproduce its declarative config.
    """
    if not rules:
        return None
    compiled: List[Tuple[object, ResolvedPolicy]] = []
    for i, rule in enumerate(rules):
        rule.validate(f"rules[{i}] (match={rule.match!r})")
        compiled.append(
            (
                compile_matcher(rule.match, rule.match_kind),
                ResolvedPolicy(
                    label=rule.label or f"rule{i}",
                    codec=rule.codec.build() if rule.codec is not None else None,
                    error_bound=rule.error_bound,
                    adaptive=rule.resolved_adaptive(),
                    storage=rule.storage,
                    initial_rel_eb=rule.initial_rel_eb,
                    eb_min=rule.eb_min,
                    eb_max=rule.eb_max,
                    arena_budget=rule.arena_budget,
                ),
            )
        )
    table = PolicyTable(compiled)
    table.source_rules = [r for r in rules]
    return table


class Session:
    """A fully-wired training session: one object, one ``close()``.

    Owns the trainer, the compression machinery (when
    ``compress_activations`` is on), the optional param store, engine,
    and profiler.  Also a context manager.
    """

    def __init__(self, network, optimizer, trainer, config, compressed=None):
        self.network = network
        self.optimizer = optimizer
        self.trainer = trainer
        #: the declarative config this session was built from
        self.config = config
        #: the underlying :class:`~repro.core.framework.CompressedTraining`
        #: (None when ``compress_activations=False``)
        self.compressed = compressed
        self._closed = False

    # -- config round-trip -------------------------------------------------
    @classmethod
    def from_json(cls, path, network, *, optimizer=None) -> "Session":
        """Build a session for *network* straight from a config file:
        ``Session.from_json("run.json", net)`` is
        ``build_session(net, SessionConfig.from_json("run.json"))``."""
        return build_session(
            network, SessionConfig.from_json(path), optimizer=optimizer
        )

    def capture(self) -> SessionConfig:
        """Re-serialize this live session to the :class:`SessionConfig`
        that builds it: ``build_session(net, session.capture())`` is the
        same run (including distributed knobs).  The returned config is
        an independent copy taken through the JSON wire format, so
        ``capture().to_dict() == config.to_dict()`` is an identity."""
        return SessionConfig.from_json(self.config.to_json())

    # -- delegation --------------------------------------------------------
    def train(self, batch_iter, max_iterations: Optional[int] = None):
        return self.trainer.train(batch_iter, max_iterations)

    def train_step(self, images, labels):
        return self.trainer.train_step(images, labels)

    def evaluate(self, images, labels, batch_size: int = 64) -> float:
        return self.trainer.evaluate(images, labels, batch_size)

    @property
    def history(self):
        return self.trainer.history

    @property
    def profiler(self):
        return self.trainer.profiler

    @property
    def tracker(self):
        return self.compressed.tracker if self.compressed is not None else None

    @property
    def param_store(self):
        if self.compressed is not None and self.compressed.param_store is not None:
            return self.compressed.param_store
        # a distributed coordinator has no resident trainer: its ranks own the stores
        return self.trainer.param_store if self.trainer is not None else None

    @property
    def engine(self):
        return self.compressed.engine if self.compressed is not None else None

    @property
    def policy_table(self):
        return self.compressed.ctx.policy_table if self.compressed is not None else None

    @property
    def error_bounds(self):
        return self.compressed.error_bounds if self.compressed is not None else {}

    @property
    def compression_ratios(self):
        return self.compressed.compression_ratios if self.compressed is not None else {}

    @property
    def sanitizer_report(self) -> dict:
        """Process-wide sanitizer counters (see :mod:`repro.core.sanitizer`)."""
        from repro.core import sanitizer

        return sanitizer.report()

    @property
    def kernel_stats(self) -> dict:
        """Process-wide kernel-backend counters (probe outcome, auto
        fallbacks, runtime fallbacks — see :mod:`repro.kernels`) plus
        ``selected_backend``: the backend serving this session's codec
        (``None`` for codecs without kernel backends)."""
        from repro.kernels import kernel_stats

        stats = dict(kernel_stats())
        codec = (
            getattr(self.compressed.ctx, "compressor", None)
            if self.compressed is not None
            else None
        )
        codec = getattr(codec, "inner", codec)
        stats["selected_backend"] = getattr(codec, "kernel_backend_selected", None)
        return stats

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Tear everything down exactly once: flush in-flight packs,
        stop engine workers, restore out-of-core parameters, deactivate
        the profiler.  Idempotent — the second and later calls are
        no-ops (guarded here, and the trainer's close-hook chain is
        swap-on-close as a second line of defense)."""
        if self._closed:
            return
        self._closed = True
        self.trainer.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        mode = "compressed" if self.compressed is not None else "plain"
        return f"Session({mode}, engine={self.config.engine.kind!r}, iter={self.trainer.iteration})"


def build_session(
    network, config: SessionConfig, *, optimizer=None, storage=None
) -> Session:
    """Build a live :class:`Session` for *network* from *config*.

    Parameters
    ----------
    network:
        Any :class:`~repro.nn.layers.base.Layer` tree (its compressible
        conv layers get the saved-tensor treatment).
    config:
        A validated :class:`SessionConfig` (``validate()`` is called
        again here; errors name the offending section).
    optimizer:
        Optional pre-built optimizer; by default one is constructed from
        ``config.optimizer`` over ``network.parameters()``.
    storage:
        Optional pre-built activation :class:`~repro.core.arena.ByteArena`
        used instead of constructing one from ``config.storage`` — the
        injection point the multi-tenant server uses to hand every
        tenant a member arena of one shared
        :class:`~repro.core.arena.ArenaPool`.  Only honored when
        ``config.storage.activations == "arena"``; the caller keeps
        ownership (the session does not close it).
    """
    from repro.core.arena import ByteArena
    from repro.core.framework import CompressedTraining
    from repro.core.param_store import ParamStore
    from repro.nn.trainer import Trainer
    from repro.utils.deprecation import building_session

    if not isinstance(config, SessionConfig):
        raise ConfigError(
            f"build_session expects a SessionConfig "
            f"(got {type(config).__name__}); parse files with "
            f"SessionConfig.from_json(path)"
        )
    config.validate()

    if config.distributed.world_size > 1:
        # N rank processes behind the same Session surface; the import
        # is deferred so single-process sessions never pay for it.
        from repro.distributed.session import build_distributed_session

        return build_distributed_session(network, config, optimizer=optimizer)

    if config.sanitizer.enabled:
        # Turn the sanitizer on BEFORE constructing anything: arenas,
        # scratch pools, codebook caches, and engines instrument
        # themselves at construction time.  Process-wide and sticky
        # (see SanitizerSpec) — the same switch REPRO_SANITIZE=1 flips.
        from repro.core import sanitizer

        sanitizer.enable(
            poison=config.sanitizer.poison,
            lock_order=config.sanitizer.lock_order,
            trap_double_release=config.sanitizer.trap_double_release,
        )

    if optimizer is None:
        optimizer = config.optimizer.build(network.parameters())

    if config.storage.activations != "arena":
        storage = None
    elif storage is None:
        storage = ByteArena(
            budget_bytes=config.storage.budget_bytes,
            spill_dir=config.storage.spill_dir,
        )

    param_storage = None
    if config.storage.params == "arena":
        param_storage = ParamStore(
            budget_bytes=config.storage.param_budget_bytes,
            codec=(
                config.storage.param_codec.build()
                if config.storage.param_codec is not None
                else None
            ),
            dirty_tracking=config.storage.param_dirty_tracking,
            spill_dir=config.storage.spill_dir,
            bind_window_bytes=config.engine.bind_window_bytes,
        )

    profiler = True if config.profiler.enabled else None

    if not config.compress_activations:
        with building_session():
            trainer = Trainer(
                network, optimizer, param_store=param_storage, profiler=profiler
            )
        return Session(network, optimizer, trainer, config)

    table = build_policy_table(config.rules)
    if storage is not None and table is not None:
        for pol in table.rules:
            if pol.arena_budget is not None:
                storage.set_group_budget(pol.label, pol.arena_budget)

    compressor = config.codec.build()
    engine_backend = config.engine.kernel_backend
    if "kernel_backend" not in config.codec.options:
        # The engine-level default applies unless the codec spec pins
        # its own backend explicitly.
        _apply_kernel_backend(compressor, engine_backend, "engine.kernel_backend")
    if table is not None:
        for rule, pol in zip(table.source_rules, table.rules):
            backend = rule.kernel_backend
            if backend is None and pol.codec is not None:
                opts = rule.codec.options if rule.codec is not None else {}
                if "kernel_backend" not in opts:
                    backend = engine_backend
            if backend is None:
                continue
            if pol.codec is None:
                # A per-layer backend override without a per-rule codec:
                # the rule gets its own clone of the session codec so the
                # override doesn't leak to unmatched layers.
                pol.codec = config.codec.build()
            _apply_kernel_backend(
                pol.codec, backend, f"rule (match={rule.match!r}).kernel_backend"
            )
    if config.engine.shared_codebook_cache:
        from repro.compression.registry import ensure_shared_codebook_cache

        ensure_shared_codebook_cache(compressor)
        if table is not None:
            for pol in table.rules:
                if pol.codec is not None:
                    ensure_shared_codebook_cache(pol.codec)

    with building_session():
        trainer = Trainer(network, optimizer, profiler=profiler)
        compressed = CompressedTraining(
            network,
            optimizer,
            compressor=compressor,
            config=config.adaptive.to_adaptive_config(),
            storage=storage,
            param_storage=param_storage,
            engine=config.engine.build(),
            policy_table=table,
            adaptive=config.adaptive.enabled,
        ).attach(trainer)
    return Session(network, optimizer, trainer, config, compressed=compressed)
