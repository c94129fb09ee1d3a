"""The front door: ``build_session(network, config) -> Session``.

One call composes the whole stack — codec registry, per-layer
:class:`~repro.core.policy_table.PolicyTable`,
:class:`~repro.core.arena.ByteArena` activation storage,
:class:`~repro.core.param_store.ParamStore` out-of-core parameters,
the kernel backend, the Eq. 8/9 adaptive controller, and the stage
profiler — from one declarative :class:`~repro.api.config.SessionConfig`,
and hands back a
:class:`Session` that owns every resource behind a single
:meth:`~Session.close`.

    cfg = SessionConfig.from_json("run.json")
    with build_session(network, cfg) as session:
        session.train(batches(dataset, 32, 100, seed=1))
        print(session.tracker.overall_ratio)

``build_session`` is the one way to assemble a session.  Determinism
contract: for the same network (same initial weights), the same config
and the same batch stream, two sessions train bit-identically — also
across a ``to_json`` / ``from_json`` round trip (pinned by
``tests/api``).  A build that fails leaves
nothing behind: the profiler it activated is deactivated and every
store it created is closed; a config the network cannot use (no
compressible layer to compress) is a :class:`~repro.api.config.ConfigError`.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import List, Optional, Tuple

from repro.api.config import CodecSpec, ConfigError, PolicyRule, SessionConfig
from repro.core.policy_table import PolicyTable, ResolvedPolicy, compile_matcher

__all__ = ["Session", "build_session", "build_policy_table"]


def _build_codec(spec: CodecSpec, kernel_backend: str):
    """Build *spec* with *kernel_backend* (the session's
    ``engine.kernel_backend``) routed to its szlike kernels, unless the
    spec's options name a backend of their own.

    :class:`~repro.compression.registry.ChunkedCodec` wrappers are
    unwrapped to their inner codec; codecs without a kernel backend
    (lossless, jpeg) ignore the setting.  An unavailable explicit
    backend (``"numba"`` without numba installed) is a
    :class:`ConfigError` naming ``engine.kernel_backend``.
    """
    codec = spec.build()
    setter = getattr(getattr(codec, "inner", codec), "set_kernel_backend", None)
    if setter is not None and "kernel_backend" not in spec.options:
        try:
            setter(kernel_backend)
        except ValueError as exc:
            raise ConfigError(f"engine.kernel_backend: {exc}") from exc
    return codec


def build_policy_table(
    rules: List[PolicyRule], kernel_backend: str = "auto"
) -> Optional[PolicyTable]:
    """Compile declarative :class:`PolicyRule` specs into a live
    :class:`PolicyTable` (codec instances built once per rule and shared
    by every layer the rule matches).  Returns ``None`` for no rules.

    *kernel_backend* (the session's ``engine.kernel_backend``) applies
    to every rule codec whose options do not name a backend themselves.
    """
    if not rules:
        return None
    compiled: List[Tuple[object, ResolvedPolicy]] = []
    for i, rule in enumerate(rules):
        rule.validate(f"rules[{i}] (match={rule.match!r})")
        compiled.append(
            (
                compile_matcher(rule.match),
                ResolvedPolicy(
                    label=rule.label or f"rule{i}",
                    codec=(
                        _build_codec(rule.codec, kernel_backend)
                        if rule.codec is not None
                        else None
                    ),
                    error_bound=rule.error_bound,
                    adaptive=rule.resolved_adaptive(),
                    initial_rel_eb=rule.initial_rel_eb,
                    eb_min=rule.eb_min,
                    eb_max=rule.eb_max,
                ),
            )
        )
    return PolicyTable(compiled)


class Session:
    """A fully-wired training session: one object, one ``close()``.

    Owns the trainer, the compression machinery (when
    ``compress_activations`` is on), the optional param store, and the
    profiler.  Also a context manager.
    """

    def __init__(self, network, optimizer, trainer, config, compressed=None, param_store=None):
        self.network = network
        self.optimizer = optimizer
        self.trainer = trainer
        #: the declarative config this session was built from
        self.config = config
        #: the underlying :class:`~repro.core.framework.CompressedTraining`
        #: (None when ``compress_activations=False``)
        self.compressed = compressed
        #: the out-of-core :class:`~repro.core.param_store.ParamStore`
        #: (None unless ``storage.params == "arena"``)
        self.param_store = param_store
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
        """Tear everything down exactly once: restore out-of-core
        parameters, deactivate the profiler.  Idempotent — the second
        and later calls are no-ops (guarded here, and the trainer's
        close-hook chain is swap-on-close as a second line of defense)."""
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
        return f"Session({mode}, iter={self.trainer.iteration})"


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
    from repro.core.param_store import ParamStore
    from repro.nn.network import iter_layers
    from repro.nn.trainer import Trainer
    from repro.utils.profiler import StageProfiler

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

    if config.compress_activations and not any(
        layer.compressible for layer in iter_layers(network)
    ):
        raise ConfigError(
            "network has no compressible (conv) layers; set "
            "compress_activations=False to train it uncompressed"
        )

    if optimizer is None:
        optimizer = config.optimizer.build(network.parameters())

    # Everything built below is undone if a later step raises.
    with ExitStack() as undo:
        if config.storage.activations != "arena":
            storage = None
        elif storage is None:
            storage = ByteArena(
                budget_bytes=config.storage.budget_bytes,
                spill_dir=config.storage.spill_dir,
            )
            undo.callback(storage.close)

        param_store = None
        if config.storage.params == "arena":
            param_store = ParamStore(
                budget_bytes=config.storage.param_budget_bytes,
                codec=(
                    config.storage.param_codec.build()
                    if config.storage.param_codec is not None
                    else None
                ),
                spill_dir=config.storage.spill_dir,
            )
            undo.callback(param_store.close)

        trainer = Trainer(network, optimizer)
        if config.profiler.enabled:
            trainer.profiler = profiler = StageProfiler().activate()
            undo.callback(profiler.deactivate)
            trainer.close_hooks.append(lambda tr: profiler.deactivate())

        if not config.compress_activations:
            if param_store is not None:
                param_store.attach(network, optimizer)
                trainer.close_hooks.append(lambda tr: param_store.close())
            session = Session(network, optimizer, trainer, config, param_store=param_store)
        else:
            compressed = _build_compressed(
                network, optimizer, config, storage, param_store
            ).attach(trainer)
            session = Session(
                network, optimizer, trainer, config,
                compressed=compressed, param_store=param_store,
            )
        # last hook: the param store decodes through its codec on close
        codecs = session_codecs(session)
        trainer.close_hooks.append(lambda tr: close_codecs(codecs))
        undo.pop_all()
    return session


def _build_compressed(network, optimizer, config: SessionConfig, storage, param_store):
    """The :class:`~repro.core.framework.CompressedTraining` half of
    :func:`build_session`: codecs, policy table, controller."""
    from repro.core.framework import CompressedTraining

    table = build_policy_table(config.rules, config.engine.kernel_backend)
    return CompressedTraining(
        network,
        optimizer,
        compressor=_build_codec(config.codec, config.engine.kernel_backend),
        config=config.adaptive.to_adaptive_config(),
        storage=storage,
        param_storage=param_store,
        policy_table=table,
        adaptive=config.adaptive.enabled,
    )


def session_codecs(session: Session) -> list:
    """Every codec *session* built: the session codec, the policy-rule
    codecs and the parameter codec."""
    table = session.policy_table
    codecs = [pol.codec for pol in table.rules] if table is not None else []
    if session.compressed is not None:
        codecs.append(session.compressed.ctx.compressor)
    if session.param_store is not None:
        codecs.append(session.param_store.codec)
    return [codec for codec in codecs if codec is not None]


def close_codecs(codecs) -> None:
    """Stop the worker threads of every codec that has them
    (:class:`~repro.compression.registry.ChunkedCodec`)."""
    for codec in codecs:
        if hasattr(codec, "close"):
            codec.close()
