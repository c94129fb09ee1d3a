"""The front door: ``build_session(network, config) -> Session``.

One call composes the whole stack — the activation codec,
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
``tests/api``).  Everything the build creates (the activation arena,
the param store, the active profiler) is registered on one
:class:`~contextlib.ExitStack`: a build that fails unwinds it and leaves
nothing behind, and a built session owns it, so
:meth:`Session.close` undoes it in reverse order.  A config the network
cannot use (activation compression on a network with no compressible
layer but the one fed the data batch) is a
:class:`~repro.api.config.ConfigError`.

Every compressible layer packs with the session's one codec under the
``adaptive`` section: the controller's per-layer bounds when it is
enabled, the codec's own ``error_bound`` when it is not.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Optional

from repro.api.config import ConfigError, SessionConfig

__all__ = ["Session", "build_session"]


class Session:
    """A fully-wired training session: one object, one ``close()``.

    Holds the trainer, the compression machinery (when
    ``compress_activations`` is on) and the optional param store, and
    owns *owned*: the :class:`~contextlib.ExitStack` of everything
    ``build_session`` created.  Also a context manager.
    """

    def __init__(
        self, network, optimizer, trainer, config, owned: ExitStack,
        compressed=None, param_store=None,
    ):
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
        self._owned = owned

    # -- config round-trip -------------------------------------------------
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
    def error_bounds(self):
        return self.compressed.error_bounds if self.compressed is not None else {}

    @property
    def compression_ratios(self):
        return self.compressed.compression_ratios if self.compressed is not None else {}

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
        stats["selected_backend"] = getattr(codec, "kernel_backend_selected", None)
        return stats

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Undo everything ``build_session`` created, in reverse order:
        deactivate the profiler, restore out-of-core parameters to
        residency, close the activation arena (not one the caller passed
        in).  Idempotent: the stack is empty after the first call."""
        self._owned.close()

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
    from repro.core.framework import CompressedTraining
    from repro.core.memory_tracker import MemoryTracker
    from repro.core.param_store import ParamStore
    from repro.nn.trainer import Trainer, packing_convs
    from repro.utils.profiler import StageProfiler

    if not isinstance(config, SessionConfig):
        raise ConfigError(
            f"build_session expects a SessionConfig "
            f"(got {type(config).__name__}); parse files with "
            f"SessionConfig.from_json(path)"
        )
    config.validate()

    if config.compress_activations and not packing_convs(network):
        raise ConfigError(
            "network has no compressible (conv) layer but the one fed the "
            "data batch, which is saved by reference; set "
            "compress_activations=False to train it uncompressed"
        )

    if config.distributed.world_size > 1:
        # N rank processes behind the same Session surface; the import
        # is deferred so single-process sessions never pay for it.
        from repro.distributed.session import build_distributed_session

        return build_distributed_session(network, config, optimizer=optimizer)

    if optimizer is None:
        optimizer = config.optimizer.build(network.parameters())

    # Everything built below is undone if a later step raises, and owned
    # by the session (closed by Session.close) once the build succeeds.
    with ExitStack() as owned:
        if config.storage.activations != "arena":
            storage = None
        elif storage is None:
            storage = ByteArena(
                budget_bytes=config.storage.budget_bytes,
                spill_dir=config.storage.spill_dir,
            )
            owned.callback(storage.close)

        # one set of books for activation and persistent parameter bytes
        tracker = MemoryTracker()
        param_store = None
        if config.storage.params == "arena":
            param_store = ParamStore(
                budget_bytes=config.storage.param_budget_bytes,
                codec=(
                    config.storage.param_codec.build()
                    if config.storage.param_codec is not None
                    else None
                ),
                tracker=tracker,
                spill_dir=config.storage.spill_dir,
            )
            owned.callback(param_store.close)

        trainer = Trainer(network, optimizer)
        if config.profiler.enabled:
            trainer.profiler = profiler = StageProfiler().activate()
            owned.callback(profiler.deactivate)

        compressed = None
        if config.compress_activations:
            compressed = CompressedTraining(
                network,
                optimizer,
                compressor=config.codec.build(config.engine.kernel_backend),
                config=config.adaptive,
                tracker=tracker,
                storage=storage,
            ).attach(trainer)
        if param_store is not None:
            # After the conv taps, so the store's bind wrapper is outermost:
            # weights are materialized before a tapped backward runs.
            param_store.attach(network, optimizer)
        return Session(
            network, optimizer, trainer, config, owned.pop_all(),
            compressed=compressed, param_store=param_store,
        )


def session_codecs(session: Session) -> list:
    """Every codec *session* built: the session codec and the parameter
    codec."""
    codecs = []
    if session.compressed is not None:
        codecs.append(session.compressed.ctx.compressor)
    if session.param_store is not None:
        codecs.append(session.param_store.codec)
    return [codec for codec in codecs if codec is not None]
