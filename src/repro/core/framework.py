"""The memory-efficient training framework (Figure 7 wiring).

:class:`CompressedTraining` glues the pieces together exactly as the
paper's Figure 7 describes, per convolutional layer per iteration:

1. **Parameter collection** — backward taps record each conv layer's
   loss magnitude L_bar; the compressing context records activation
   sparsity R at pack time; the optimizer exposes momentum.  Collection
   runs every W iterations (plus a warm-up).
2. **Gradient assessment** — Eq. 8 turns momentum into a sigma budget.
3. **Activation assessment** — Eq. 9 turns the budget into a per-layer
   absolute error bound.
4. **Adaptive compression** — the saved-tensor context compresses each
   conv activation with its layer's bound on the forward pass and
   decompresses on backward (with the zero-preserving filter).

Each step's saved-tensor work runs inline on the training thread, in
the order the paper's Figure 7 draws it:

* **Pack** (forward): each conv activation is compressed under its
  layer's bound; the compressed bytes go to the in-process handle or the
  :class:`~repro.core.arena.ByteArena` and the tracker is charged.
* **Unpack** (backward): each layer's activation is read back,
  decompressed and passed through the zero-preserving filter; every
  handle is released to the tracker exactly once.

Sessions are assembled by :func:`repro.api.build_session` from one
serializable :class:`~repro.api.config.SessionConfig`; the live
``CompressedTraining`` is ``session.compressed``::

    with build_session(network, SessionConfig(storage=StorageSpec(activations="arena"))) as s:
        s.train(batches(...))
        print(s.compressed.tracker.overall_ratio)
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.compression.registry import Codec
from repro.core.activation_store import CompressingContext
from repro.core.arena import ByteArena
from repro.core.adaptive import AdaptiveConfig, AdaptiveController
from repro.core.gradient_assessment import GradientAssessor
from repro.core.memory_tracker import MemoryTracker
from repro.core.param_store import ParamStore
from repro.core.policy_table import PolicyTable
from repro.nn.layers.base import Layer, Parameter
from repro.nn.layers.conv import Conv2D
from repro.nn.network import iter_layers, set_saved_ctx
from repro.nn.optim import SGD
from repro.nn.trainer import IterationRecord, Trainer

__all__ = ["CompressedTraining"]


class CompressedTraining:
    """Session object installing adaptive activation compression.

    Parameters
    ----------
    network, optimizer:
        The model whose conv layers will be compressed and the SGD
        optimizer whose momentum drives the gradient assessment.
    compressor:
        Codec instance for activations, following the registry's
        :class:`~repro.compression.registry.Codec` protocol.  Defaults to
        the faithful cuSZ-style pipeline with the zero-preserving filter
        enabled.
    config:
        :class:`AdaptiveConfig`; defaults to the paper's settings except
        W, which defaults lower (50) because CPU-scale experiments run
        hundreds, not hundreds of thousands, of iterations.
    storage:
        Optional :class:`ByteArena` — packed activations are then held
        as serialized byte strings under the arena's in-memory budget
        (spill-to-disk overflow) and the tracker reports physical bytes.
    param_storage:
        Optional :class:`~repro.core.param_store.ParamStore` — the model's
        weights and the optimizer's slots then live as arena-backed
        bytes too, materialized just-in-time around each layer's
        forward/backward/update, making the *whole* training state
        out-of-core rather than just the activations.
    policy_table:
        Optional :class:`~repro.core.policy_table.PolicyTable` — per-layer
        first-match rules giving matched layers their own codec, error
        bound (fixed or adaptive with per-rule clamps), and storage
        class; *compressor* and the adaptive regime stay the defaults
        for unmatched layers.
    adaptive:
        ``False`` disables the Eq. 8/9 controller entirely: every layer
        keeps its warm-up or rule-pinned bound and no per-iteration
        statistics are collected (``AdaptiveSpec(enabled=False)``).
    """

    def __init__(
        self,
        network: Layer,
        optimizer: SGD,
        compressor: Optional[Codec] = None,
        config: Optional[AdaptiveConfig] = None,
        tracker: Optional[MemoryTracker] = None,
        storage: Optional[ByteArena] = None,
        param_storage: Optional[ParamStore] = None,
        policy_table: Optional[PolicyTable] = None,
        adaptive: bool = True,
    ):
        self.network = network
        self.optimizer = optimizer
        self.config = config or AdaptiveConfig(W=50)
        self.tracker = tracker or MemoryTracker()
        self.adaptive_enabled = bool(adaptive)
        self.ctx = CompressingContext(
            compressor=compressor,
            initial_rel_eb=self.config.initial_rel_eb,
            tracker=self.tracker,
            storage=storage,
            policy_table=policy_table,
        )
        #: the context's :class:`~repro.core.engine.SyncEngine`
        self.engine = self.ctx.engine
        self.assessor = GradientAssessor(optimizer, self.config.sigma_fraction)
        self.controller = AdaptiveController(self.config, self.assessor, self.ctx)

        self.compressed_layers = set_saved_ctx(
            network, self.ctx, predicate=lambda l: l.compressible
        )
        self._mark_relu_fed_convs()

        #: conv layer name -> its weight Parameter (per-layer momentum)
        self.conv_params: Dict[str, Parameter] = {}
        self._install_taps()
        # warm-up: collect from iteration 0 (never when the controller
        # is disabled — fixed/rule-pinned bounds need no statistics)
        self._collect_next = self.adaptive_enabled

        #: optional out-of-core parameter/optimizer state: attached AFTER
        #: the taps so the JIT bind wrapper is outermost — weights are
        #: materialized before the tapped backward runs.
        self.param_store = param_storage
        if param_storage is not None:
            if len(param_storage) == 0:
                # Nothing adopted yet: fold the store's accounting into
                # the session tracker so persistent parameter bytes and
                # activation bytes share one set of books.
                param_storage.tracker = self.tracker
            param_storage.attach(network, optimizer)

    # -- wiring ------------------------------------------------------------
    def _mark_relu_fed_convs(self) -> None:
        """Conv layers directly fed by a ReLU get the Section 4.4
        recompute-the-activation-function treatment on decompression
        (exact zero restoration regardless of codec behaviour)."""
        from repro.nn.layers.activations import ReLU
        from repro.nn.layers.pooling import AvgPool2D, MaxPool2D
        from repro.nn.network import Residual, Sequential

        mark = self.ctx.relu_recompute_layers.add

        def walk(layer, nonneg: bool) -> bool:
            """Propagate 'input is provably non-negative' through the
            structure; returns whether the *output* is non-negative."""
            if isinstance(layer, Sequential):
                for child in layer.layers:
                    nonneg = walk(child, nonneg)
                return nonneg
            if isinstance(layer, Residual):
                walk(layer.main, nonneg)
                if layer.shortcut is not None:
                    walk(layer.shortcut, nonneg)
                return False  # sum of branches: no guarantee
            if isinstance(layer, Conv2D):
                if nonneg:
                    mark(layer.name)
                return False
            if isinstance(layer, ReLU):
                return True
            if isinstance(layer, (MaxPool2D, AvgPool2D)):
                return nonneg  # pooling preserves non-negativity
            return False

        walk(self.network, False)

    def _install_taps(self) -> None:
        """Wrap each conv layer's backward to observe dL/dout (L_bar)."""
        for layer in iter_layers(self.network):
            if not isinstance(layer, Conv2D):
                continue
            self.conv_params[layer.name] = layer.weight
            orig = layer.backward

            def tapped(dout, _layer=layer, _orig=orig):
                if self._collect_next:
                    self.controller.record_loss(_layer.name, dout)
                return _orig(dout)

            layer.backward = tapped

    def attach(self, trainer: Trainer) -> "CompressedTraining":
        """Register the per-iteration hook on *trainer* (and
        :meth:`close` on ``trainer.close()``)."""
        trainer.post_backward_hooks.append(self._on_iteration)
        trainer.close_hooks.append(lambda tr: self.close())
        return self

    # -- per-iteration hook --------------------------------------------------
    def _on_iteration(self, trainer: Trainer, record: IterationRecord) -> None:
        ratio = self.tracker.end_iteration()
        record.extras["compression_ratio"] = ratio
        if self._collect_next:
            # Statistics for this iteration are in; refresh the bounds the
            # next forward pass will compress under.
            new_bounds = self.controller.update_error_bounds(self.conv_params)
            if new_bounds:
                record.extras["mean_error_bound"] = float(
                    np.mean(list(new_bounds.values()))
                )
        self._collect_next = self.adaptive_enabled and self.controller.should_collect(
            trainer.iteration + 1
        )

    # -- reporting -----------------------------------------------------------
    @property
    def error_bounds(self) -> Dict[str, float]:
        return dict(self.ctx.error_bounds)

    @property
    def compression_ratios(self) -> Dict[str, float]:
        return dict(self.ctx.observed_ratio)

    def ratio_history(self) -> List[float]:
        return list(self.tracker.iteration_ratios)

    def detach(self) -> None:
        """Restore plain storage and resident parameters (keeps tap
        wrappers, which become no-ops)."""
        from repro.nn.layers.base import SavedTensorContext

        set_saved_ctx(self.network, SavedTensorContext(), predicate=lambda l: l.compressible)
        self.ctx.enabled = False
        if self.param_store is not None:
            self.param_store.detach()

    def close(self) -> None:
        """Restore out-of-core parameters to residency.

        Idempotent; also invoked through ``trainer.close()`` once the
        session is attached."""
        if self.param_store is not None:
            self.param_store.close()
