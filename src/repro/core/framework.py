"""The memory-efficient training framework (Figure 7 wiring).

:class:`CompressedTraining` glues the pieces together exactly as the
paper's Figure 7 describes, per convolutional layer per iteration:

1. **Parameter collection** — backward taps record each conv layer's
   loss magnitude L_bar; the compressing context records activation
   sparsity R at pack time; the optimizer exposes momentum.  Collection
   runs every W iterations (plus a warm-up), and only then does a pack
   count R.  The conv fed the data batch is not compressed (its input
   is the caller's batch, not an intermediate activation), so it has
   no tap and no bound.
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
serializable :class:`~repro.api.config.SessionConfig`, which builds the
session's one codec and hands ``CompressedTraining`` the ``adaptive``
section as it is; the live ``CompressedTraining`` is
``session.compressed``::

    with build_session(network, SessionConfig(storage=StorageSpec(activations="arena"))) as s:
        s.train(batches(...))
        print(s.compressed.tracker.overall_ratio)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.compression.registry import Codec
from repro.core.activation_store import CompressingContext
from repro.core.arena import ByteArena
from repro.core.adaptive import AdaptiveController
from repro.core.memory_tracker import MemoryTracker
from repro.nn.layers.base import Layer, Parameter
from repro.nn.layers.conv import Conv2D
from repro.nn.network import set_saved_ctx
from repro.nn.optim import SGD
from repro.nn.trainer import IterationRecord, Trainer, packing_convs

if TYPE_CHECKING:
    from repro.api.config import AdaptiveSpec

__all__ = ["CompressedTraining"]


class CompressedTraining:
    """Session object installing adaptive activation compression.

    Parameters
    ----------
    network, optimizer:
        The model whose conv layers will be compressed and the SGD
        optimizer whose momentum the controller's Eq. 8 budget reads.
    compressor:
        Codec instance for activations, following the registry's
        :class:`~repro.compression.registry.Codec` protocol.  Defaults to
        the faithful cuSZ-style pipeline with the zero-preserving filter
        enabled.
    config:
        The session's :class:`~repro.api.config.AdaptiveSpec`: the
        controller's knobs, and ``enabled=False`` to turn the Eq. 8/9
        controller off (every layer is then packed under the codec's own
        ``error_bound`` and no per-iteration statistics are collected).
    storage:
        Optional :class:`ByteArena` — packed activations are then held
        as serialized byte strings under the arena's in-memory budget
        (spill-to-disk overflow) and the tracker reports physical bytes.
    tracker:
        Optional :class:`MemoryTracker` to charge; ``build_session``
        passes the one it also gives the session's
        :class:`~repro.core.param_store.ParamStore`, so persistent
        parameter bytes and activation bytes share one set of books.
    """

    def __init__(
        self,
        network: Layer,
        optimizer: SGD,
        compressor: Optional[Codec] = None,
        *,
        config: "AdaptiveSpec",
        tracker: Optional[MemoryTracker] = None,
        storage: Optional[ByteArena] = None,
    ):
        self.network = network
        self.optimizer = optimizer
        self.config = config
        self.tracker = tracker or MemoryTracker()
        self.ctx = CompressingContext(
            compressor=compressor,
            tracker=self.tracker,
            storage=storage,
            adaptive=config,
        )
        #: the context's :class:`~repro.core.engine.SyncEngine`
        self.engine = self.ctx.engine
        self.controller = AdaptiveController(config, optimizer, self.ctx)

        self.compressed_layers = set_saved_ctx(
            network, self.ctx, predicate=lambda l: l.compressible
        )
        self._mark_relu_fed_convs()

        #: packing conv layer name -> its weight Parameter (per-layer momentum)
        self.conv_params: Dict[str, Parameter] = {}
        self._install_taps()
        # warm-up: collect from iteration 0 (never when the controller
        # is disabled — the codec's fixed bound needs no statistics); a
        # pack counts R only when the controller will read it
        self._collect_next = self.ctx.count_nonzero = config.enabled

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
        """Wrap the backward of each conv a training step packs
        (:func:`~repro.nn.trainer.packing_convs`) to observe dL/dout
        (L_bar) and, before a ParamStore can fold the layer's update into
        its backward, the layer's momentum (Eq. 8).  The conv fed the
        data batch packs nothing, so it gets no tap and no Eq. 9 bound."""
        for layer in packing_convs(self.network):
            self.conv_params[layer.name] = layer.weight
            orig = layer.backward

            def tapped(dout, _layer=layer, _orig=orig):
                if self._collect_next:
                    self.controller.record_loss(_layer.name, dout, _layer.weight)
                return _orig(dout)

            layer.backward = tapped

    def attach(self, trainer: Trainer) -> "CompressedTraining":
        """Register the per-iteration hook on *trainer*."""
        trainer.post_backward_hooks.append(self._on_iteration)
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
        self._collect_next = self.ctx.count_nonzero = (
            self.config.enabled and self.controller.should_collect(trainer.iteration + 1)
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
