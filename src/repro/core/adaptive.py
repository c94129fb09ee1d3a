"""The adaptive error-bound controller (Sections 4.1-4.3).

Every ``W`` iterations (the paper's "active factor"; ``adaptive.W`` in
the session config) the controller refreshes its view of the training
status — per-layer loss magnitude L_bar, activation sparsity R, and
momentum magnitude — and re-derives each convolutional layer's absolute
error bound:

    sigma = sigma_fraction * M_average          (Eq. 8, gradient assessment)
    eb    = sigma / (a * L_rms * sqrt(M * R))   (Eq. 9, activation assessment)

with M the combined element count (batch x conv output positions) — see
:mod:`repro.core.error_model` for why the rms convention makes the
coefficient exact.

Gradient assessment (Section 4.2): the acceptable gradient error sigma
is a fixed fraction of the layer's mean SGD momentum magnitude, 1 % by
default (``adaptive.sigma_fraction``), the paper's choice after the
Figure 9 study showed 5 % diverges and 2 % is marginal.  Momentum is
used rather than the raw gradient because the momentum vector is what
actually steers the weight update, and its normally distributed error
averages out across iterations (Section 3.3).  Until momentum has
accumulated (the first iterations), the budget is the same fraction of
the layer's mean gradient magnitude.

A short warm-up collects every iteration so compression starts from
measured statistics rather than guesses.

Every conv layer gets its own bound from its own statistics, clipped to
the session's ``adaptive.eb_min`` / ``adaptive.eb_max``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

import numpy as np

from repro.core.activation_store import CompressingContext
from repro.core.error_model import error_bound_for_sigma
from repro.utils.scratch import WORKSPACE

if TYPE_CHECKING:
    from repro.api.config import AdaptiveSpec
    from repro.nn.layers.base import Parameter
    from repro.nn.optim import SGD

__all__ = ["AdaptiveController"]


class AdaptiveController:
    """Owns per-layer error bounds; consumes collected statistics."""

    def __init__(
        self,
        config: "AdaptiveSpec",
        optimizer: "SGD",
        ctx: CompressingContext,
    ):
        self.config = config
        self.optimizer = optimizer
        self.ctx = ctx
        #: latest rms |dL/dout| per conv layer (the paper's L_bar in the
        #: exact rms convention)
        self.loss_scales: Dict[str, float] = {}
        #: latest combined element count per layer (batch x Ho x Wo)
        self.combined_elements: Dict[str, int] = {}
        #: latest Eq. 8 sigma budget per layer (pre-update momentum)
        self.sigma_budgets: Dict[str, float] = {}
        self.updates = 0

    def should_collect(self, iteration: int) -> bool:
        """Collect semi-online parameters this iteration? (Section 4.1)"""
        if iteration < self.config.warmup_iterations:
            return True
        return iteration % self.config.W == 0

    def record_loss(self, layer_name: str, dout: np.ndarray, param: "Parameter") -> None:
        """Collect L_bar, M and (from *param*'s momentum, before the
        layer's backward can update it) the Eq. 8 sigma budget."""
        with WORKSPACE.take(dout.shape, np.float64) as sq:
            np.square(dout, out=sq, dtype=np.float64)
            self.loss_scales[layer_name] = float(np.sqrt(sq.mean()))
        n, _, ho, wo = dout.shape
        self.combined_elements[layer_name] = int(n * ho * wo)
        self.sigma_budgets[layer_name] = self.sigma_budget(param)

    def sigma_budget(self, param: "Parameter") -> float:
        """Eq. 8: ``sigma_fraction`` x the mean |momentum| of *param*."""
        m_avg = float(np.abs(self.optimizer.momentum_buffer(param)).mean())
        return self.config.sigma_fraction * m_avg

    def gradient_fallback_budget(self, param: "Parameter") -> float:
        """The budget before momentum has accumulated: ``sigma_fraction``
        x the mean |gradient| of *param*."""
        return self.config.sigma_fraction * float(np.abs(param.grad).mean())

    def update_error_bounds(self, conv_params: Dict[str, "Parameter"]) -> Dict[str, float]:
        """Refresh every known layer's error bound from current statistics.

        Returns the new per-layer bounds (also installed into the
        compressing context for the next forward pass).
        """
        cfg = self.config
        new_bounds: Dict[str, float] = {}
        for name, lscale in self.loss_scales.items():
            sigma = self.sigma_budgets.get(name, 0.0)
            if sigma <= 0:
                # momentum not yet populated (first iterations)
                sigma = self.gradient_fallback_budget(conv_params[name])
            if sigma <= 0 or lscale <= 0:
                continue  # keep current bound; no usable signal this round
            m = self.combined_elements.get(name, 1)
            r = max(self.ctx.observed_nonzero.get(name, 1.0), cfg.min_nonzero_ratio)
            eb = error_bound_for_sigma(
                sigma, lscale, m, nonzero_ratio=r, coefficient=cfg.coefficient
            )
            eb = float(np.clip(eb, cfg.eb_min, cfg.eb_max))
            new_bounds[name] = eb
            self.ctx.error_bounds[name] = eb
        self.updates += 1
        return new_bounds
