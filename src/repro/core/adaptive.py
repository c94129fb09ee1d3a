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
``[EB_MIN, EB_MAX]``.  The coefficient ``a`` is ``THEORY_COEFFICIENT_A``
for every layer of every network (the paper's claim that it "is
unchanged for different neural networks"), and ``R`` is floored at
``MIN_NONZERO_RATIO`` so an all-zero activation still gets a finite
bound.  None of these is a session setting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

import numpy as np

from repro.core.activation_store import CompressingContext
from repro.core.error_model import THEORY_COEFFICIENT_A, error_bound_for_sigma
from repro.utils.scratch import WORKSPACE

if TYPE_CHECKING:
    from repro.api.config import AdaptiveSpec
    from repro.nn.layers.base import Parameter
    from repro.nn.optim import SGD

__all__ = ["AdaptiveController", "EB_MIN", "EB_MAX", "MIN_NONZERO_RATIO"]

#: the clamps every Eq. 9 bound is clipped to
EB_MIN = 1e-10
EB_MAX = 10.0
#: the floor of the observed nonzero ratio R
MIN_NONZERO_RATIO = 1e-3


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
        new_bounds: Dict[str, float] = {}
        for name, lscale in self.loss_scales.items():
            sigma = self.sigma_budgets.get(name, 0.0)
            if sigma <= 0:
                # momentum not yet populated (first iterations)
                sigma = self.gradient_fallback_budget(conv_params[name])
            if sigma <= 0 or lscale <= 0:
                continue  # keep current bound; no usable signal this round
            m = self.combined_elements.get(name, 1)
            r = max(self.ctx.observed_nonzero.get(name, 1.0), MIN_NONZERO_RATIO)
            eb = error_bound_for_sigma(
                sigma, lscale, m, nonzero_ratio=r, coefficient=THEORY_COEFFICIENT_A
            )
            eb = float(np.clip(eb, EB_MIN, EB_MAX))
            new_bounds[name] = eb
            self.ctx.error_bounds[name] = eb
        self.updates += 1
        return new_bounds
