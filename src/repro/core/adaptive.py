"""Adaptive compression configuration (Sections 4.1-4.3).

Every ``W`` iterations (default 1000, the paper's "active factor") the
controller refreshes its view of the training status — per-layer loss
magnitude L_bar, activation sparsity R, and momentum magnitude — and
re-derives each convolutional layer's absolute error bound:

    sigma = sigma_fraction * M_average          (Eq. 8, gradient assessment)
    eb    = sigma / (a * L_rms * sqrt(M * R))   (Eq. 9, activation assessment)

with M the combined element count (batch x conv output positions) — see
:mod:`repro.core.error_model` for why the rms convention makes the
coefficient exact.

A short warm-up collects every iteration so compression starts from
measured statistics rather than guesses.

Under a :class:`~repro.core.policy_table.PolicyTable` the controller
drives bounds **per rule-group** instead of one global regime: layers
whose rule pins a fixed ``error_bound`` (``adaptive=False``) are left
alone entirely, and adaptive rules may override the global
``eb_min``/``eb_max`` clamps for their layers — so a "tight early
layers, loose late layers" policy holds even while Eqs. 8–9 keep
re-deriving the bounds inside each group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.activation_store import CompressingContext
from repro.core.error_model import THEORY_COEFFICIENT_A, error_bound_for_sigma
from repro.core.gradient_assessment import GradientAssessor

__all__ = ["AdaptiveConfig", "AdaptiveController"]


@dataclass
class AdaptiveConfig:
    """Knobs of the adaptive scheme, defaulting to the paper's choices."""

    W: int = 1000  # parameter-collection interval (Section 4.1)
    sigma_fraction: float = 0.01  # Eq. 8 budget (Figure 9 study)
    coefficient: float = THEORY_COEFFICIENT_A  # exact rms convention
    initial_rel_eb: float = 1e-3  # warm-up eb as fraction of value range
    warmup_iterations: int = 5  # collect every iteration at the start
    eb_min: float = 1e-10
    eb_max: float = 10.0
    min_nonzero_ratio: float = 1e-3  # guard against R -> 0 blow-up

    def __post_init__(self):
        if self.W < 1:
            raise ValueError(f"W must be >= 1, got {self.W}")
        if not 0 < self.sigma_fraction < 1:
            raise ValueError("sigma_fraction must be in (0, 1)")
        if self.eb_min <= 0 or self.eb_max <= self.eb_min:
            raise ValueError("need 0 < eb_min < eb_max")


class AdaptiveController:
    """Owns per-layer error bounds; consumes collected statistics."""

    def __init__(
        self,
        config: AdaptiveConfig,
        assessor: GradientAssessor,
        ctx: CompressingContext,
    ):
        self.config = config
        self.assessor = assessor
        self.ctx = ctx
        #: latest rms |dL/dout| per conv layer (the paper's L_bar in the
        #: exact rms convention)
        self.loss_scales: Dict[str, float] = {}
        #: latest combined element count per layer (batch x Ho x Wo)
        self.combined_elements: Dict[str, int] = {}
        #: latest Eq. 8 sigma budget per adaptive layer (pre-update momentum)
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
        d = dout.astype(np.float64)
        self.loss_scales[layer_name] = float(np.sqrt((d * d).mean()))
        n, _, ho, wo = dout.shape
        self.combined_elements[layer_name] = int(n * ho * wo)
        if self.ctx.is_adaptive(layer_name):
            self.sigma_budgets[layer_name] = self.assessor.sigma_budget(param)

    def update_error_bounds(self, conv_params: Dict[str, "Parameter"]) -> Dict[str, float]:
        """Refresh every known layer's error bound from current statistics.

        Returns the new per-layer bounds (also installed into the
        compressing context for the next forward pass).
        """
        cfg = self.config
        new_bounds: Dict[str, float] = {}
        for name, lscale in self.loss_scales.items():
            if not self.ctx.is_adaptive(name):
                # Rule-pinned fixed bound: this layer belongs to a
                # non-adaptive policy group and keeps its configured eb.
                continue
            sigma = self.sigma_budgets.get(name, 0.0)
            if sigma <= 0:
                # momentum not yet populated (first iterations)
                sigma = self.assessor.gradient_fallback_budget(conv_params.get(name))
            if sigma <= 0 or lscale <= 0:
                continue  # keep current bound; no usable signal this round
            m = self.combined_elements.get(name, 1)
            r = max(self.ctx.observed_nonzero.get(name, 1.0), cfg.min_nonzero_ratio)
            eb = error_bound_for_sigma(
                sigma, lscale, m, nonzero_ratio=r, coefficient=cfg.coefficient
            )
            lo, hi = self._clamps_for(name)
            eb = float(np.clip(eb, lo, hi))
            new_bounds[name] = eb
            self.ctx.error_bounds[name] = eb
        self.updates += 1
        return new_bounds

    def _clamps_for(self, layer_name: str) -> "tuple[float, float]":
        """(eb_min, eb_max) for *layer_name*: the layer's policy rule may
        override the global clamps for its group."""
        cfg = self.config
        table = getattr(self.ctx, "policy_table", None)
        pol = table.resolve(layer_name) if table is not None else None
        if pol is None:
            return cfg.eb_min, cfg.eb_max
        lo = pol.eb_min if pol.eb_min is not None else cfg.eb_min
        hi = pol.eb_max if pol.eb_max is not None else cfg.eb_max
        if hi <= lo:
            raise ValueError(
                f"rule {pol.label!r}: eb clamps invalid for layer {layer_name!r} "
                f"(eb_min={lo} >= eb_max={hi})"
            )
        return lo, hi
