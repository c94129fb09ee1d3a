"""The gradient exchange plan and the error-feedback residual.

The data-parallel exchange compresses every parameter gradient through
one codec, ``distributed.grad_codec`` (default: ``sparse-lossless``,
bit-exact), built once from the registry and shared by every parameter.
Worker ranks and the coordinator both derive the plan from the same
pickled network and the same config, so the two sides agree on the
parameter order and the codec by construction.

Error feedback (``distributed.error_feedback``): each rank keeps a
per-parameter residual of what compression dropped and folds it into
the next step's gradient before compressing —

    u_t        = g_t + r_{t-1}
    sent_t     = decompress(compress(u_t))
    r_t        = u_t - sent_t

so the *accumulated* applied gradient tracks the true accumulated
gradient and a bounded-lossy gradient codec converges like the
single-worker run.  ``decompress`` here is the rank's own round-trip of
its own compressed object — a pure function of the compressed bytes,
so the residual equals what the coordinator actually received minus
what the rank meant to send.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.api.config import CodecSpec, SessionConfig

__all__ = ["GradParam", "build_grad_plan", "downlink_codec_spec", "ErrorFeedback"]


#: the broadcast leg is always bit-exact: every rank applies the *same*
#: reduced-gradient bytes, which is what keeps rank weights bit-identical
DOWNLINK_SPEC = CodecSpec("sparse-lossless")


def downlink_codec_spec() -> CodecSpec:
    return CodecSpec(DOWNLINK_SPEC.name, dict(DOWNLINK_SPEC.options))


@dataclass
class GradParam:
    """One exchanged parameter: its live handle, name, and codec."""

    param: object
    name: str
    codec: object


def build_grad_plan(network, config: SessionConfig) -> List[GradParam]:
    """The exchange plan: one :class:`GradParam` per parameter, in
    deterministic layer-traversal order, all sharing one codec instance,
    built via the registry only and on the session's
    ``engine.kernel_backend``.  Gradients are compressed without a
    ``cache_key``, so a Huffman codec codes each one with a fresh book
    (keying them is ROADMAP O(iii)).
    """
    from repro.nn.network import iter_layers

    codec = config.distributed.resolved_grad_codec().build(config.engine.kernel_backend)
    plan = [
        GradParam(param=param, name=getattr(param, "name", None) or layer.name, codec=codec)
        for layer in iter_layers(network)
        for param in layer.parameters()
    ]
    if not plan:
        raise ValueError("network has no parameters to exchange")
    return plan


class ErrorFeedback:
    """Per-parameter residual accumulator for one rank.

    ``fold(i, grad)`` returns the gradient to compress (grad plus the
    standing residual); ``settle(i, u, decoded)`` records what the codec
    dropped this step.  ``last_norm()`` is the RMS residual across every
    exchanged element of the latest step — the scalar each rank reports
    so tests and benchmarks can watch the residual shrink.
    """

    def __init__(self, plan: List[GradParam], enabled: bool = True):
        self.enabled = bool(enabled)
        self._residuals = [
            np.zeros(gp.param.data.shape, dtype=np.float32) for gp in plan
        ]
        self._sq_sum = 0.0
        self._count = 0

    def fold(self, i: int, grad: np.ndarray) -> np.ndarray:
        if not self.enabled:
            return grad
        return grad + self._residuals[i]

    def settle(self, i: int, u: np.ndarray, decoded: np.ndarray) -> None:
        if not self.enabled:
            return
        r = u - decoded
        self._residuals[i] = r
        flat = r.ravel()
        self._sq_sum += float(np.dot(flat, flat))
        self._count += flat.size

    def begin_step(self) -> None:
        self._sq_sum = 0.0
        self._count = 0

    def last_norm(self) -> float:
        """RMS residual of the latest step (0.0 when disabled/empty)."""
        if not self._count:
            return 0.0
        return float(np.sqrt(self._sq_sum / self._count))
