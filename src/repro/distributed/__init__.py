"""Process-based data-parallel training with compressed gradient exchange.

The paper's bounded-lossy thesis applied to data parallelism's dominant
cost: N worker ranks (full per-rank sessions — own arenas, param
stores, engines) exchange gradients through the codec registry, with a
per-layer error-feedback residual so convergence matches the
single-worker run within the bound.  Configured entirely by the
``distributed`` section of :class:`~repro.api.config.SessionConfig`
(:class:`~repro.api.config.DistributedSpec`) and entered through the
ordinary :func:`~repro.api.session.build_session` front door::

    cfg = SessionConfig.from_json("examples/configs/ddp_vgg.json")
    with build_session(network, cfg) as session:   # spawns the ranks
        session.train(batches(dataset, 32, 100, seed=1))
        print(session.grad_exchange_stats)

Reduction follows a fixed rank-tree with float64
accumulation, and the reduced gradient is broadcast as one bit-exact
blob — so a run is bit-reproducible from the committed config and rank
weights never drift apart.
"""

from repro.distributed.grad_compress import (
    ErrorFeedback,
    GradParam,
    build_grad_plan,
    downlink_codec_spec,
)
from repro.distributed.reduce import reduce_arrays
from repro.distributed.session import DistributedSession, build_distributed_session
from repro.distributed.worker import RankExchange, derive_rank_config, rank_main

__all__ = [
    "reduce_arrays",
    "GradParam",
    "ErrorFeedback",
    "build_grad_plan",
    "downlink_codec_spec",
    "derive_rank_config",
    "RankExchange",
    "rank_main",
    "DistributedSession",
    "build_distributed_session",
]
