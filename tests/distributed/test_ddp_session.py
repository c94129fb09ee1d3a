"""End-to-end contracts of the data-parallel session.

The four load-bearing properties:

1. **Bit-reproducible**: two runs from the committed ``ddp_vgg.json``
   produce identical losses and identical final weights.
2. **Rank consistency**: every rank holds bit-identical weights after
   every step (same broadcast bytes, same optimizer).
3. **Single-worker equivalence**: with a lossless gradient codec the
   2-rank run matches the 1-worker run up to float summation order; with
   a bounded-lossy codec it matches within the configured bound.
4. **Error feedback**: the residual each rank reports is capped by the
   codec's abs bound, and the exchange ledger records it.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.api import (
    CodecSpec,
    ConfigError,
    ProfilerSpec,
    SessionConfig,
    build_session,
)
from repro.api.config import DistributedSpec
from repro.distributed import DistributedSession
from repro.models.specs import ConvS, FlattenS, LinearS, MaxPoolS, ReLUS, build_network
from repro.nn import SGD, SyntheticImageDataset, batches

DDP_CONFIG = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "configs", "ddp_vgg.json"
)


def make_net(seed=42, image_size=12):
    """A small dropout-free conv net: no per-shard RNG consumption, so
    the 2-rank run is comparable to the 1-worker run."""
    specs = [
        ConvS(8, 3, padding=1), ReLUS(), MaxPoolS(2),
        ConvS(16, 3, padding=1), ReLUS(),
        FlattenS(), LinearS(8),
    ]
    return build_network(specs, (8, 3, image_size, image_size), rng=seed)


def data(iters=4, batch=8, image_size=12, seed=7):
    dataset = SyntheticImageDataset(
        num_classes=8, image_size=image_size, signal=0.6, seed=seed
    )
    return batches(dataset, batch, iters, seed=1)


def ddp_config(world_size=2, grad_codec=None, **kw):
    return SessionConfig(
        compress_activations=False,
        distributed=DistributedSpec(
            world_size=world_size, grad_codec=grad_codec, **kw
        ),
    )


SZ_GRAD = CodecSpec("szlike", {"error_bound": 1e-3, "mode": "abs"})


def eval_batch(n=8, seed=9):
    dataset = SyntheticImageDataset(num_classes=8, image_size=12, signal=0.6, seed=seed)
    return next(iter(batches(dataset, n, 1, seed=3)))


def run_losses(net, cfg, iters=4):
    with build_session(net, cfg) as s:
        s.train(data(iters))
        losses = list(s.history.losses)
    # read weights only after close(): that is when a distributed
    # session pulls rank 0's trained weights back into the network
    return losses, [np.array(p.data) for p in net.parameters()]


class TestReproducibility:
    def test_committed_config_bit_identical_across_repeats(self):
        """Acceptance: a 2-rank run from the committed ddp_vgg.json is
        bit-reproducible — same losses, same final weights."""
        cfg = SessionConfig.from_json(DDP_CONFIG)
        assert cfg.distributed.world_size == 2
        runs = []
        for _ in range(2):
            net = make_net()
            with build_session(net, cfg) as s:
                assert isinstance(s, DistributedSession)
                s.train(data(3))
                losses = list(s.history.losses)
            weights = [np.array(p.data) for p in net.parameters()]
            runs.append((losses, weights))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            np.testing.assert_array_equal(a, b)

    def test_rank_weights_bit_identical_across_ranks(self):
        with build_session(make_net(), ddp_config(grad_codec=SZ_GRAD)) as s:
            s.train(data(3))
            w0 = s.rank_weights(0)
            w1 = s.rank_weights(1)
            assert len(w0) == len(w1) > 0
            for a, b in zip(w0, w1):
                np.testing.assert_array_equal(a, b)

    def test_close_pulls_rank0_weights_into_network(self):
        net = make_net()
        s = build_session(net, ddp_config())
        s.train(data(2))
        w0 = s.rank_weights(0)
        s.close()
        for param, expect in zip(net.parameters(), w0):
            np.testing.assert_array_equal(param.data, expect)
        s.close()  # idempotent

    def test_linear_reduce_order_also_reproducible(self):
        nets = [make_net(), make_net()]
        a = run_losses(nets[0], ddp_config(reduce_order="linear"), iters=3)
        b = run_losses(nets[1], ddp_config(reduce_order="linear"), iters=3)
        assert a[0] == b[0]


class TestSingleWorkerEquivalence:
    def single_worker(self, iters=4):
        net = make_net()
        losses, weights = run_losses(net, SessionConfig(compress_activations=False), iters)
        return losses, weights

    def test_lossless_grad_codec_matches_single_worker(self):
        """Sparse-lossless exchange: the only difference from the
        1-worker run is float summation order (shard means folded in
        float64), so losses agree to tight tolerance."""
        ref_losses, ref_weights = self.single_worker()
        ddp_losses, ddp_weights = run_losses(make_net(), ddp_config())
        np.testing.assert_allclose(ddp_losses, ref_losses, rtol=0, atol=1e-5)
        for a, b in zip(ddp_weights, ref_weights):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-5)

    def test_szlike_grad_codec_matches_within_bound(self):
        """Acceptance: final loss under a bounded-lossy gradient codec
        matches the single-worker run within the configured bound (the
        1e-3 abs bound perturbs each gradient element by <= 1e-3 per
        step; with error feedback the drift stays of that order)."""
        ref_losses, _ = self.single_worker()
        ddp_losses, _ = run_losses(make_net(), ddp_config(grad_codec=SZ_GRAD))
        assert abs(ddp_losses[-1] - ref_losses[-1]) < 0.05
        np.testing.assert_allclose(ddp_losses, ref_losses, rtol=0, atol=0.05)


class TestExchangeLedger:
    def test_stats_shape_and_residuals(self):
        with build_session(make_net(), ddp_config(grad_codec=SZ_GRAD)) as s:
            s.train(data(3))
            stats = s.grad_exchange_stats
        assert stats["world_size"] == 2
        assert stats["steps"] == 3
        assert len(stats["per_rank"]) == 2
        for rank_stats in stats["per_rank"]:
            assert rank_stats["raw_bytes"] > 0
            assert rank_stats["compressed_bytes"] > 0
            assert rank_stats["ratio"] > 0
            assert len(rank_stats["residual_norms"]) == 3
            # abs bound 1e-3 caps every element, hence the RMS
            assert all(0.0 <= r <= 1e-3 for r in rank_stats["residual_norms"])
        assert stats["downlink"]["ratio"] > 0

    def test_lossless_codec_has_zero_residual(self):
        with build_session(make_net(), ddp_config()) as s:
            s.train(data(2))
            stats = s.grad_exchange_stats
        for rank_stats in stats["per_rank"]:
            assert rank_stats["residual_norms"] == [0.0, 0.0]

    def test_error_feedback_off_reports_zero_norms(self):
        cfg = ddp_config(grad_codec=SZ_GRAD, error_feedback=False)
        with build_session(make_net(), cfg) as s:
            s.train(data(2))
            stats = s.grad_exchange_stats
        for rank_stats in stats["per_rank"]:
            assert rank_stats["residual_norms"] == [0.0, 0.0]


class TestProfilerFlow:
    def test_grad_stages_recorded(self):
        cfg = ddp_config(grad_codec=SZ_GRAD)
        cfg.profiler = ProfilerSpec(enabled=True)
        s = build_session(make_net(), cfg)
        try:
            s.train(data(2))
        finally:
            s.close()
        snap = s.profiler.snapshot()
        for name in ("step", "grad-reduce"):
            assert name in snap, f"coordinator should record {name}"
        for name in ("grad-pack", "grad-exchange", "grad-unpack"):
            assert name in snap, f"merged rank snapshot should carry {name}"
            assert snap[name]["calls"] >= 2 * 2  # 2 ranks x 2 steps

    def test_profiler_disabled_records_nothing(self):
        with build_session(make_net(), ddp_config()) as s:
            s.train(data(2))
            assert s.profiler is None


class TestSurfaceAndGuards:
    def test_evaluate_and_repr(self):
        with build_session(make_net(), ddp_config()) as s:
            s.train(data(2))
            images, labels = eval_batch(16)
            acc = s.evaluate(images, labels, batch_size=8)
            assert 0.0 <= acc <= 1.0
            assert "world_size=2" in repr(s)
            assert s.world_size == 2

    def test_rank_side_accessors_read_none_on_the_coordinator(self):
        """Regression: ``param_store`` dereferenced the trainer the
        coordinator does not have and raised AttributeError."""
        with build_session(make_net(), ddp_config()) as s:
            assert s.param_store is None
            assert s.tracker is None and s.engine is None and s.policy_table is None
            s.train(data(1))
            assert s.param_store is None

    def test_batch_smaller_than_world_size_raises(self):
        cfg = ddp_config(world_size=4)
        with build_session(make_net(), cfg) as s:
            images, labels = eval_batch(2)
            with pytest.raises(ValueError, match="batch of 2"):
                s.train_step(images, labels)

    def test_prebuilt_optimizer_rejected(self):
        net = make_net()
        opt = SGD(net.parameters(), lr=0.01)
        with pytest.raises(ConfigError, match="pre-built optimizer"):
            build_session(net, ddp_config(), optimizer=opt)

    def test_worker_error_surfaces_with_traceback(self):
        with build_session(make_net(), ddp_config()) as s:
            s._conns[0].send(("bogus-tag",))
            # wait for the rank to die so the next send hits a closed
            # pipe — the error must still surface as "rank 0 ...", not a
            # bare BrokenPipeError
            s._processes[0].join(timeout=10)
            with pytest.raises(RuntimeError, match="rank 0"):
                s.rank_weights(0)

    def test_closed_session_refuses_work(self):
        s = build_session(make_net(), ddp_config())
        s.close()
        images, labels = eval_batch(8)
        with pytest.raises(RuntimeError, match="closed"):
            s.train_step(images, labels)

    def test_compressed_activations_compose_with_ddp(self):
        """The full stack: per-rank arenas + activation compression +
        gradient exchange, from the committed config shape."""
        cfg = SessionConfig.from_json(DDP_CONFIG)
        net = make_net()
        with build_session(net, cfg) as s:
            rec = s.train_step(*next(iter(data(1))))
            assert np.isfinite(rec.loss)
            w0, w1 = s.rank_weights(0), s.rank_weights(1)
            for a, b in zip(w0, w1):
                np.testing.assert_array_equal(a, b)
