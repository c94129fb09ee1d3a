"""Gradient codec resolution, error feedback, and rank-config derivation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    AdaptiveSpec,
    CodecSpec,
    ConfigError,
    EngineSpec,
    SessionConfig,
    StorageSpec,
)
from repro.api.config import DistributedSpec
from repro.compression import SparseLosslessCompressor
from repro.compression.szlike import SZCompressor
from repro.distributed import (
    ErrorFeedback,
    build_grad_plan,
    derive_rank_config,
    downlink_codec_spec,
)
from repro.models import build_scaled_model


def make_net(seed=42):
    return build_scaled_model("alexnet", num_classes=8, image_size=16, rng=seed)


class TestGradPlan:
    def test_default_codec_is_sparse_lossless(self):
        net = make_net()
        cfg = SessionConfig(distributed=DistributedSpec(world_size=2))
        plan = build_grad_plan(net, cfg)
        assert len(plan) == len(list(net.parameters()))
        assert all(isinstance(gp.codec, SparseLosslessCompressor) for gp in plan)
        # one shared instance across every parameter with the same spec
        assert len({id(gp.codec) for gp in plan}) == 1

    def test_plan_order_follows_layer_traversal(self):
        net = make_net()
        cfg = SessionConfig(distributed=DistributedSpec(world_size=2))
        plan = build_grad_plan(net, cfg)
        ids = [id(gp.param) for gp in plan]
        assert ids == [id(p) for p in net.parameters()]

    def test_one_grad_codec_object_serves_every_parameter(self):
        net = make_net()
        cfg = SessionConfig(
            distributed=DistributedSpec(
                world_size=2,
                grad_codec=CodecSpec("szlike", {"error_bound": 1e-3, "mode": "abs"}),
            ),
        )
        plan = build_grad_plan(net, cfg)
        (codec,) = {id(gp.codec): gp.codec for gp in plan}.values()
        assert isinstance(codec, SZCompressor) and codec.error_bound == 1e-3

    @staticmethod
    def _szlike_grads(engine_backend, **options):
        return SessionConfig(
            engine=EngineSpec(kernel_backend=engine_backend),
            distributed=DistributedSpec(
                world_size=2, grad_codec=CodecSpec("szlike", {"error_bound": 1e-3, **options})
            ),
        )

    def test_grad_codec_runs_on_the_engine_kernel_backend(self):
        """``engine.kernel_backend`` reaches the gradient codec as it
        reaches the activation codecs, unless its options pin one."""
        (codec,) = {gp.codec for gp in build_grad_plan(make_net(), self._szlike_grads("numpy"))}
        assert codec.kernel_backend == "numpy"
        assert codec.kernel_backend_selected == "numpy"
        cfg = self._szlike_grads("numpy", kernel_backend="auto")
        (codec,) = {gp.codec for gp in build_grad_plan(make_net(), cfg)}
        assert codec.kernel_backend == "auto"

    def test_grad_codec_on_an_unavailable_backend_is_a_config_error(self):
        from repro.kernels import available_backends

        if "numba" in available_backends():
            pytest.skip("numba installed: explicit selection succeeds here")
        with pytest.raises(ConfigError, match="engine.kernel_backend.*unavailable"):
            build_grad_plan(make_net(), self._szlike_grads("numba"))

    def test_empty_network_rejected(self):
        from repro.nn import ReLU, Sequential

        cfg = SessionConfig(distributed=DistributedSpec(world_size=2))
        with pytest.raises(ValueError, match="no parameters"):
            build_grad_plan(Sequential([ReLU(name="r0")]), cfg)

    def test_downlink_spec_is_lossless_and_fresh(self):
        a, b = downlink_codec_spec(), downlink_codec_spec()
        assert a.name == "sparse-lossless"
        assert a is not b
        a.options["x"] = 1
        assert "x" not in b.options  # no shared mutable state


class _Param:
    def __init__(self, shape):
        self.data = np.zeros(shape, dtype=np.float32)


def _plan_of(shapes, codec):
    from repro.distributed import GradParam

    return [GradParam(param=_Param(s), name=f"p{i}", codec=codec)
            for i, s in enumerate(shapes)]


class TestErrorFeedback:
    def roundtrip(self, codec, u):
        return np.asarray(codec.decompress(codec.compress(u)), dtype=np.float32)

    def test_residual_is_what_compression_dropped(self):
        codec = CodecSpec("szlike", {"error_bound": 1e-2, "mode": "abs"}).build()
        plan = _plan_of([(8, 8)], codec)
        fb = ErrorFeedback(plan, enabled=True)
        rng = np.random.default_rng(0)
        g = rng.standard_normal((8, 8)).astype(np.float32)

        fb.begin_step()
        u = fb.fold(0, g)
        np.testing.assert_array_equal(u, g)  # residual starts at zero
        decoded = self.roundtrip(codec, u)
        fb.settle(0, u, decoded)
        np.testing.assert_array_equal(fb._residuals[0], u - decoded)
        assert 0.0 < fb.last_norm() <= 1e-2  # abs bound caps every element

        # next step folds the standing residual in
        fb.begin_step()
        u2 = fb.fold(0, g)
        np.testing.assert_array_equal(u2, g + (u - decoded))

    def test_residual_shrinks_with_decaying_gradients(self):
        """The acceptance property: as training converges (gradients
        decay), the EF residual norm shrinks over iterations."""
        codec = CodecSpec("szlike", {"error_bound": 1e-2, "mode": "rel"}).build()
        plan = _plan_of([(16, 16)], codec)
        fb = ErrorFeedback(plan, enabled=True)
        rng = np.random.default_rng(1)
        g0 = rng.standard_normal((16, 16)).astype(np.float32)
        norms = []
        for t in range(8):
            fb.begin_step()
            u = fb.fold(0, g0 * (0.5 ** t))
            fb.settle(0, u, self.roundtrip(codec, u))
            norms.append(fb.last_norm())
        assert norms[-1] < norms[0]
        assert norms[-1] < 0.5 * max(norms)

    def test_accumulated_applied_tracks_accumulated_true(self):
        """EF's convergence argument: sum of applied gradients stays
        within one residual of the sum of true gradients."""
        codec = CodecSpec("szlike", {"error_bound": 5e-2, "mode": "abs"}).build()
        plan = _plan_of([(32,)], codec)
        fb = ErrorFeedback(plan, enabled=True)
        rng = np.random.default_rng(2)
        true_sum = np.zeros(32, dtype=np.float64)
        applied_sum = np.zeros(32, dtype=np.float64)
        for _ in range(20):
            g = rng.standard_normal(32).astype(np.float32)
            fb.begin_step()
            u = fb.fold(0, g)
            decoded = self.roundtrip(codec, u)
            fb.settle(0, u, decoded)
            true_sum += g
            applied_sum += decoded
        # telescoping: true_sum - applied_sum == final residual
        np.testing.assert_allclose(
            true_sum - applied_sum, fb._residuals[0], atol=1e-5
        )
        assert np.abs(true_sum - applied_sum).max() <= 5e-2 + 1e-5

    def test_disabled_feedback_is_inert(self):
        codec = CodecSpec("szlike", {"error_bound": 1e-2, "mode": "abs"}).build()
        plan = _plan_of([(4, 4)], codec)
        fb = ErrorFeedback(plan, enabled=False)
        g = np.ones((4, 4), dtype=np.float32)
        fb.begin_step()
        assert fb.fold(0, g) is g
        fb.settle(0, g, np.zeros_like(g))
        assert fb.last_norm() == 0.0
        assert not fb._residuals[0].any()


class TestDeriveRankConfig:
    def test_strips_distributed_and_applies_budget(self):
        cfg = SessionConfig(
            storage=StorageSpec(activations="arena", budget_bytes=8 << 20),
            distributed=DistributedSpec(world_size=4, rank_arena_budget=1 << 20),
        )
        local = derive_rank_config(cfg.validate())
        assert local.distributed.world_size == 1
        assert local.distributed.rank_arena_budget is None
        assert local.storage.budget_bytes == 1 << 20
        # the source config is untouched
        assert cfg.distributed.world_size == 4
        assert cfg.storage.budget_bytes == 8 << 20

    def test_keeps_the_codec_and_bound_regime(self):
        cfg = SessionConfig(
            codec=CodecSpec("szlike", {"error_bound": 1e-3}),
            adaptive=AdaptiveSpec(enabled=False),
            distributed=DistributedSpec(world_size=2),
        )
        local = derive_rank_config(cfg.validate())
        assert (local.codec, local.adaptive) == (cfg.codec, cfg.adaptive)
        assert local.codec is not cfg.codec and local.adaptive is not cfg.adaptive
        # derived config passes single-worker validation
        local.validate()
