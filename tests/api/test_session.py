"""build_session contracts.

Three things are pinned here:

1. **One way to build**: ``build_session`` assembles every session —
   compressed or plain, resident or out-of-core — deterministically,
   and a build that fails leaves no profiler active and no store open.
2. **JSON == programmatic**: ``to_json -> from_json -> build_session``
   changes nothing — a committed file reproduces a run.
3. **Per-layer policies behave**: rules resolve the right codec / bound /
   storage per layer, fixed bounds survive the adaptive controller,
   per-rule accounting lands in the tracker.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.api import (
    AdaptiveSpec,
    CodecSpec,
    ConfigError,
    EngineSpec,
    OptimizerSpec,
    PolicyRule,
    ProfilerSpec,
    SessionConfig,
    StorageSpec,
    build_session,
)
from repro.api.config import _IGNORED_ENGINE_KEYS
from repro.compression.lossless import LosslessCompressedTensor
from repro.compression.szlike import CompressedTensor
from repro.core import SyncEngine
from repro.models import build_scaled_model
from repro.nn import SGD, Flatten, Linear, ReLU, Sequential, SyntheticImageDataset, batches

MIXED_CONFIG = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "configs",
    "mixed_policy_vgg.json",
)


def make_net(model="alexnet", seed=42, image_size=16):
    return build_scaled_model(model, num_classes=8, image_size=image_size, rng=seed)


def run(session, iters=5, batch=4, image_size=16, data_seed=7):
    dataset = SyntheticImageDataset(
        num_classes=8, image_size=image_size, signal=0.4, seed=data_seed
    )
    session.train(batches(dataset, batch, iters, seed=1))
    return session.history.losses


class TestBuildSession:
    CFG = SessionConfig(adaptive=AdaptiveSpec(W=10, warmup_iterations=2))

    def test_default_config_wires_figure_7(self):
        with build_session(make_net(), self.CFG) as s:
            assert isinstance(s.engine, SyncEngine)
            assert s.compressed.ctx.compressor.name == "szlike"
            assert s.param_store is None and s.profiler is None
            losses = run(s)
            ratios = list(s.tracker.iteration_ratios)
            bounds = dict(s.error_bounds)
            assert s.compressed.controller.updates > 0
            assert all(r > 1 for r in ratios)
        with build_session(make_net(), self.CFG) as s:
            np.testing.assert_array_equal(run(s), losses)
            assert list(s.tracker.iteration_ratios) == ratios
            assert dict(s.error_bounds) == bounds

    def test_out_of_core_params_bit_identical_to_resident(self):
        with build_session(make_net(), self.CFG) as s:
            losses_resident = run(s)
        cfg = SessionConfig(
            storage=StorageSpec(params="arena", param_budget_bytes=64 << 10),
            adaptive=AdaptiveSpec(W=10, warmup_iterations=2),
        )
        with build_session(make_net(), cfg) as s:
            np.testing.assert_array_equal(run(s), losses_resident)
            assert s.param_store is s.compressed.param_store
            assert s.param_store.fetch_count > 0

    def test_plain_session_with_param_store_and_profiler(self):
        with build_session(make_net(), SessionConfig(compress_activations=False)) as s:
            losses_plain = run(s)
            assert s.compressed is None and s.param_store is None
        cfg = SessionConfig(
            compress_activations=False,
            storage=StorageSpec(params="arena", param_budget_bytes=64 << 10),
            profiler=ProfilerSpec(enabled=True),
        )
        with build_session(make_net(), cfg) as s:
            np.testing.assert_array_equal(run(s), losses_plain)
            assert s.compressed is None
            assert s.param_store.fetch_count > 0
            assert s.profiler.total_seconds("step") > 0

    @staticmethod
    def _arenas_created(monkeypatch):
        from repro.core.arena import ByteArena

        created = []
        init = ByteArena.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            created.append(self)

        monkeypatch.setattr(ByteArena, "__init__", spy)
        return created

    def test_network_without_conv_layers_fails_clean(self, monkeypatch):
        from repro.utils import profiler

        created = self._arenas_created(monkeypatch)
        net = Sequential([Flatten(), Linear(3 * 16 * 16, 8, rng=1), ReLU()])
        cfg = SessionConfig(
            storage=StorageSpec(activations="arena", params="arena"),
            profiler=ProfilerSpec(enabled=True),
        )
        with pytest.raises(ConfigError, match="no compressible"):
            build_session(net, cfg)
        assert profiler.get_active() is None
        assert all(arena._closed for arena in created)
        # the same network trains uncompressed
        cfg.compress_activations = False
        with build_session(net, cfg) as s:
            run(s, iters=1)

    def test_failed_build_leaves_nothing_behind(self, monkeypatch):
        """A failure after the arenas, the param store and the profiler
        exist (here: the session codec's options) undoes all of them."""
        from repro.utils import profiler

        created = self._arenas_created(monkeypatch)
        net = make_net()
        cfg = SessionConfig(
            codec=CodecSpec("szlike", {"entropy": "bogus"}),
            storage=StorageSpec(activations="arena", params="arena"),
            profiler=ProfilerSpec(enabled=True),
        )
        with pytest.raises(ConfigError, match="entropy"):
            build_session(net, cfg)
        assert profiler.get_active() is None
        assert len(created) == 2  # the activation arena and the param store's
        assert all(arena._closed for arena in created)
        # nothing was attached to the network either: it trains as before
        with build_session(net, self.CFG) as s:
            assert np.isfinite(run(s, iters=1)).all()


class TestJsonReproducibility:
    def test_json_round_trip_trains_bit_identically(self):
        cfg = SessionConfig(
            codec=CodecSpec("szlike", {"entropy": "zlib"}),
            rules=[PolicyRule(match="l0", error_bound=1e-3)],
            storage=StorageSpec(activations="arena", budget_bytes=1 << 20),
            adaptive=AdaptiveSpec(W=10, warmup_iterations=2),
        )
        with build_session(make_net(), cfg) as s1:
            losses_direct = run(s1)
            ratios_direct = list(s1.tracker.iteration_ratios)

        with build_session(make_net(), SessionConfig.from_json(cfg.to_json())) as s2:
            np.testing.assert_array_equal(run(s2), losses_direct)
            assert list(s2.tracker.iteration_ratios) == ratios_direct

    def test_committed_mixed_policy_config_acceptance(self):
        """The acceptance artifact: the committed JSON builds a
        mixed-policy VGG session (>= 2 distinct codecs and bound
        regimes via globs), round-trips unchanged, and trains
        bit-identically to the programmatically-built equivalent."""
        cfg = SessionConfig.from_json(MIXED_CONFIG)
        assert SessionConfig.from_json(cfg.to_json()).to_dict() == cfg.to_dict()

        with build_session(make_net("vgg16"), cfg) as s1:
            losses_file = run(s1, iters=4, batch=4)
            groups = {r.layer_name: r.packs for r in s1.tracker.group_summary()}
            table = s1.policy_table
            # globs spread the conv layers across >= 2 rule groups
            assert groups["early-tight"] > 0
            assert groups["mid-lossless"] > 0
            assert groups["late-chunked"] > 0
            assert table.group_of("l0") == "early-tight"
            assert table.group_of("l5") == "mid-lossless"
            assert table.group_of("l10") == "late-chunked"
            # distinct codecs actually packed: SZ for l0, lossless for l5
            ctx = s1.compressed.ctx
            assert type(ctx._layer_codec["l0"]) is not type(ctx._layer_codec["l5"])
            # distinct error-bound regimes: l0/l2 pinned, others adaptive
            assert s1.error_bounds["l0"] == pytest.approx(5e-4)
            assert s1.error_bounds["l2"] == pytest.approx(5e-4)
            assert s1.error_bounds["l10"] != pytest.approx(5e-4)

        # programmatic twin: same tree built in Python, not parsed
        with build_session(make_net("vgg16"), SessionConfig.from_dict(cfg.to_dict())) as s2:
            np.testing.assert_array_equal(run(s2, iters=4, batch=4), losses_file)


class TestPolicyBehaviour:
    def _mixed_session(self, **overrides):
        defaults = dict(
            rules=[
                PolicyRule(match="l0", label="pinned", error_bound=2e-3),
                PolicyRule(match="l4", label="loose", codec=CodecSpec("lossless")),
            ],
            adaptive=AdaptiveSpec(W=2, warmup_iterations=2),
        )
        defaults.update(overrides)
        return build_session(make_net(), SessionConfig(**defaults))

    def test_fixed_bound_survives_adaptive_updates(self):
        with self._mixed_session() as s:
            run(s, iters=6)
            assert s.compressed.controller.updates > 0
            assert s.error_bounds["l0"] == pytest.approx(2e-3)
            # unmatched layers were adapted away from the pinned value
            others = [v for k, v in s.error_bounds.items() if k not in ("l0",)]
            assert any(v != pytest.approx(2e-3) for v in others)

    def test_rule_codec_actually_packs_that_family(self):
        packed = {}

        with self._mixed_session() as s:
            ctx = s.compressed.ctx
            orig = ctx._finalize_pack

            def spying(handle, payload):
                packed[handle.layer_name] = payload[0]
                orig(handle, payload)

            ctx._finalize_pack = spying
            run(s, iters=1)
        assert isinstance(packed["l4"], LosslessCompressedTensor)
        assert isinstance(packed["l0"], CompressedTensor)

    def test_per_rule_inmem_storage_under_arena_session(self):
        cfg = SessionConfig(
            rules=[PolicyRule(match="l0", label="hot", storage="inmem")],
            storage=StorageSpec(activations="arena", budget_bytes=1 << 20),
            adaptive=AdaptiveSpec(W=10, warmup_iterations=2),
        )
        seen = {"hot_arena": 0, "other_arena": 0, "other_total": 0}
        with build_session(make_net(), cfg) as s:
            ctx = s.compressed.ctx
            orig = ctx._finalize_pack

            def spying(handle, payload):
                orig(handle, payload)
                if handle.layer_name == "l0":
                    assert handle.arena_key is None, "inmem rule must skip the arena"
                    seen["hot_arena"] += handle.arena_key is not None
                else:
                    seen["other_total"] += 1
                    seen["other_arena"] += handle.arena_key is not None

            ctx._finalize_pack = spying
            run(s, iters=2)
        assert seen["other_total"] > 0 and seen["other_arena"] == seen["other_total"]

    def test_per_rule_group_accounting(self):
        with self._mixed_session() as s:
            run(s, iters=3)
            groups = {r.layer_name: r for r in s.tracker.group_summary()}
            assert set(groups) >= {"pinned", "loose", "default"}
            assert groups["pinned"].packs == 3  # one conv1 pack per iteration
            # group ledger is consistent with the per-layer ledger
            assert groups["pinned"].raw_bytes == s.tracker.per_layer["l0"].raw_bytes

    def test_per_rule_eb_clamp_override(self):
        cfg = SessionConfig(
            rules=[PolicyRule(match="l0", label="capped", eb_max=1e-6)],
            adaptive=AdaptiveSpec(W=2, warmup_iterations=2),
        )
        with build_session(make_net(), cfg) as s:
            run(s, iters=6)
            assert s.compressed.controller.updates > 0
            assert s.error_bounds["l0"] <= 1e-6

    def test_adaptive_disabled_keeps_warmup_bounds(self):
        cfg = SessionConfig(adaptive=AdaptiveSpec(enabled=False, W=2))
        with build_session(make_net(), cfg) as s:
            run(s, iters=5)
            assert s.compressed.controller.updates == 0
            assert s.compressed.adaptive_enabled is False

    def test_session_close_is_idempotent_and_owned(self):
        cfg = SessionConfig(
            storage=StorageSpec(params="arena", param_budget_bytes=32 << 10),
            profiler=ProfilerSpec(enabled=True),
            adaptive=AdaptiveSpec(W=10, warmup_iterations=2),
        )
        s = build_session(make_net(), cfg)
        run(s, iters=2)
        s.close()
        s.close()  # idempotent
        # parameters restored to residency by the one close
        for p in s.network.parameters():
            assert np.isfinite(p.data).all()

    def test_prebuilt_optimizer_override(self):
        net = make_net()
        opt = SGD(net.parameters(), lr=0.05, momentum=0.0)
        with build_session(net, SessionConfig(), optimizer=opt) as s:
            assert s.optimizer is opt

    def test_adam_from_config(self):
        cfg = SessionConfig(
            optimizer=OptimizerSpec(kind="adam", lr=1e-3,
                                    options={"betas": [0.9, 0.99]}),
            adaptive=AdaptiveSpec(W=10, warmup_iterations=2),
        )
        with build_session(make_net(), cfg) as s:
            losses = run(s, iters=3)
            assert np.isfinite(losses).all()
            assert s.optimizer.betas == (0.9, 0.99)


class TestStorageKnobWiring:
    """build_session threads the storage and engine knobs into the live
    stack."""

    def _cfg(self, **engine_kwargs):
        return SessionConfig(
            storage=StorageSpec(
                activations="arena", budget_bytes=1 << 16,
                params="arena", param_budget_bytes=1 << 16,
            ),
            engine=EngineSpec(**engine_kwargs),
            adaptive=AdaptiveSpec(W=10, warmup_iterations=2),
        )

    def test_rule_arena_budget_reaches_the_arena(self):
        cfg = self._cfg()
        cfg.rules = [PolicyRule(
            match="l0", label="front", codec=CodecSpec("lossless"),
            arena_budget=2048,
        )]
        with build_session(make_net(), cfg) as s:
            run(s, iters=3)
            stats = s.compressed.ctx.storage.group_stats()
            assert stats["front"]["budget_bytes"] == 2048
            assert stats["front"]["spill_count"] > 0  # cap actually bites

    def test_shared_codebook_cache_upgrades_codecs(self):
        from repro.compression.szlike import SharedCodebookCache

        cfg = self._cfg(shared_codebook_cache=True)
        cfg.codec = CodecSpec("szlike", {"entropy": "huffman", "codebook_cache": True})
        cfg.rules = [PolicyRule(
            match="l0", label="front",
            codec=CodecSpec("szlike", {"entropy": "huffman", "codebook_cache": True,
                                       "error_bound": 1e-3}),
        )]
        with build_session(make_net(), cfg) as s:
            assert isinstance(
                s.compressed.ctx.compressor.codebook_cache, SharedCodebookCache
            )
            rule_codec = s.policy_table.rules[0].codec
            assert isinstance(rule_codec.codebook_cache, SharedCodebookCache)
            run(s, iters=2)

    @pytest.mark.parametrize(
        "key,value", list(zip(_IGNORED_ENGINE_KEYS, ("async", 4, "auto")))
    )
    def test_ignored_engine_key_trains_bit_identically(self, key, value):
        """The removed engine's still-accepted keys change nothing about
        the run they appear in."""
        with build_session(make_net(), self._cfg()) as s:
            reference = run(s, iters=3)
        cfg = SessionConfig.from_dict({**self._cfg().to_dict(), "engine": {key: value}})
        with build_session(make_net(), cfg) as s:
            assert isinstance(s.engine, SyncEngine)
            np.testing.assert_array_equal(run(s, iters=3), reference)

    def test_knobs_round_trip_through_json(self, tmp_path):
        cfg = self._cfg(shared_codebook_cache=True)
        cfg.rules = [PolicyRule(match="l0", label="front", arena_budget=4096)]
        path = tmp_path / "knobs.json"
        cfg.to_json(str(path))
        rebuilt = SessionConfig.from_json(str(path))
        assert rebuilt == cfg


class TestConfigRoundTripSurface:
    """Satellite: Session.from_json + session.capture() identities."""

    def test_from_json_builds_and_trains(self, tmp_path):
        cfg = SessionConfig(adaptive=AdaptiveSpec(W=10, warmup_iterations=2))
        path = tmp_path / "run.json"
        cfg.to_json(str(path))
        from repro.api import Session

        with Session.from_json(str(path), make_net()) as s:
            losses_file = run(s)
        with build_session(make_net(), cfg) as s:
            losses_cfg = run(s)
        np.testing.assert_array_equal(losses_file, losses_cfg)

    def test_capture_is_identity(self):
        cfg = SessionConfig(
            rules=[PolicyRule(match="l0", codec=CodecSpec("lossless"))],
            engine=EngineSpec(kernel_backend="numpy"),
            adaptive=AdaptiveSpec(W=10, warmup_iterations=2),
        )
        with build_session(make_net(), cfg) as s:
            captured = s.capture()
        assert captured.to_dict() == cfg.to_dict()
        assert captured is not cfg  # an independent copy

    def test_capture_round_trips_distributed_config(self):
        from repro.api import DistributedSpec

        cfg = SessionConfig(
            compress_activations=False,
            distributed=DistributedSpec(world_size=2),
        )
        with build_session(make_net(), cfg) as s:
            captured = s.capture()
        assert captured.to_dict() == cfg.to_dict()
        assert captured.distributed.world_size == 2

    def test_captured_config_rebuilds_the_same_run(self):
        cfg = SessionConfig(adaptive=AdaptiveSpec(W=10, warmup_iterations=2))
        with build_session(make_net(), cfg) as s:
            losses_a = run(s)
            captured = s.capture()
        with build_session(make_net(), captured) as s:
            losses_b = run(s)
        np.testing.assert_array_equal(losses_a, losses_b)


class TestKernelBackendWiring:
    def test_engine_backend_applies_to_session_codec(self):
        cfg = SessionConfig(
            engine=EngineSpec(kernel_backend="numpy"),
            adaptive=AdaptiveSpec(W=10, warmup_iterations=2),
        )
        with build_session(make_net(), cfg) as s:
            stats = s.kernel_stats
            assert stats["selected_backend"] == "numpy"
            for key in ("numba_probed", "auto_fallbacks", "runtime_fallbacks"):
                assert key in stats

    def test_rule_backend_override_clones_session_codec(self):
        cfg = SessionConfig(
            rules=[PolicyRule(match="l0", kernel_backend="numpy", label="pinned")],
            adaptive=AdaptiveSpec(W=10, warmup_iterations=2),
        )
        with build_session(make_net(), cfg) as s:
            table = s.policy_table
            pol = table.rules[0]
            # the override got its own clone of the session codec ...
            assert pol.codec is not None
            session_codec = s.compressed.ctx.compressor
            assert pol.codec is not session_codec
            assert pol.codec.kernel_backend_selected == "numpy"
            run(s, iters=2)

    def test_explicit_numba_unavailable_fails_at_build(self):
        from repro.kernels import available_backends

        if "numba" in available_backends():
            pytest.skip("numba installed: explicit selection succeeds here")
        cfg = SessionConfig(engine=EngineSpec(kernel_backend="numba"))
        with pytest.raises(ConfigError, match="unavailable"):
            build_session(make_net(), cfg)

    def test_auto_fallback_counter_visible_in_session_stats(self, monkeypatch):
        import sys

        from repro.kernels.backends import _reset_probe_for_tests

        _reset_probe_for_tests()
        try:
            monkeypatch.setitem(sys.modules, "numba", None)  # poison the probe
            cfg = SessionConfig(adaptive=AdaptiveSpec(W=10, warmup_iterations=2))
            with build_session(make_net(), cfg) as s:
                losses = run(s, iters=2)
                assert len(losses) == 2  # degraded silently, training works
                stats = s.kernel_stats
                assert stats["selected_backend"] == "numpy"
                assert stats["numba_available"] is False
                assert stats["auto_fallbacks"] >= 1
        finally:
            _reset_probe_for_tests()
