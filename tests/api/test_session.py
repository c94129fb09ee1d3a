"""build_session contracts.

Three things are pinned here:

1. **One way to build**: ``build_session`` assembles every session —
   compressed or plain, resident or out-of-core — deterministically,
   and a build that fails leaves no profiler active and no store open.
2. **JSON == programmatic**: ``to_json -> from_json -> build_session``
   changes nothing — a committed file reproduces a run.
3. **One codec, one bound regime**: every compressible layer whose
   input needs a gradient packs with the session codec, under the
   controller's clamped per-layer bounds when it is enabled and under
   the codec's own bound when it is not; accounting lands in the
   tracker per layer.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.api import (
    AdaptiveSpec,
    CodecSpec,
    ConfigError,
    EngineSpec,
    ProfilerSpec,
    SessionConfig,
    StorageSpec,
    build_session,
)
from repro.api.config import _IGNORED_ENGINE_KEYS
from repro.compression.jpeg_like import JpegCompressedTensor
from repro.compression.lossless import LosslessCompressedTensor
from repro.compression.szlike import CompressedTensor
from repro.core import SyncEngine
from repro.models import build_scaled_model
from repro.nn import SGD, Flatten, Linear, ReLU, Sequential, SyntheticImageDataset, batches

REPO = os.path.join(os.path.dirname(__file__), "..", "..")


#: the convs of ``make_net()``: a training step feeds the first one the
#: data batch, whose gradient nobody reads, so it packs nothing
CONVS = ("l0", "l4", "l8", "l10", "l12")
PACKING = set(CONVS[1:])


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
            assert s.param_store.tracker is s.tracker
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
            assert s.profiler.snapshot()["step"]["seconds"] > 0

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

    def test_network_without_parameters_is_a_config_error(self):
        net = Sequential([Flatten(), ReLU()])
        with pytest.raises(ConfigError, match="optimizer: .*no parameters"):
            build_session(net, SessionConfig(compress_activations=False))

    def test_network_whose_only_conv_is_batch_fed_fails_clean(self):
        """A training step saves the batch-fed conv's input by reference,
        so compressing this network would pack nothing: a ratio of 0.0
        and no bounds, every step."""
        from repro.models.specs import ConvS, FlattenS, LinearS, ReLUS, build_network

        specs = [ConvS(8, 3, padding=1), ReLUS(), FlattenS(), LinearS(8)]
        net = build_network(specs, (4, 3, 12, 12), rng=1)
        with pytest.raises(ConfigError, match="no compressible"):
            build_session(net, SessionConfig())
        with build_session(net, SessionConfig(compress_activations=False)) as s:
            assert np.isfinite(run(s, iters=1, image_size=12)).all()

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
            storage=StorageSpec(activations="arena", budget_bytes=1 << 20),
            adaptive=AdaptiveSpec(W=10, warmup_iterations=2),
        )
        with build_session(make_net(), cfg) as s1:
            losses_direct = run(s1)
            ratios_direct = list(s1.tracker.iteration_ratios)

        with build_session(make_net(), SessionConfig.from_json(cfg.to_json())) as s2:
            np.testing.assert_array_equal(run(s2), losses_direct)
            assert list(s2.tracker.iteration_ratios) == ratios_direct

    def test_fixed_bound_session_round_trips_bit_identically(self):
        cfg = SessionConfig(
            codec=CodecSpec("szlike", {"entropy": "zlib", "error_bound": 2e-3}),
            adaptive=AdaptiveSpec(enabled=False),
        )
        assert SessionConfig.from_json(cfg.to_json()) == cfg
        with build_session(make_net(), cfg) as s1:
            losses_direct = run(s1)
        with build_session(make_net(), SessionConfig.from_json(cfg.to_json())) as s2:
            np.testing.assert_array_equal(run(s2), losses_direct)


class TestBoundRegime:
    @pytest.mark.parametrize(
        "codec,family",
        [
            (CodecSpec("lossless"), LosslessCompressedTensor),
            (CodecSpec("sparse-lossless"), LosslessCompressedTensor),
            (CodecSpec("szlike"), CompressedTensor),
            (CodecSpec("jpeg"), JpegCompressedTensor),
        ],
        ids=["lossless", "sparse-lossless", "szlike", "jpeg"],
    )
    def test_session_codec_packs_every_layer(self, codec, family):
        packed = {}
        with build_session(make_net(), SessionConfig(codec=codec)) as s:
            ctx = s.compressed.ctx
            orig = ctx._finalize_pack

            def spying(handle, payload):
                packed[handle.layer_name] = payload[0]
                orig(handle, payload)

            ctx._finalize_pack = spying
            run(s, iters=1)
            assert set(packed) == set(s.tracker.per_layer) == PACKING
            assert "l0" not in packed
        assert all(type(ct) is family for ct in packed.values())

    def test_every_layer_packs_into_the_session_arena(self):
        cfg = SessionConfig(
            codec=CodecSpec("lossless"),
            storage=StorageSpec(activations="arena", budget_bytes=1 << 20),
            adaptive=AdaptiveSpec(W=10, warmup_iterations=2),
        )
        packed = []
        with build_session(make_net(), cfg) as s:
            ctx = s.compressed.ctx
            orig = ctx._finalize_pack

            def spying(handle, payload):
                orig(handle, payload)
                packed.append((handle.layer_name, handle.arena_key is not None))

            ctx._finalize_pack = spying
            run(s, iters=2)
        assert {name for name, _ in packed} == PACKING
        assert all(in_arena for _, in_arena in packed)

    def test_per_layer_accounting(self):
        with build_session(make_net(), SessionConfig(adaptive=AdaptiveSpec(W=2))) as s:
            run(s, iters=3)
            rows = s.tracker.summary()
            assert [r.layer_name for r in rows] == ["l10", "l12", "l4", "l8"]
            assert all(r.packs == 3 and r.raw_bytes > r.stored_bytes for r in rows)

    @pytest.mark.parametrize("eb_min,eb_max", [(1e-12, 1e-6), (1.0, 2.0)], ids=["cap", "floor"])
    def test_controller_bounds_stay_inside_the_clamps(self, eb_min, eb_max, monkeypatch):
        """Every bound the controller writes is clipped to
        ``EB_MIN`` / ``EB_MAX``, on every layer."""
        from repro.core import adaptive

        monkeypatch.setattr(adaptive, "EB_MIN", eb_min)
        monkeypatch.setattr(adaptive, "EB_MAX", eb_max)
        cfg = SessionConfig(adaptive=AdaptiveSpec(W=2, warmup_iterations=2))
        with build_session(make_net(), cfg) as s:
            written = []
            controller = s.compressed.controller
            update = controller.update_error_bounds

            def spying(params):
                new = update(params)
                written.extend(new.values())
                return new

            controller.update_error_bounds = spying
            run(s, iters=6)
            assert controller.updates > 0
            assert written and all(eb_min <= eb <= eb_max for eb in written)
            assert set(s.error_bounds) == PACKING

    @pytest.mark.parametrize("activations", ["inmem", "arena"])
    @pytest.mark.parametrize("mode", ["abs", "rel"])
    def test_adaptive_disabled_packs_under_the_codec_bound(self, mode, activations):
        """With the controller off, every layer is compressed under the
        codec's own ``error_bound`` / ``mode``, and ``error_bounds``
        records the bound its latest blob was written under."""
        cfg = SessionConfig(
            codec=CodecSpec("szlike", {"error_bound": 2e-3, "mode": mode}),
            storage=StorageSpec(activations=activations),
            adaptive=AdaptiveSpec(enabled=False, W=2),
        )
        blobs = {}
        with build_session(make_net(), cfg) as s:
            ctx = s.compressed.ctx
            orig = ctx._finalize_pack

            def spying(handle, payload):
                blobs[handle.layer_name] = payload[0]
                orig(handle, payload)

            ctx._finalize_pack = spying
            run(s, iters=5)
            assert s.compressed.controller.updates == 0
            assert s.compressed.config.enabled is False
            assert s.error_bounds == {name: ct.error_bound for name, ct in blobs.items()}
        assert set(blobs) == PACKING
        if mode == "abs":
            assert set(s.error_bounds.values()) == {2e-3}
        else:  # 2e-3 of each tensor's value range
            assert all(eb != 2e-3 for eb in s.error_bounds.values())

    def test_adaptive_disabled_collects_no_statistics(self):
        """A disabled controller never taps a backward: no loss scale,
        no sigma budget, no Eq. 9 bound."""
        cfg = SessionConfig(
            codec=CodecSpec("szlike", {"error_bound": 2e-3}),
            adaptive=AdaptiveSpec(enabled=False, W=1, warmup_iterations=3),
        )
        with build_session(make_net(), cfg) as s:
            run(s, iters=3)
            controller = s.compressed.controller
            assert controller.loss_scales == controller.sigma_budgets == {}
            assert not any("mean_error_bound" in r.extras for r in s.history.records)

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

    def test_codebook_cache_true_trains_bit_identically(self):
        """A codec naming the removed ``codebook_cache`` switch as true
        (the committed benchmark configs do) trains as one without it;
        any other value is an unknown codec option."""
        with build_session(make_net(), self._cfg()) as s:
            reference = run(s, iters=3)

        def cfg(value):
            codec = {"name": "szlike", "options": {"codebook_cache": value}}
            return SessionConfig.from_dict({**self._cfg().to_dict(), "codec": codec})

        assert cfg(True).codec == CodecSpec("szlike")
        with build_session(make_net(), cfg(True)) as s:
            np.testing.assert_array_equal(run(s, iters=3), reference)
        with pytest.raises(ConfigError, match="codebook_cache"):
            build_session(make_net(), cfg(False))

    def test_a_default_session_caches_one_book_per_layer(self):
        """Saved tensors are keyed by layer name, so a session's Huffman
        codec reuses each layer's book from its second step on."""
        with build_session(make_net(), self._cfg()) as s:
            run(s, iters=3)
            ctx = s.compressed.ctx
            stats = ctx.compressor.codebook_cache.stats()
        assert stats["entries"] == len(s.tracker.per_layer) > 0
        assert stats["builds"] == stats["entries"] and stats["hits"] > 0

    def test_knobs_round_trip_through_json(self, tmp_path):
        cfg = self._cfg(kernel_backend="numpy")
        cfg.adaptive.initial_rel_eb = 1e-4
        path = tmp_path / "knobs.json"
        cfg.to_json(str(path))
        rebuilt = SessionConfig.from_json(str(path))
        assert rebuilt == cfg


#: every committed config of a single-process session
SINGLE_PROCESS_CONFIGS = [
    os.path.join(REPO, "benchmarks", "configs", "session.json"),
    *(
        os.path.join(REPO, "benchmarks", "e2e", "configs", f"train_{name}.json")
        for name in ("raw", "sz", "ooc")
    ),
]


@pytest.mark.parametrize("path", SINGLE_PROCESS_CONFIGS, ids=os.path.basename)
def test_single_process_session_starts_no_thread(path):
    """Every pack, unpack, spill and fetch is a call on the training
    thread: building, training and closing a session from a committed
    single-process config leaves the process's threads as they were."""
    before = threading.enumerate()
    cfg = SessionConfig.from_json(path)
    assert cfg.distributed.world_size == 1
    dataset = SyntheticImageDataset(num_classes=8, image_size=16, signal=0.4, seed=7)
    with build_session(make_net("vgg16"), cfg) as s:
        assert threading.enumerate() == before
        for images, labels in batches(dataset, 4, 3, seed=1):
            s.train_step(images, labels)
            assert threading.enumerate() == before
    assert threading.enumerate() == before


def test_session_codecs_lists_every_built_codec():
    """What the server re-points at its codebook table: the session
    codec, then the parameter codec."""
    from repro.api.session import session_codecs

    param_codec = StorageSpec(params="arena", param_codec=CodecSpec("lossless"))
    cfg = SessionConfig(storage=param_codec, adaptive=AdaptiveSpec(W=10, warmup_iterations=2))
    with build_session(make_net(), cfg) as s:
        assert session_codecs(s) == [s.compressed.ctx.compressor, s.param_store.codec]
    with build_session(make_net(), SessionConfig()) as s:
        assert session_codecs(s) == [s.compressed.ctx.compressor]
    with build_session(make_net(), SessionConfig(compress_activations=False)) as s:
        assert session_codecs(s) == []
    cfg = SessionConfig(compress_activations=False, storage=param_codec)
    with build_session(make_net(), cfg) as s:
        assert session_codecs(s) == [s.param_store.codec]


class TestConfigRoundTripSurface:
    """session.capture() identities."""

    def test_capture_is_identity(self):
        cfg = SessionConfig(
            codec=CodecSpec("lossless"),
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

    def test_session_codec_without_kernels_selects_no_backend(self):
        cfg = SessionConfig(
            codec=CodecSpec("lossless"),
            engine=EngineSpec(kernel_backend="numpy"),
            adaptive=AdaptiveSpec(W=10, warmup_iterations=2),
        )
        with build_session(make_net(), cfg) as s:
            assert s.kernel_stats["selected_backend"] is None
        with build_session(make_net(), SessionConfig(compress_activations=False)) as s:
            assert s.kernel_stats["selected_backend"] is None

    def test_codec_options_backend_wins_over_the_engine(self):
        """``engine.kernel_backend`` applies to the session codec unless
        its options name a backend of their own."""
        cfg = SessionConfig(
            codec=CodecSpec("szlike", {"kernel_backend": "auto"}),
            engine=EngineSpec(kernel_backend="numpy"),
            adaptive=AdaptiveSpec(W=10, warmup_iterations=2),
        )
        with build_session(make_net(), cfg) as s:
            assert s.compressed.ctx.compressor.kernel_backend == "auto"
            run(s, iters=1)

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
