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
import re
import threading

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

REPO = os.path.join(os.path.dirname(__file__), "..", "..")
MIXED_CONFIG = os.path.join(REPO, "examples", "configs", "mixed_policy_vgg.json")


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
            policies = s1.compressed.ctx.policies
            # globs spread the conv layers across >= 2 rule groups
            assert groups["early-tight"] > 0
            assert groups["mid-lossless"] > 0
            assert groups["late-zlib"] > 0
            assert policies["l0"].group == "early-tight"
            assert policies["l5"].group == "mid-lossless"
            assert policies["l10"].group == "late-zlib"
            # distinct codecs: SZ for l0, lossless for l5, zlib-stage SZ for l10
            assert type(policies["l0"].codec) is not type(policies["l5"].codec)
            assert (policies["l0"].codec.entropy, policies["l10"].codec.entropy) == (
                "huffman", "zlib",
            )
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

    def test_every_rule_layer_packs_into_the_session_arena(self):
        cfg = SessionConfig(
            rules=[PolicyRule(match="l0", label="hot", codec=CodecSpec("lossless"))],
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
        assert ("l0", True) in packed
        assert all(in_arena for _, in_arena in packed)

    def test_per_rule_group_accounting(self):
        with self._mixed_session() as s:
            run(s, iters=3)
            groups = {r.layer_name: r for r in s.tracker.group_summary()}
            assert set(groups) >= {"pinned", "loose", "default"}
            assert groups["pinned"].packs == 3  # one conv1 pack per iteration
            # group ledger is consistent with the per-layer ledger
            assert groups["pinned"].raw_bytes == s.tracker.per_layer["l0"].raw_bytes

    def test_default_label_is_reserved_for_unmatched_layers(self):
        """A rule labelled ``"default"`` shared the unmatched layers'
        group: one ``group_summary()`` row for lossless l0 and szlike rest."""
        rule = PolicyRule(match="l0", label="default", codec=CodecSpec("lossless"))
        reserved = r"^rules\[0\]: label 'default' is reserved"
        with pytest.raises(ConfigError, match=reserved):
            SessionConfig.from_dict({"rules": [rule.to_dict()]})
        with pytest.raises(ConfigError, match=reserved):
            build_session(make_net("vgg16"), SessionConfig(rules=[rule]))

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
            assert s.compressed.config.enabled is False

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


#: the compressible layers of the scaled ResNet-18 that
#: ``TestRuleResolution`` matches its globs against
RESNET_LAYERS = [
    "l0", "l3.m0", "l3.m3", "l5.m0", "l5.m3", "l5.s0", "l7.m0", "l7.m3", "l7.s0",
]

#: rule lists: character classes, ``?``, overlapping globs, shadowing,
#: case and whole-name matching
GLOB_CASES = {
    "class-qmark-catchall": ["l[0-3]*", "l5.?0", "*"],
    "overlapping": ["l?.m?", "l5*", "*.s0"],
    "negated-class": ["l7.[ms]0", "l[!7]*", "l7.m3"],
    "partial-cover": ["*.s?", "l[35].m[03]"],
    "shadowed-by-catchall": ["*", "l0"],
    "shadowed-by-overlap": ["l?.m*", "l[357].m0", "l0"],
    "case-sensitive": ["L0"],
    "whole-name": ["l5"],
}


class TestRuleResolution:
    """``build_session`` resolves each compressible layer's policy once:
    its first matching rule (``fnmatchcase``) over the ``adaptive``
    section.  A rule that is the first match of no layer is an error."""

    @staticmethod
    def _build(rules, **cfg):
        net = build_scaled_model("resnet18", num_classes=8, image_size=16, rng=0)
        return build_session(net, SessionConfig(rules=rules, **cfg))

    @pytest.mark.parametrize("patterns", GLOB_CASES.values(), ids=GLOB_CASES.keys())
    def test_label_is_the_brute_force_first_match(self, patterns):
        from fnmatch import fnmatchcase

        expected = {
            name: next(
                (f"r{i}" for i, p in enumerate(patterns) if fnmatchcase(name, p)), "default"
            )
            for name in RESNET_LAYERS
        }
        rules = [PolicyRule(match=p, label=f"r{i}") for i, p in enumerate(patterns)]
        dead = [i for i in range(len(patterns)) if f"r{i}" not in expected.values()]
        if dead:
            with pytest.raises(ConfigError, match=rf"^rules\[{dead[0]}\] \(match="):
                self._build(rules)
            return
        with self._build(rules) as s:
            policies = s.compressed.ctx.policies
            assert list(policies) == RESNET_LAYERS
            assert {name: pol.group for name, pol in policies.items()} == expected

    @pytest.mark.parametrize(
        "rules,dead",
        [
            ([PolicyRule(match="conv*", codec=CodecSpec("lossless"))], 0),
            ([PolicyRule(match="*"), PolicyRule(match="l0", codec=CodecSpec("lossless"))], 1),
        ],
        ids=["matches-nothing", "shadowed"],
    )
    def test_dead_rule_is_a_config_error(self, rules, dead):
        """Ignoring a dead rule trains its layers wrongly: on the scaled
        VGG (layers ``l0 ... l12``) a lossless ``conv*`` rule would leave
        every layer lossy under the session codec."""
        names = "l0, l2, l5, l7, l10, l12"
        message = rf"^rules\[{dead}\] \(match='{re.escape(rules[dead].match)}'\).*{names}$"
        with pytest.raises(ConfigError, match=message):
            build_session(make_net("vgg16"), SessionConfig(rules=rules))

    def test_one_record_per_rule_with_merged_clamps(self):
        lossless = CodecSpec("lossless")
        with self._build(
            [
                PolicyRule(match="l[05]*", label="front", codec=lossless, eb_max=1e-3),
                PolicyRule(match="l3.m0", error_bound=2e-3),
            ],
            adaptive=AdaptiveSpec(initial_rel_eb=1e-2, eb_min=1e-9),
        ) as s:
            ctx = s.compressed.ctx
            front = ctx.policies["l0"]
            assert all(ctx.policies[n] is front for n in ("l5.m0", "l5.m3", "l5.s0"))
            assert front.codec.name == "lossless"
            assert (front.initial_rel_eb, front.eb_min, front.eb_max) == (1e-2, 1e-9, 1e-3)
            assert front.adaptive and front.error_bound is None
            pinned = ctx.policies["l3.m0"]
            assert (pinned.group, pinned.codec, pinned.adaptive) == ("rule1", ctx.compressor, False)
            assert pinned.error_bound == 2e-3
            rest = ctx.policies["l7.m0"]
            assert (rest.group, rest.codec, rest.eb_max) == ("default", ctx.compressor, 10.0)

    def test_no_rules_no_group(self):
        with self._build([]) as s:
            ctx = s.compressed.ctx
            assert {pol.group for pol in ctx.policies.values()} == {""}
            assert all(pol.codec is ctx.compressor for pol in ctx.policies.values())
            run(s, iters=1)
            assert s.tracker.group_summary() == []


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

    def test_rule_labels_tag_arena_entries(self):
        """Each pack's arena entry carries its rule's label, so
        ``group_stats()`` has one residency / spill row per rule."""
        cfg = self._cfg()
        cfg.storage.budget_bytes = 4096
        cfg.rules = [PolicyRule(match="l0", label="front", codec=CodecSpec("lossless"))]
        with build_session(make_net(), cfg) as s:
            run(s, iters=3)
            arena = s.compressed.ctx.storage
            stats = arena.group_stats()
            assert set(stats) == {"front", "default"}
            assert sum(row["spill_count"] for row in stats.values()) == arena.spill_count > 0
            assert all(row["in_memory_nbytes"] == row["spilled_nbytes"] == 0
                       for row in stats.values())  # every pack released by backward

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
        assert stats["entries"] == len(ctx.policies) > 0
        assert stats["builds"] == stats["entries"] and stats["hits"] > 0

    def test_knobs_round_trip_through_json(self, tmp_path):
        cfg = self._cfg(kernel_backend="numpy")
        cfg.rules = [PolicyRule(match="l0", label="front", eb_min=1e-6)]
        path = tmp_path / "knobs.json"
        cfg.to_json(str(path))
        rebuilt = SessionConfig.from_json(str(path))
        assert rebuilt == cfg


#: every committed config of a single-process session
SINGLE_PROCESS_CONFIGS = [
    MIXED_CONFIG,
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


def test_session_codecs_lists_every_built_codec_once():
    """What the server re-points at its codebook table: the session
    codec, each rule's own codec and the parameter codec, once each."""
    from repro.api.session import session_codecs

    cfg = SessionConfig(
        rules=[
            PolicyRule(match="l0", codec=CodecSpec("szlike", {"entropy": "zlib"})),
            PolicyRule(match="l[48]", codec=CodecSpec("lossless")),
            PolicyRule(match="l10", error_bound=1e-3),
        ],
        storage=StorageSpec(params="arena", param_codec=CodecSpec("lossless")),
        adaptive=AdaptiveSpec(W=10, warmup_iterations=2),
    )
    with build_session(make_net(), cfg) as s:
        ctx = s.compressed.ctx
        codecs = session_codecs(s)
        assert codecs == [
            ctx.compressor, ctx.policies["l0"].codec, ctx.policies["l4"].codec,
            s.param_store.codec,
        ]
        assert ctx.policies["l4"].codec is ctx.policies["l8"].codec
        assert ctx.policies["l10"].codec is ctx.compressor
    with build_session(make_net(), SessionConfig(compress_activations=False)) as s:
        assert session_codecs(s) == []


class TestConfigRoundTripSurface:
    """session.capture() identities."""

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

    def test_engine_backend_reaches_rule_codecs(self):
        """``engine.kernel_backend`` applies to every rule codec whose
        options do not name a backend; a codec without kernels ignores it."""
        cfg = SessionConfig(
            rules=[
                PolicyRule(match="l0", label="sz", codec=CodecSpec("szlike")),
                PolicyRule(match="l4", label="lossless", codec=CodecSpec("lossless")),
                PolicyRule(match="l8", label="pinned",
                           codec=CodecSpec("szlike", {"kernel_backend": "auto"})),
                PolicyRule(match="l10", label="inherits", error_bound=1e-3),
            ],
            engine=EngineSpec(kernel_backend="numpy"),
            adaptive=AdaptiveSpec(W=10, warmup_iterations=2),
        )
        with build_session(make_net(), cfg) as s:
            codecs = {pol.group: pol.codec for pol in s.compressed.ctx.policies.values()}
            assert codecs["sz"].kernel_backend == "numpy"
            assert not hasattr(codecs["lossless"], "kernel_backend")
            assert codecs["pinned"].kernel_backend == "auto"
            assert codecs["inherits"] is s.compressed.ctx.compressor
            assert s.compressed.ctx.compressor.kernel_backend == "numpy"
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
