"""SessionConfig serialization, validation, and codec-spec round-trips."""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import typing

import pytest

from repro.api import (
    AdaptiveSpec,
    CodecSpec,
    ConfigError,
    EngineSpec,
    OptimizerSpec,
    PolicyRule,
    SessionConfig,
    StorageSpec,
)
from repro.compression.registry import get_codec, spec_of


class TestRoundTrip:
    def test_default_config_is_empty_dict(self):
        assert SessionConfig().to_dict() == {}

    def test_dict_round_trip_identity(self):
        cfg = SessionConfig(
            codec=CodecSpec("szlike", {"entropy": "zlib", "error_bound": 1e-4}),
            rules=[
                PolicyRule(match="l0", codec=CodecSpec("lossless"), label="a"),
                PolicyRule(match="l[24]", error_bound=2e-4, label="b",
                           eb_min=1e-6, eb_max=1e-2),
                PolicyRule(match="l*", storage="inmem", initial_rel_eb=1e-2),
            ],
            storage=StorageSpec(activations="arena", budget_bytes=1 << 20,
                                params="arena", param_budget_bytes=1 << 18,
                                param_codec=CodecSpec("lossless")),
            engine=EngineSpec(shared_codebook_cache=True),
            adaptive=AdaptiveSpec(W=25, warmup_iterations=3, eb_max=0.5),
            optimizer=OptimizerSpec(kind="adam", lr=1e-3,
                                    options={"betas": [0.9, 0.99], "eps": 1e-7}),
        )
        d = cfg.to_dict()
        assert SessionConfig.from_dict(d).to_dict() == d

    def test_json_round_trip_identity(self, tmp_path):
        cfg = SessionConfig(
            rules=[PolicyRule(match="l1?", error_bound=1e-3)],
            engine=EngineSpec(kernel_backend="numpy"),
        )
        path = tmp_path / "cfg.json"
        cfg.to_json(str(path))
        assert SessionConfig.from_json(str(path)).to_dict() == cfg.to_dict()
        # and from a raw JSON string
        assert SessionConfig.from_json(cfg.to_json()).to_dict() == cfg.to_dict()

    def test_sparse_serialization_omits_defaults(self):
        d = SessionConfig(engine=EngineSpec(kernel_backend="numpy")).to_dict()
        assert d == {"engine": {"kernel_backend": "numpy"}}

    def test_committed_mixed_policy_config_round_trips(self):
        import os

        path = os.path.join(
            os.path.dirname(__file__), "..", "..", "examples", "configs",
            "mixed_policy_vgg.json",
        )
        cfg = SessionConfig.from_json(path)
        assert len(cfg.rules) == 3
        # two genuinely distinct codec families and distinct bound regimes
        names = {r.codec.name for r in cfg.rules if r.codec is not None}
        assert len(names) >= 2
        assert SessionConfig.from_json(cfg.to_json()).to_dict() == cfg.to_dict()


class TestValidation:
    def test_unknown_codec_lists_available(self):
        with pytest.raises(ConfigError, match="available: .*szlike"):
            CodecSpec("szlik").validate()

    def test_unknown_key_names_section_and_accepted_keys(self):
        with pytest.raises(ConfigError, match="engine: unknown key.*'worker'.*kernel_backend"):
            SessionConfig.from_dict({"engine": {"worker": 3}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="session: unknown key"):
            SessionConfig.from_dict({"codecs": {}})

    def test_rule_errors_name_the_rule(self):
        with pytest.raises(ConfigError, match=r"rules\[1\].*error_bound must be positive"):
            SessionConfig.from_dict(
                {"rules": [{"match": "l0"}, {"match": "l1", "error_bound": -1.0}]}
            )

    def test_fixed_bound_contradicts_adaptive(self):
        with pytest.raises(ConfigError, match="adaptive=True contradicts"):
            PolicyRule(match="l0", error_bound=1e-3, adaptive=True).validate()

    def test_rule_arena_storage_requires_session_arena(self):
        cfg = SessionConfig(rules=[PolicyRule(match="l0", storage="arena")])
        with pytest.raises(ConfigError, match="storage.activations='arena'"):
            cfg.validate()

    def test_lossy_param_codec_rejected(self):
        with pytest.raises(ConfigError, match="lossy"):
            StorageSpec(params="arena", param_codec=CodecSpec("jpeg")).validate()

    def test_duplicate_rule_labels_rejected(self):
        cfg = SessionConfig(
            rules=[PolicyRule(match="a", label="x"), PolicyRule(match="b", label="x")]
        )
        with pytest.raises(ConfigError, match="duplicate rule label"):
            cfg.validate()

    def test_live_objects_in_options_rejected(self):
        with pytest.raises(ConfigError, match="JSON-serializable"):
            CodecSpec("szlike", {"rng": object()}).validate()

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="does not exist"):
            SessionConfig.from_json("/nonexistent/run.json")

    def test_bad_engine_kernel_backend(self):
        with pytest.raises(ConfigError, match="engine: kernel_backend must be one of"):
            EngineSpec(kernel_backend="cuda").validate()

    def test_bad_rule_kernel_backend(self):
        with pytest.raises(ConfigError, match="kernel_backend must be one of"):
            PolicyRule(match="l0", kernel_backend="cuda").validate()

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            SessionConfig.from_json("{not json]")


class TestKernelBackendSpec:
    def test_engine_default_stays_sparse(self):
        assert "kernel_backend" not in EngineSpec().to_dict()

    def test_engine_explicit_backend_round_trips(self):
        cfg = SessionConfig(engine=EngineSpec(kernel_backend="numpy"))
        d = cfg.to_dict()
        assert d["engine"]["kernel_backend"] == "numpy"
        assert SessionConfig.from_dict(d).engine.kernel_backend == "numpy"

    def test_rule_backend_round_trips(self):
        cfg = SessionConfig(
            rules=[PolicyRule(match="l0", kernel_backend="numpy", label="a")]
        )
        d = cfg.to_dict()
        assert d["rules"][0]["kernel_backend"] == "numpy"
        assert SessionConfig.from_dict(d).rules[0].kernel_backend == "numpy"

    def test_numba_round_trips_on_numba_less_hosts(self):
        """Validation is membership-only: a config written on a numba
        host parses everywhere — availability is a *build*-time check."""
        cfg = SessionConfig.from_dict({"engine": {"kernel_backend": "numba"}})
        assert cfg.engine.kernel_backend == "numba"

    def test_codec_level_backend_in_spec_of(self):
        codec = get_codec("szlike", kernel_backend="numpy")
        spec = spec_of(codec)
        assert spec["options"]["kernel_backend"] == "numpy"
        clone = get_codec(spec["name"], **spec["options"])
        assert clone.kernel_backend == "numpy"
        # the default ("auto") stays sparse
        assert "kernel_backend" not in spec_of(get_codec("szlike"))["options"]


class TestCodecSpecOf:
    """spec_of is the inverse of get_codec for every registry family."""

    @pytest.mark.parametrize(
        "name,options",
        [
            ("szlike", {}),
            ("szlike", {"error_bound": 1e-4, "entropy": "zlib", "zero_filter": False}),
            ("szlike", {"codebook_cache": True, "codebook_refresh": 16}),
            ("jpeg", {"quality": 75}),
            ("lossless", {"level": 3}),
            ("sparse-lossless", {}),
            ("chunked", {"inner": "szlike", "workers": 2, "error_bound": 1e-3}),
        ],
    )
    def test_spec_of_round_trip(self, name, options):
        codec = get_codec(name, **options)
        spec = spec_of(codec)
        rebuilt = get_codec(spec["name"], **spec["options"])
        assert spec_of(rebuilt) == spec

    def test_spec_of_unknown_type_is_actionable(self):
        with pytest.raises(TypeError, match="registry codec"):
            spec_of(object())

    def test_spec_of_refuses_ablation_mode(self):
        with pytest.raises(ValueError, match="ablation"):
            spec_of(get_codec("szlike", emulate_zero_drift=True))

    def test_codec_spec_build_matches_get_codec(self):
        codec = CodecSpec("szlike", {"error_bound": 5e-4}).build()
        assert codec.error_bound == 5e-4


class TestReviewRegressions:
    """Pin the load-time-vs-runtime validation fixes."""

    def test_partial_rule_clamp_conflict_fails_at_load_time(self):
        # rule eb_min above the session's global eb_max would only have
        # exploded at the controller's first update; must fail in validate
        cfg = SessionConfig(rules=[PolicyRule(match="l*", eb_min=20.0)])
        with pytest.raises(ConfigError, match="effective eb clamps are inverted"):
            cfg.validate()
        # and a rule override that restores a valid pair passes
        SessionConfig(rules=[PolicyRule(match="l*", eb_min=20.0, eb_max=30.0)]).validate()

    def test_adaptive_coefficient_round_trips(self):
        cfg = SessionConfig(adaptive=AdaptiveSpec(W=10, coefficient=0.5))
        rebuilt = SessionConfig.from_json(cfg.to_json())
        assert rebuilt.adaptive.coefficient == 0.5
        assert rebuilt.adaptive.to_adaptive_config().coefficient == 0.5

    def test_default_coefficient_stays_sparse(self):
        from repro.core.error_model import THEORY_COEFFICIENT_A

        d = SessionConfig(adaptive=AdaptiveSpec(W=10)).to_dict()
        assert "coefficient" not in d["adaptive"]
        assert AdaptiveSpec().coefficient == float(THEORY_COEFFICIENT_A)

    def test_param_codec_probe_does_not_leak_a_pool(self):
        # validating a process-executor chunked param codec must close
        # the probe instance's eagerly-forked pool
        spec = StorageSpec(
            params="arena",
            param_codec=CodecSpec("chunked", {"inner": "lossless", "workers": 2,
                                              "executor": "process"}),
        )
        import multiprocessing

        before = len(multiprocessing.active_children())
        spec.validate()
        assert len(multiprocessing.active_children()) == before


class TestMatchKind:
    def test_regex_rule_round_trips(self):
        cfg = SessionConfig(
            rules=[PolicyRule(match=r"l\d+", match_kind="regex", error_bound=1e-3)],
        )
        d = cfg.to_dict()
        assert d["rules"][0]["match_kind"] == "regex"
        again = SessionConfig.from_dict(d)
        assert again.rules[0].match_kind == "regex"
        assert again.to_dict() == d

    def test_glob_default_stays_sparse(self):
        d = SessionConfig(rules=[PolicyRule(match="l*")]).to_dict()
        assert "match_kind" not in d["rules"][0]

    def test_invalid_regex_fails_at_parse_time(self):
        cfg = SessionConfig(
            rules=[PolicyRule(match="l[", match_kind="regex")],
        )
        with pytest.raises(ConfigError, match=r"rules\[0\].*invalid regex"):
            cfg.validate()

    def test_unknown_match_kind_rejected(self):
        cfg = SessionConfig(rules=[PolicyRule(match="l0", match_kind="prefix")])
        with pytest.raises(ConfigError, match="glob.*regex.*prefix"):
            cfg.validate()

    def test_regex_matcher_is_fullmatch(self):
        from repro.core.policy_table import compile_matcher

        matches = compile_matcher(r"l\d+", kind="regex")
        assert matches("l12")
        assert not matches("l12_extra")  # fullmatch, not search
        assert not matches("xl12")

    def test_regex_rule_selects_layers_in_policy_table(self):
        from repro.api.session import build_policy_table

        cfg = SessionConfig(
            rules=[
                PolicyRule(match=r"(conv|fc)\d", match_kind="regex",
                           error_bound=2e-3, label="re"),
                PolicyRule(match="*", storage="inmem", label="rest"),
            ],
        )
        cfg.validate()
        table = build_policy_table(cfg.rules)
        assert table.group_of("conv1") == "re"
        assert table.group_of("fc2") == "re"
        assert table.group_of("pool1") == "rest"


class TestSanitizerSpec:
    def test_round_trip_and_sparse_default(self):
        from repro.api.config import SanitizerSpec

        assert "sanitizer" not in SessionConfig().to_dict()
        cfg = SessionConfig(sanitizer=SanitizerSpec(enabled=True, poison=False))
        d = cfg.to_dict()
        assert d["sanitizer"] == {"enabled": True, "poison": False}
        assert SessionConfig.from_dict(d).to_dict() == d

    def test_non_bool_flag_rejected(self):
        from repro.api.config import SanitizerSpec

        cfg = SessionConfig(sanitizer=SanitizerSpec(enabled="yes"))
        with pytest.raises(ConfigError, match="sanitizer"):
            cfg.validate()


class TestEngineAndRuleKnobs:
    """EngineSpec's two fields and per-rule arena budgets: round-trip and
    validation."""

    def test_round_trip(self):
        cfg = SessionConfig(
            storage=StorageSpec(activations="arena"),
            engine=EngineSpec(shared_codebook_cache=True),
            rules=[PolicyRule(match="l0", label="front", arena_budget=4096)],
        )
        rebuilt = SessionConfig.from_json(cfg.to_json())
        assert rebuilt == cfg
        assert rebuilt.engine.shared_codebook_cache is True
        assert rebuilt.rules[0].arena_budget == 4096

    def test_two_settable_fields(self):
        assert [f.name for f in dataclasses.fields(EngineSpec)] == [
            "shared_codebook_cache", "kernel_backend",
        ]

    def test_validation(self):
        with pytest.raises(ConfigError, match="shared_codebook_cache"):
            SessionConfig.from_dict({"engine": {"shared_codebook_cache": "yes"}})

    def test_arena_budget_validation(self):
        with pytest.raises(ConfigError, match="arena_budget"):
            PolicyRule(match="l0", arena_budget=0).validate()
        with pytest.raises(ConfigError, match="arena_budget"):
            PolicyRule(match="l0", arena_budget=4096, storage="inmem").validate()
        # session-level: a sub-budget needs an arena to carve from
        with pytest.raises(ConfigError, match="arena_budget"):
            SessionConfig(
                rules=[PolicyRule(match="l0", arena_budget=4096)]
            ).validate()


#: knobs of the removed thread-overlap engine: the first three are still
#: accepted and ignored, the rest are unknown keys (``kind`` and
#: ``workers`` also name other sections' fields)
REMOVED_KEYS = (
    "kind", "workers", "unpack_depth",
    "prefetch_depth", "max_pending", "max_auto_depth", "bind_window_bytes",
)
IGNORED_KEYS, REJECTED_KEYS = REMOVED_KEYS[:3], REMOVED_KEYS[3:]
REPO = os.path.join(os.path.dirname(__file__), "..", "..")
COMMITTED_CONFIGS = sorted(
    path
    for pattern in ("benchmarks/e2e/configs/*.json", "examples/configs/*.json",
                    "benchmarks/configs/*.json")
    for path in glob.glob(os.path.join(REPO, pattern))
    if os.path.basename(path) != "workloads.json"  # the benchmark's plan, not a config
)


def _keys(tree) -> set:
    if isinstance(tree, dict):
        return set(tree) | {k for v in tree.values() for k in _keys(v)}
    if isinstance(tree, list):
        return {k for v in tree for k in _keys(v)}
    return set()


class TestRemovedEngineKeys:
    @pytest.mark.parametrize(
        "path", COMMITTED_CONFIGS, ids=[os.path.basename(p) for p in COMMITTED_CONFIGS]
    )
    def test_every_committed_config_loads(self, path):
        with open(path) as f:
            fleet = "tenants" in json.load(f)
        if fleet:
            from repro.server import load_server_config

            spec, tenants = load_server_config(path)
            dicts = [spec.to_dict()] + [t.to_dict() for t in tenants]
            sessions = [t.session.to_dict() for t in tenants]
        else:
            dicts = sessions = [SessionConfig.from_json(path).to_dict()]
        assert not _keys(dicts) & set(REMOVED_KEYS[2:])  # the unambiguous ones
        for d in sessions:
            assert not set(d.get("engine", {})) & set(REMOVED_KEYS)

    def test_three_keys_accepted_and_ignored(self):
        cfg = SessionConfig.from_dict({"engine": dict(zip(IGNORED_KEYS, ("async", 1, "auto")))})
        assert cfg.engine == EngineSpec()
        assert cfg.to_dict() == {}

    @pytest.mark.parametrize(
        "key,value",
        [
            (key, value)
            for key, values in zip(IGNORED_KEYS, (("sync", "async"), (4,), (2, "auto")))
            for value in values
        ],
    )
    def test_ignored_key_leaves_other_fields_intact(self, key, value):
        spec = EngineSpec.from_dict({key: value, "kernel_backend": "numpy"})
        assert spec == EngineSpec(kernel_backend="numpy")
        assert SessionConfig.from_dict({"engine": {key: value}}).to_dict() == {}

    @pytest.mark.parametrize("key", REJECTED_KEYS)
    def test_other_removed_keys_rejected(self, key):
        with pytest.raises(
            ConfigError,
            match=rf"unknown key.*'{key}'.*accepted keys: kernel_backend, shared_codebook_cache",
        ):
            EngineSpec.from_dict({key: 2})


class TestDistributedSpec:
    def cfg(self, **kw):
        from repro.api import DistributedSpec

        return SessionConfig(distributed=DistributedSpec(**kw))

    def test_round_trip_identity(self):
        from repro.api import DistributedSpec

        cfg = SessionConfig(
            distributed=DistributedSpec(
                world_size=4,
                grad_codec=CodecSpec("szlike", {"error_bound": 1e-3, "mode": "abs"}),
                error_feedback=False,
                reduce_order="linear",
                rank_arena_budget=1 << 20,
            ),
            storage=StorageSpec(activations="arena", budget_bytes=4 << 20),
        )
        cfg.validate()
        d = cfg.to_dict()
        assert SessionConfig.from_dict(d).to_dict() == d
        assert SessionConfig.from_json(cfg.to_json()).to_dict() == d

    def test_defaults_stay_sparse(self):
        assert "distributed" not in SessionConfig().to_dict()
        assert self.cfg(world_size=2).to_dict() == {"distributed": {"world_size": 2}}

    def test_committed_ddp_config_round_trips(self):
        import os

        path = os.path.join(
            os.path.dirname(__file__), "..", "..", "examples", "configs",
            "ddp_vgg.json",
        )
        cfg = SessionConfig.from_json(path)
        cfg.validate()
        assert cfg.distributed.world_size == 2
        assert cfg.distributed.grad_codec.name == "szlike"
        assert SessionConfig.from_json(cfg.to_json()).to_dict() == cfg.to_dict()

    def test_unknown_key_names_the_section(self):
        with pytest.raises(ConfigError, match="distributed"):
            SessionConfig.from_dict({"distributed": {"wrold_size": 2}})

    def test_world_size_error_names_the_section(self):
        with pytest.raises(ConfigError, match="distributed: world_size"):
            self.cfg(world_size=0).validate()
        with pytest.raises(ConfigError, match="distributed: world_size"):
            self.cfg(world_size=True).validate()

    def test_reduce_order_validated(self):
        with pytest.raises(ConfigError, match="distributed: reduce_order"):
            self.cfg(world_size=2, reduce_order="ring").validate()

    def test_unbounded_lossy_grad_codec_rejected(self):
        with pytest.raises(
            ConfigError, match="distributed.grad_codec.*error-bounded.*lossless"
        ):
            self.cfg(world_size=2, grad_codec=CodecSpec("jpeg")).validate()

    def test_error_bounded_and_lossless_grad_codecs_accepted(self):
        for spec in (
            CodecSpec("szlike", {"error_bound": 1e-3}),
            CodecSpec("lossless"),
            CodecSpec("sparse-lossless"),
        ):
            self.cfg(world_size=2, grad_codec=spec).validate()

    def test_rule_grad_codec_requires_distributed(self):
        cfg = SessionConfig(
            rules=[PolicyRule(match="l0", grad_codec=CodecSpec("sparse-lossless"))]
        )
        with pytest.raises(ConfigError, match="world_size > 1"):
            cfg.validate()

    def test_rule_grad_codec_round_trips(self):
        cfg = SessionConfig(
            rules=[PolicyRule(match="l0", grad_codec=CodecSpec("sparse-lossless"))],
        )
        cfg.distributed.world_size = 2
        cfg.validate()
        d = cfg.to_dict()
        assert SessionConfig.from_dict(d).to_dict() == d
        back = SessionConfig.from_dict(d)
        assert back.rules[0].grad_codec.name == "sparse-lossless"

    def test_rank_arena_budget_requires_arena_storage(self):
        with pytest.raises(ConfigError, match="rank_arena_budget"):
            self.cfg(world_size=2, rank_arena_budget=1 << 20).validate()

    def test_rank_arena_budget_must_be_positive(self):
        with pytest.raises(ConfigError, match="rank_arena_budget"):
            self.cfg(world_size=2, rank_arena_budget=-4).validate()


def _scalar_fields(cls):
    """(field, admitted types) for every scalar field of a config dataclass."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        args = typing.get_args(tp) if typing.get_origin(tp) is typing.Union else (tp,)
        if all(a in (bool, int, float, str, type(None)) for a in args):
            yield f.name, set(args)


def _type_cases():
    from repro.api.config import SanitizerSpec, ServerSpec
    from repro.api import DistributedSpec, ProfilerSpec
    from repro.server import TenantSpec

    specs = [
        CodecSpec, PolicyRule, StorageSpec, EngineSpec, AdaptiveSpec, ProfilerSpec,
        SanitizerSpec, OptimizerSpec, DistributedSpec, ServerSpec, SessionConfig, TenantSpec,
    ]
    # one value of each JSON scalar type, with the annotations it satisfies
    # (an int is a number; a bool is neither an int nor a number)
    wrong = [("2", {str}), (2, {int, float}), (2.5, {float}), (True, {bool})]
    for cls in specs:
        for name, admitted in _scalar_fields(cls):
            for value, satisfies in wrong:
                if not admitted & satisfies:
                    yield pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")


class TestScalarTypes:
    """One annotation-driven type check guards every scalar field of every
    section, on the JSON path and the programmatic path alike."""

    @pytest.mark.parametrize("cls,name,value", list(_type_cases()))
    def test_wrong_type_is_a_config_error(self, cls, name, value):
        base = {"name": "t"} if cls.__name__ == "TenantSpec" else {}
        with pytest.raises(ConfigError, match=rf"{name} must be"):
            cls.from_dict({**base, name: value})
        spec = cls(**{**base, name: value})
        with pytest.raises(ConfigError, match=rf"{name} must be"):
            spec.validate()

    @pytest.mark.parametrize(
        "d",
        [
            {"engine": {"shared_codebook_cache": "no"}},
            {"optimizer": {"lr": "0.1"}},
            {"optimizer": {"momentum": "x"}},
            {"adaptive": {"W": "10"}},
            {"adaptive": {"enabled": "false"}},
            {"profiler": {"enabled": "false"}},
            {"storage": {"param_dirty_tracking": "false"}},
            {"rules": [{"match": "l0", "error_bound": "1e-3"}]},
            {"compress_activations": "false"},
        ],
    )
    def test_session_reproductions(self, d):
        with pytest.raises(ConfigError):
            SessionConfig.from_dict(d)

    def test_nested_programmatic_config(self):
        cfg = SessionConfig(engine=EngineSpec(kernel_backend=2))
        with pytest.raises(ConfigError, match="engine: kernel_backend must be a string"):
            cfg.validate()

    def test_int_is_accepted_where_a_float_is(self):
        cfg = SessionConfig.from_dict(
            {"optimizer": {"lr": 1, "momentum": 0}, "adaptive": {"eb_max": 10}}
        )
        assert cfg.optimizer.lr == 1 and cfg.adaptive.eb_max == 10

