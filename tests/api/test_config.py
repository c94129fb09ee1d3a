"""SessionConfig serialization, validation, and codec-spec round-trips."""

from __future__ import annotations

import dataclasses
import glob
import json
import math
import os
import re
import typing

import pytest

from repro.api import (
    AdaptiveSpec,
    CodecSpec,
    ConfigError,
    DistributedSpec,
    EngineSpec,
    OptimizerSpec,
    ProfilerSpec,
    SessionConfig,
    StorageSpec,
)
from repro.api.config import ServerSpec
from repro.compression import registry
from repro.compression.registry import get_codec


class TestRoundTrip:
    def test_default_config_is_empty_dict(self):
        assert SessionConfig().to_dict() == {}

    def test_dict_round_trip_identity(self):
        cfg = SessionConfig(
            codec=CodecSpec("szlike", {"entropy": "zlib", "error_bound": 1e-4}),
            storage=StorageSpec(activations="arena", budget_bytes=1 << 20,
                                params="arena", param_budget_bytes=1 << 18,
                                param_codec=CodecSpec("lossless")),
            engine=EngineSpec(kernel_backend="numpy"),
            adaptive=AdaptiveSpec(W=25, warmup_iterations=3, initial_rel_eb=1e-4),
            optimizer=OptimizerSpec(lr=0.05, momentum=0.5, weight_decay=5e-4),
        )
        d = cfg.to_dict()
        assert SessionConfig.from_dict(d).to_dict() == d

    def test_json_round_trip_identity(self, tmp_path):
        cfg = SessionConfig(
            codec=CodecSpec("szlike", {"error_bound": 1e-3}),
            engine=EngineSpec(kernel_backend="numpy"),
            adaptive=AdaptiveSpec(enabled=False),
        )
        path = tmp_path / "cfg.json"
        cfg.to_json(str(path))
        assert SessionConfig.from_json(str(path)).to_dict() == cfg.to_dict()
        # and from a raw JSON string
        assert SessionConfig.from_json(cfg.to_json()).to_dict() == cfg.to_dict()

    @pytest.mark.parametrize(
        "options,eb",
        [
            ({"error_bound": 1e-2}, 1e-2),
            ({"error_bound": 1e-3, "mode": "rel"}, 1e-3),
            ({"error_bound": 5e-4, "entropy": "zlib"}, 5e-4),
        ],
        ids=["abs", "rel", "zlib"],
    )
    def test_fixed_bound_spelling_round_trips(self, options, eb):
        """The fixed-bound ablation is two sections, and both survive
        JSON: the codec's bound and the disabled controller."""
        d = {"adaptive": {"enabled": False}, "codec": {"options": options}}  # szlike
        cfg = SessionConfig.from_json(json.dumps(d))
        assert cfg.to_dict() == d
        assert cfg.adaptive.enabled is False
        assert cfg.codec.build().error_bound == eb

    def test_sparse_serialization_omits_defaults(self):
        d = SessionConfig(engine=EngineSpec(kernel_backend="numpy")).to_dict()
        assert d == {"engine": {"kernel_backend": "numpy"}}

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

    def test_nested_section_errors_name_the_section(self):
        with pytest.raises(ConfigError, match=r"^distributed\.grad_codec: unknown codec 'szlik'"):
            SessionConfig.from_dict({"distributed": {"grad_codec": {"name": "szlik"}}})

    def test_lossy_param_codec_rejected(self):
        with pytest.raises(ConfigError, match="lossy"):
            StorageSpec(params="arena", param_codec=CodecSpec("jpeg")).validate()

    def test_unbuildable_param_codec_is_a_config_error(self):
        bad = {"name": "lossless", "options": {"bogus": 1}}
        with pytest.raises(ConfigError, match=r"storage\.param_codec: .*'bogus'"):
            SessionConfig.from_dict({"storage": {"params": "arena", "param_codec": bad}})

    def test_live_objects_in_options_rejected(self):
        with pytest.raises(ConfigError, match="JSON-serializable"):
            CodecSpec("szlike", {"rng": object()}).validate()

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="does not exist"):
            SessionConfig.from_json("/nonexistent/run.json")

    def test_bad_engine_kernel_backend(self):
        with pytest.raises(ConfigError, match="engine: kernel_backend must be one of"):
            EngineSpec(kernel_backend="cuda").validate()

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

    def test_numba_round_trips_on_numba_less_hosts(self):
        """Validation is membership-only: a config written on a numba
        host parses everywhere — availability is a *build*-time check."""
        cfg = SessionConfig.from_dict({"engine": {"kernel_backend": "numba"}})
        assert cfg.engine.kernel_backend == "numba"

    def test_codec_level_backend_round_trips(self):
        spec = CodecSpec("szlike", {"kernel_backend": "numpy"})
        assert CodecSpec.from_dict(spec.to_dict()).build().kernel_backend == "numpy"
        # the default ("auto") stays sparse
        assert CodecSpec("szlike").to_dict() == {}
        assert CodecSpec("szlike").build().kernel_backend == "auto"


class TestCodecSpecBuildBackend:
    """``CodecSpec.build(kernel_backend)`` is how a session's
    ``engine.kernel_backend`` reaches every codec it builds: activation,
    rule and gradient codecs alike."""

    def test_szlike_runs_on_the_given_backend(self):
        codec = CodecSpec("szlike").build("numpy")
        assert (codec.kernel_backend, codec.kernel_backend_selected) == ("numpy", "numpy")

    def test_a_backend_in_the_options_wins(self):
        assert CodecSpec("szlike", {"kernel_backend": "auto"}).build("numpy").kernel_backend == "auto"

    def test_no_backend_keeps_the_codec_default(self):
        assert CodecSpec("szlike").build(None).kernel_backend == "auto"

    @pytest.mark.parametrize("name", ["jpeg", "lossless", "sparse-lossless"])
    def test_codecs_without_kernels_ignore_it(self, name):
        codec = CodecSpec(name).build("numba")  # not checked: nothing to run it on
        assert not hasattr(codec, "kernel_backend")

    def test_an_unavailable_backend_is_a_config_error(self):
        from repro.kernels import available_backends

        if "numba" in available_backends():
            pytest.skip("numba installed: explicit selection succeeds here")
        with pytest.raises(ConfigError, match="^engine.kernel_backend: .*unavailable"):
            CodecSpec("szlike").build("numba")


class TestCodecSpecRoundTrip:
    """A ``CodecSpec`` names a codec: through ``to_dict`` / ``from_dict``
    it builds one that compresses bit-identically to ``get_codec``."""

    @pytest.mark.parametrize(
        "name,options",
        [
            ("szlike", {}),
            ("szlike", {"error_bound": 1e-4, "entropy": "zlib", "zero_filter": False}),
            ("szlike", {"dict_size": 256, "lorenzo_ndim": 3}),
            ("jpeg", {"quality": 75}),
            ("lossless", {"level": 3}),
            ("sparse-lossless", {}),
            ("szlike", {"error_bound": 1e-3, "mode": "rel", "entropy": "none"}),
        ],
    )
    def test_spec_round_trip_compresses_bit_identically(self, name, options, activation_tensor):
        rebuilt = CodecSpec.from_dict(CodecSpec(name, options).to_dict()).build()
        direct = get_codec(name, **options)
        blobs = [registry.dumps(c.compress(activation_tensor)) for c in (rebuilt, direct)]
        assert blobs[0] == blobs[1]

    def test_codec_spec_build_matches_get_codec(self):
        codec = CodecSpec("szlike", {"error_bound": 5e-4}).build()
        assert codec.error_bound == 5e-4


class TestEngineAndBoundKnobs:
    """EngineSpec's one field and the session's bound regime: round-trip
    and validation."""

    def test_round_trip(self):
        cfg = SessionConfig(
            storage=StorageSpec(activations="arena"),
            engine=EngineSpec(kernel_backend="numpy"),
            adaptive=AdaptiveSpec(sigma_fraction=0.02),
        )
        rebuilt = SessionConfig.from_json(cfg.to_json())
        assert rebuilt == cfg
        assert rebuilt.engine.kernel_backend == "numpy"
        assert rebuilt.adaptive.sigma_fraction == 0.02

    def test_one_settable_field(self):
        assert [f.name for f in dataclasses.fields(EngineSpec)] == ["kernel_backend"]

    def test_validation(self):
        with pytest.raises(ConfigError, match="kernel_backend"):
            SessionConfig.from_dict({"engine": {"kernel_backend": 2}})


#: knobs of the removed thread-overlap engine: the first three are still
#: accepted and ignored, the rest are unknown keys (``kind`` and
#: ``workers`` also name other sections' fields)
REMOVED_KEYS = (
    "kind", "workers", "unpack_depth",
    "prefetch_depth", "max_pending", "max_auto_depth", "bind_window_bytes",
)
#: plus the cross-process codebook switch (``ServerSpec`` keeps its own)
IGNORED_KEYS, REJECTED_KEYS = REMOVED_KEYS[:3], REMOVED_KEYS[3:] + ("shared_codebook_cache",)
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
            match=rf"unknown key.*'{key}'.*accepted keys: kernel_backend$",
        ):
            EngineSpec.from_dict({key: 2})

    def test_param_dirty_tracking_rejected(self):
        """The BLAKE2 dirty-tracking switch went with the digests."""
        with pytest.raises(ConfigError, match=r"storage: unknown key.*'param_dirty_tracking'"):
            SessionConfig.from_dict({"storage": {"param_dirty_tracking": True}})


#: (codec, keyword, a value it once accepted) for the codec switches only
#: tests set; ``packer`` was ``huffman_encode``'s
REMOVED_CODEC_SWITCHES = [
    ("szlike", "codebook_refresh", 16),
    ("szlike", "codebook_delta", 0.25),
    ("szlike", "zlib_level", 6),
]
SWITCH_IDS = [key for _, key, _ in REMOVED_CODEC_SWITCHES]


class TestRemovedCodecSwitches:
    @pytest.mark.parametrize("name,key,value", REMOVED_CODEC_SWITCHES, ids=SWITCH_IDS)
    def test_unexpected_keyword_in_python(self, name, key, value):
        with pytest.raises(TypeError, match=key):
            get_codec(name, **{key: value})

    def test_packer_is_not_a_huffman_encode_keyword(self):
        import numpy as np

        from repro.compression.szlike import build_codebook, huffman_encode

        syms = np.arange(8, dtype=np.uint16)
        with pytest.raises(TypeError, match="packer"):
            huffman_encode(syms, build_codebook(syms, 8), packer="bitplane")

    @pytest.mark.parametrize("where", ["codec", "distributed.grad_codec"])
    @pytest.mark.parametrize("name,key,value", REMOVED_CODEC_SWITCHES, ids=SWITCH_IDS)
    def test_config_error_naming_the_codec(self, name, key, value, where):
        from repro.api import build_session
        from repro.models import build_scaled_model

        codec = {"name": name, "options": {key: value}}
        d = {"codec": codec} if where == "codec" else {"distributed": {"grad_codec": codec}}
        net = build_scaled_model("alexnet", num_classes=8, image_size=16, rng=1)
        with pytest.raises(ConfigError, match=rf"codec '{name}': .*'{key}'"):
            build_session(net, SessionConfig.from_dict(d))


class TestCodebookCacheShim:
    """``"codebook_cache": true``, which committed benchmark configs still
    name, is dropped wherever a codec spec is read; the cache it once
    switched on is how every keyed Huffman stream is coded now."""

    @pytest.mark.parametrize("where", ["codec", "distributed.grad_codec"])
    def test_true_is_dropped_and_the_other_options_kept(self, where):
        codec = {"name": "szlike", "options": {"codebook_cache": True, "entropy": "zlib"}}
        d = {"codec": codec} if where == "codec" else {"distributed": {"grad_codec": codec}}
        cfg = SessionConfig.from_dict(d)
        spec = cfg.codec if where == "codec" else cfg.distributed.grad_codec
        assert spec == CodecSpec("szlike", {"entropy": "zlib"})
        assert "codebook_cache" not in json.dumps(cfg.to_dict())

    @pytest.mark.parametrize("value", [False, 1, "true", None], ids=repr)
    def test_any_other_value_is_an_unknown_option(self, value):
        spec = CodecSpec.from_dict({"name": "szlike", "options": {"codebook_cache": value}})
        assert spec.options == {"codebook_cache": value}
        with pytest.raises(ConfigError, match=r"codec 'szlike': .*'codebook_cache'"):
            spec.build()


class TestDistributedSpec:
    def cfg(self, **kw):
        return SessionConfig(distributed=DistributedSpec(**kw))

    def test_round_trip_identity(self):
        cfg = SessionConfig(
            distributed=DistributedSpec(
                world_size=4,
                grad_codec=CodecSpec("szlike", {"error_bound": 1e-3, "mode": "abs"}),
                error_feedback=False,
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

    def test_unbuildable_grad_codec_is_a_config_error(self):
        """A codec its options cannot build is a 400-class error naming
        the section, not the constructor's bare ``ValueError``."""
        bad = {"name": "szlike", "options": {"error_bound": -1}}
        with pytest.raises(ConfigError, match=r"distributed\.grad_codec: .*error bound"):
            SessionConfig.from_dict({"distributed": {"world_size": 2, "grad_codec": bad}})

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


def _schema():
    """Every scalar knob of every session section, the server and a
    tenant, with its legal values: a tuple of choices, a dict of
    ``{"ge" | "gt" | "le" | "lt": limit}`` bounds, or None (any value of
    its annotated type; a float must still be finite)."""
    from repro.server import TenantSpec

    return {
        SessionConfig: {"compress_activations": None},
        CodecSpec: {"name": None},
        StorageSpec: {
            "activations": ("inmem", "arena"), "budget_bytes": {"ge": 0}, "spill_dir": None,
            "params": ("resident", "arena"), "param_budget_bytes": {"ge": 0},
        },
        EngineSpec: {"kernel_backend": ("numpy", "numba", "auto")},
        AdaptiveSpec: {
            "enabled": None, "W": {"ge": 1}, "sigma_fraction": {"gt": 0, "lt": 1},
            "initial_rel_eb": {"gt": 0}, "warmup_iterations": {"ge": 0},
        },
        ProfilerSpec: {"enabled": None},
        OptimizerSpec: {
            "kind": ("sgd",), "lr": {"gt": 0}, "momentum": {"ge": 0, "lt": 1},
            "weight_decay": {"ge": 0},
        },
        DistributedSpec: {
            "world_size": {"ge": 1}, "error_feedback": None, "reduce_order": ("tree",),
            "rank_arena_budget": {"ge": 1},
        },
        ServerSpec: {
            "pool_budget_bytes": {"ge": 0}, "max_tenants": {"ge": 1},
            "admission": ("reject", "queue"), "overcommit": {"ge": 1.0},
            "queue_depth": {"ge": 1}, "workers": {"ge": 1}, "max_batch_requests": {"ge": 1},
            "shared_codebook_cache": None, "spill_dir": None, "host": None,
            "port": {"ge": 0, "le": 65535},
        },
        TenantSpec: {
            "name": None, "kind": ("train", "infer"), "model": None, "num_classes": {"ge": 1},
            "image_size": {"ge": 1}, "batch_size": {"ge": 1}, "signal": None, "seed": None,
        },
    }


def _type_cases():
    # one value of each JSON scalar type, with the annotations it satisfies
    # (an int is a number; a bool is neither an int nor a number)
    wrong = [("2", {str}), (2, {int, float}), (2.5, {float}), (True, {bool})]
    for cls in _schema():
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
            {"engine": {"kernel_backend": 1}},
            {"optimizer": {"lr": "0.1"}},
            {"optimizer": {"momentum": "x"}},
            {"optimizer": {"momentum": 1.5}},
            {"optimizer": {"weight_decay": -1.0}},
            {"adaptive": {"W": "10"}},
            {"adaptive": {"enabled": "false"}},
            {"profiler": {"enabled": "false"}},
            {"storage": {"param_budget_bytes": "0"}},
            {"adaptive": {"initial_rel_eb": "1e-3"}},
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
            {"optimizer": {"lr": 1, "momentum": 0}, "adaptive": {"initial_rel_eb": 1}}
        )
        assert cfg.optimizer.lr == 1 and cfg.adaptive.initial_rel_eb == 1



#: a session section's key in a session config file
SECTION_KEYS = {
    CodecSpec: "codec", StorageSpec: "storage", EngineSpec: "engine", AdaptiveSpec: "adaptive",
    ProfilerSpec: "profiler", OptimizerSpec: "optimizer", DistributedSpec: "distributed",
}
SYMBOLS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}


def _both_ways(cls, name, value):
    """``(where, parse)`` twice for a config whose only set knob is
    ``cls.name = value``: parsed from JSON text by its entry point, and
    built in Python, then validated."""
    from repro.server import TenantSpec, load_server_config

    kw = {name: value}
    if cls is ServerSpec:
        yield "server", lambda: load_server_config(json.dumps({"server": kw}))
        yield "server", lambda: ServerSpec(**kw).validate()
        return
    if cls is TenantSpec:
        kw = {"name": "t", **kw}
        yield r"tenants\[0\]", lambda: load_server_config(json.dumps({"tenants": [kw]}))
        yield "tenant", lambda: TenantSpec(**kw).validate()
        return
    if cls is SessionConfig:
        doc, where, built = kw, "session", lambda: SessionConfig(**kw)
    else:
        key = SECTION_KEYS[cls]
        doc, where = {key: kw}, key
        built = lambda: SessionConfig(**{key: cls(**kw)})  # noqa: E731
    yield where, lambda: SessionConfig.from_json(json.dumps(doc))
    yield where, lambda: built().validate()


def _nearest_illegal(op, limit, is_float):
    if op in ("gt", "lt"):
        return float(limit) if is_float else limit
    if is_float:
        return math.nextafter(limit, -math.inf if op == "ge" else math.inf)
    return limit - 1 if op == "ge" else limit + 1


def _schema_cases():
    """``(cls, field, value, what the error says)``; None: legal."""
    for cls, knobs in _schema().items():
        types = dict(_scalar_fields(cls))
        for name, legal in knobs.items():
            at = f"{cls.__name__}.{name}"
            is_float = float in types[name]
            if is_float:
                for v in (math.nan, math.inf, -math.inf):
                    yield pytest.param(cls, name, v, "a finite number", id=f"{at}={v}")
            if isinstance(legal, tuple):
                yield pytest.param(cls, name, "bogus", "one of", id=f"{at}='bogus'")
                for v in legal:
                    yield pytest.param(cls, name, v, None, id=f"{at}={v!r}")
            for op, limit in (legal.items() if isinstance(legal, dict) else ()):
                v = _nearest_illegal(op, limit, is_float)
                yield pytest.param(cls, name, v, f"{SYMBOLS[op]} {limit}", id=f"{at}={v!r}")
                if op in ("ge", "le"):
                    yield pytest.param(cls, name, limit, None, id=f"{at}={limit!r}")


class TestDeclaredKnobs:
    """Each knob's legal values are declared on its field, and one check
    enforces them on the JSON path and the programmatic path alike."""

    def test_schema_covers_every_scalar_field(self):
        from repro.server import TenantSpec

        schema = _schema()
        assert set(schema) == {
            CodecSpec, StorageSpec, EngineSpec, AdaptiveSpec, ProfilerSpec,
            OptimizerSpec, DistributedSpec, ServerSpec, SessionConfig, TenantSpec,
        }
        for cls, knobs in schema.items():
            assert set(knobs) == {name for name, _ in _scalar_fields(cls)}, cls.__name__

    @pytest.mark.parametrize("cls,name,value,problem", list(_schema_cases()))
    def test_knob_holds_only_its_legal_values(self, cls, name, value, problem):
        for where, parse in _both_ways(cls, name, value):
            if problem is None:
                parse()
                continue
            expected = rf"^{where}: {name} must be (.* )?{re.escape(problem)}"
            with pytest.raises(ConfigError, match=expected):
                parse()
