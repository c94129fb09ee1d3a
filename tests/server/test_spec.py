"""ServerSpec / TenantSpec parsing contracts: strict keys, validation,
and lossless round-trips — the same rules every config section obeys."""

from __future__ import annotations

import json

import pytest

from repro.api.config import ConfigError, ServerSpec, SessionConfig
from repro.server import TenantSpec, load_server_config


class TestServerSpec:
    def test_defaults_validate_and_round_trip(self):
        spec = ServerSpec()
        spec.validate()
        assert spec.to_dict() == {}  # sparse: defaults are omitted
        assert ServerSpec.from_dict(spec.to_dict()) == spec

    def test_non_default_round_trip_is_identity(self):
        spec = ServerSpec(
            pool_budget_bytes=1 << 20,
            max_tenants=3,
            admission="queue",
            overcommit=2.5,
            queue_depth=7,
            workers=2,
            max_batch_requests=4,
            shared_codebook_cache=False,
            spill_dir="/tmp/pool",
            host="0.0.0.0",
            port=8123,
        )
        d = spec.to_dict()
        assert ServerSpec.from_dict(d) == spec
        assert ServerSpec.from_dict(json.loads(json.dumps(d))) == spec

    def test_from_json_accepts_text_and_path(self, tmp_path):
        text = json.dumps({"workers": 2})
        assert ServerSpec.from_json(text).workers == 2
        p = tmp_path / "server.json"
        p.write_text(text)
        assert ServerSpec.from_json(p).workers == 2

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ServerSpec.from_dict({"worker_count": 3})

    @pytest.mark.parametrize(
        "bad",
        [
            {"pool_budget_bytes": -1},
            {"pool_budget_bytes": 1.5},
            {"max_tenants": 0},
            {"workers": 0},
            {"queue_depth": 0},
            {"max_batch_requests": 0},
            {"admission": "deny"},
            {"overcommit": 0.5},
            {"overcommit": "2"},
            {"shared_codebook_cache": 1},
            {"spill_dir": 7},
            {"host": ""},
            {"port": -1},
            {"port": 65536},
            {"port": True},
        ],
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            ServerSpec.from_dict(bad)


class TestTenantSpec:
    def test_round_trip_is_identity(self):
        spec = TenantSpec.from_dict(
            {
                "name": "t0",
                "kind": "infer",
                "model": "vgg16",
                "image_size": 16,
                "batch_size": 4,
                "seed": 3,
                "session": {"compress_activations": False},
            }
        )
        again = TenantSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.to_dict() == spec.to_dict()
        assert again.session.to_dict() == spec.session.to_dict()

    def test_defaults_stay_sparse(self):
        spec = TenantSpec.from_dict({"name": "t"})
        assert spec.to_dict() == {"name": "t"}

    def test_declared_bytes_follows_storage(self):
        arena = TenantSpec.from_dict(
            {
                "name": "a",
                "session": {
                    "storage": {"activations": "arena", "budget_bytes": 123}
                },
            }
        )
        assert arena.declared_bytes == 123
        plain = TenantSpec.from_dict({"name": "p"})
        assert plain.session.storage.activations == "inmem"
        assert plain.declared_bytes == 0

    @pytest.mark.parametrize(
        "bad,match",
        [
            ({}, "name"),
            ({"name": "t", "kind": "batch"}, "kind"),
            ({"name": "t", "batch_size": 0}, "batch_size"),
            ({"name": "t", "image_size": True}, "image_size"),
            ({"name": "t", "seed": "x"}, "seed"),
            ({"name": "t", "unknown_knob": 1}, "unknown"),
            ({"name": "t", "session": 5}, "session"),
            (
                {"name": "t", "session": {"distributed": {"world_size": 2}}},
                "world_size",
            ),
        ],
    )
    def test_invalid_specs_rejected(self, bad, match):
        with pytest.raises(ConfigError, match=match):
            TenantSpec.from_dict(bad)

    def test_session_defaults_to_full_config(self):
        spec = TenantSpec.from_dict({"name": "t"})
        assert isinstance(spec.session, SessionConfig)
        assert spec.session.compress_activations


class TestLoadServerConfig:
    def test_empty_object_is_default_fleet(self):
        spec, tenants = load_server_config("{}")
        assert spec == ServerSpec()
        assert tenants == []

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            load_server_config(
                json.dumps({"tenants": [{"name": "x"}, {"name": "x"}]})
            )

    def test_unknown_top_level_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            load_server_config(json.dumps({"serverr": {}}))

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            load_server_config(json.dumps([1, 2]))

    @pytest.mark.parametrize(
        "fleet,match",
        [
            ({"tenants": [1]}, r"^tenants\[0\]: expected a mapping, got int$"),
            ({"tenants": ["ab"]}, r"^tenants\[0\]: expected a mapping, got str$"),
            ({"tenants": {"x": 1}}, r"^tenants: expected a list, got dict$"),
            ({"server": []}, r"^server: expected a mapping, got list$"),
            ({"tenants": [{"name": "t", "kind": "batch"}]}, r"^tenants\[0\]: kind"),
        ],
        ids=["tenant-int", "tenant-str", "tenants-dict", "server-list", "tenant-kind"],
    )
    def test_malformed_sections_name_their_location(self, fleet, match):
        with pytest.raises(ConfigError, match=match):
            load_server_config(json.dumps(fleet))

    def test_committed_example_fleet_parses(self):
        import os

        path = os.path.join(
            os.path.dirname(__file__),
            "..",
            "..",
            "examples",
            "configs",
            "server_tenants.json",
        )
        spec, tenants = load_server_config(path)
        # the committed fleet oversubscribes the pool: that is the point
        assert len(tenants) >= 4
        assert {t.kind for t in tenants} == {"train", "infer"}
        assert sum(t.declared_bytes for t in tenants) > spec.pool_budget_bytes
        assert (
            sum(t.declared_bytes for t in tenants)
            <= spec.pool_budget_bytes * spec.overcommit
        )
