"""SessionServer end-to-end contracts.

The load-bearing ones:

1. **Bit-identity**: a hosted tenant's training losses equal the same
   spec run standalone through ``build_session`` — sharing the pool,
   the codebook table, and the scheduler changes *where bytes live*,
   never results.  Pinned against the committed example fleet.
2. **Admission control**: oversubscribing tenants are rejected
   (``admission='reject'``) or parked and later promoted on eviction
   (``admission='queue'``), with the ledger recording every decision.
3. **Shared infrastructure**: arena-backed tenants are pool members
   under one budget; szlike tenants adopt codebooks a peer published.
4. **Operability**: ``stats()`` exposes the per-tenant and merged
   metrics surface; ``close()`` is idempotent and releases everything.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api.config import ServerSpec
from repro.server import (
    AdmissionError,
    ServerError,
    SessionServer,
    TenantSpec,
    load_server_config,
    run_standalone,
)

EXAMPLE_FLEET = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "configs", "server_tenants.json"
)


def tenant_dict(name, seed=1, budget=1 << 20, **kw):
    d = {
        "name": name,
        "model": "alexnet",
        "image_size": 12,
        "batch_size": 4,
        "seed": seed,
        "session": {"storage": {"activations": "arena", "budget_bytes": budget}},
    }
    d.update(kw)
    return d


def small_server(**kw):
    defaults = dict(pool_budget_bytes=4 << 20, overcommit=4.0)
    defaults.update(kw)
    return SessionServer(ServerSpec(**defaults))


class TestAdmission:
    def test_reject_over_budget(self):
        with small_server(pool_budget_bytes=1 << 20, overcommit=1.0) as server:
            server.admit(tenant_dict("a", budget=1 << 20))
            with pytest.raises(AdmissionError, match="admission limit"):
                server.admit(tenant_dict("b", budget=1 << 20))
            ledger = server.stats()["admission"]
            assert ledger["admitted"] == 1
            assert ledger["rejected"] == 1
            assert ledger["decisions"][-1]["decision"] == "rejected"

    def test_max_tenants_cap(self):
        with small_server(max_tenants=1) as server:
            server.admit(tenant_dict("a"))
            with pytest.raises(AdmissionError, match="max_tenants"):
                server.admit(tenant_dict("b"))

    def test_queue_then_promote_on_eviction(self):
        with small_server(
            pool_budget_bytes=1 << 20, overcommit=1.0, admission="queue"
        ) as server:
            a = server.admit(tenant_dict("a", budget=1 << 20))
            b = server.admit(tenant_dict("b", budget=1 << 20))
            assert (a.state, b.state) == ("running", "queued")
            with pytest.raises(ServerError, match="queued"):
                server.submit("b", 1)
            server.evict("a")
            assert b.state == "running"
            results = server.run(steps=1, names=["b"])
            assert len(results["b"]) == 1
            ledger = server.stats()["admission"]
            assert ledger["queued"] == 1
            assert ledger["promoted"] == 1

    def test_duplicate_name_rejected(self):
        with small_server() as server:
            server.admit(tenant_dict("a"))
            with pytest.raises(ServerError, match="already"):
                server.admit(tenant_dict("a"))

    def test_evicting_a_queued_tenant(self):
        with small_server(
            pool_budget_bytes=1 << 20, overcommit=1.0, admission="queue"
        ) as server:
            server.admit(tenant_dict("a", budget=1 << 20))
            server.admit(tenant_dict("b", budget=1 << 20))
            server.evict("b")
            assert server.stats()["admission"]["waiting"] == []
            with pytest.raises(KeyError):
                server.submit("b", 1)

    def test_evict_unknown_raises(self):
        with small_server() as server:
            with pytest.raises(KeyError):
                server.evict("ghost")

    def test_infer_tenant_declares_no_arena(self):
        with small_server(pool_budget_bytes=1 << 20, overcommit=1.0) as server:
            server.admit(tenant_dict("a", budget=1 << 20))
            # an inference tenant without an arena costs no pool budget
            t = server.admit(
                {
                    "name": "i",
                    "kind": "infer",
                    "model": "alexnet",
                    "image_size": 12,
                    "batch_size": 4,
                    "seed": 5,
                    "session": {"compress_activations": False},
                }
            )
            assert t.state == "running"
            result = server.run(steps=1, names=["i"])["i"][0]
            assert 0.0 <= result["accuracy"] <= 1.0


class TestSharedInfrastructure:
    def test_arena_tenants_are_pool_members(self):
        with small_server() as server:
            server.admit(tenant_dict("a"))
            server.admit(tenant_dict("b", seed=2))
            server.run(steps=1)
            pool = server.stats()["pool"]
            assert set(pool["tenants"]) == {"a", "b"}
            assert pool["declared_bytes"] == 2 << 20
            server.evict("a")
            assert set(server.stats()["pool"]["tenants"]) == {"b"}

    def test_codebook_adoption_across_tenants(self):
        cached = {"storage": {"activations": "arena", "budget_bytes": 1 << 20}}
        with small_server() as server:
            server.admit(tenant_dict("a", session=cached))
            server.admit(tenant_dict("b", seed=2, session=cached))
            server.run(steps=2, names=["a"])
            server.run(steps=2, names=["b"])
            rows = server.stats()["tenants"]
            assert rows["a"]["codebook_cache"]["owner"] == "a"
            adoptions = rows["b"]["codebook_cache"]["adoptions_from"]
            assert adoptions.get("a", 0) > 0

    @pytest.mark.parametrize("shared", [True, False])
    def test_every_tenant_cache_uses_the_server_table(self, shared):
        """The session codec publishes to the server's one table; the
        lossless parameter codec has no book to share."""
        from repro.compression.szlike import SharedCodebookCache

        session = {
            "codec": {"name": "szlike", "options": {"entropy": "huffman"}},
            "storage": {"params": "arena", "param_codec": {"name": "lossless"}},
        }
        with small_server(shared_codebook_cache=shared) as server:
            tenant = server.admit(tenant_dict("a", session=session))
            server.run(steps=1)
            cache = tenant.session.compressed.ctx.compressor.codebook_cache
            assert isinstance(cache, SharedCodebookCache) is shared
            if shared:
                assert cache.table is server.codebooks and cache.owner == "a"
            assert not hasattr(tenant.session.param_store.codec, "codebook_cache")
            assert (len(server.codebooks) > 0) is shared

    def test_fixed_bound_tenant_matches_standalone(self):
        """A tenant whose session packs under the codec's own bound (the
        controller off) trains as it does standalone, under a shared
        codebook table."""
        session = {
            "codec": {"name": "szlike", "options": {"error_bound": 1e-2}},
            "adaptive": {"enabled": False},
            "storage": {"activations": "arena", "budget_bytes": 1 << 20},
        }
        spec = TenantSpec.from_dict(tenant_dict("fixed", session=session))
        with small_server(shared_codebook_cache=True) as server:
            tenant = server.admit(spec)
            hosted = server.run(steps=3)
            assert set(tenant.session.error_bounds.values()) == {1e-2}
        alone = run_standalone(spec, 3)
        assert [r["loss"] for r in hosted["fixed"]] == [r["loss"] for r in alone]

    def test_pool_pressure_spills_but_preserves_results(self):
        # Pool far smaller than the tenants' combined working set: the
        # fleet must still train to completion, bit-identical to
        # standalone, with the pool staying within budget.
        spec = ServerSpec(pool_budget_bytes=64 << 10, overcommit=64.0)
        tenants = [
            TenantSpec.from_dict(tenant_dict(f"t{i}", seed=10 + i, budget=1 << 20))
            for i in range(3)
        ]
        with SessionServer(spec) as server:
            for t in tenants:
                server.admit(t)
            hosted = server.run(steps=2)
            pool = server.stats()["pool"]
        for t in tenants:
            alone = run_standalone(t, 2)
            assert [r["loss"] for r in hosted[t.name]] == [r["loss"] for r in alone]
        assert pool["declared_bytes"] > pool["budget_bytes"]


class TestExampleFleet:
    def test_committed_fleet_runs_concurrently_and_matches_standalone(self):
        spec, tenants = load_server_config(EXAMPLE_FLEET)
        assert len(tenants) >= 4  # >= 3 concurrent + mixed train/infer
        steps = 2
        with SessionServer(spec) as server:
            for t in tenants:
                assert server.admit(t).state == "running"
            hosted = server.run(steps=steps)
            stats = server.stats()
        # every tenant ran to completion under the shared pool budget
        for t in tenants:
            assert len(hosted[t.name]) == steps
        assert stats["pool"]["declared_bytes"] > stats["pool"]["budget_bytes"]
        # bit-identity for every training tenant
        for t in tenants:
            if t.kind != "train":
                continue
            alone = run_standalone(t, steps)
            assert [r["loss"] for r in hosted[t.name]] == [
                r["loss"] for r in alone
            ], t.name


class TestOperability:
    def test_stats_surface(self):
        with small_server() as server:
            server.admit(tenant_dict("a", session={
                "profiler": {"enabled": True},
                "storage": {"activations": "arena", "budget_bytes": 1 << 20},
            }))
            server.run(steps=2)
            stats = server.stats()
            assert set(stats) == {
                "tenants", "pool", "profiler_merged", "admission", "server",
            }
            row = stats["tenants"]["a"]
            assert row["steps_done"] == 2
            assert row["state"] == "running"
            assert row["executed"] == 2
            assert "latency_p50_ms" in row and "latency_p99_ms" in row
            assert "memory" in row  # MemoryTracker.summary rows, as dicts
            assert row["profiler"]["step"]["calls"] == 2
            assert stats["profiler_merged"]["step"]["calls"] == 2
            # stats() must be JSON-serializable as it is: it backs the endpoint
            json.dumps(stats)

    @pytest.mark.parametrize("activations", ["arena", "inmem"])
    def test_memory_row_lists_each_compressed_layer(self, activations):
        """A compressing tenant's memory row has one record per conv
        layer whose input needs a gradient (not ``l0``, fed the data
        batch), each storing fewer bytes than it would have kept raw; a
        tenant that compresses nothing has no row."""
        with small_server() as server:
            storage = {"activations": activations, "budget_bytes": 1 << 20}
            server.admit(tenant_dict("a", session={"storage": storage}))
            server.admit(tenant_dict("b", kind="infer", session={"compress_activations": False}))
            server.run(steps=2, names=["a"])
            rows = server.stats()["tenants"]
        memory = rows["a"]["memory"]
        assert sorted(r["layer_name"] for r in memory) == ["l10", "l12", "l4", "l8"]
        assert all(r["packs"] == 2 and r["raw_bytes"] > r["stored_bytes"] > 0 for r in memory)
        assert "memory" not in rows["b"]

    def test_capture_round_trips_spec(self):
        spec = ServerSpec(pool_budget_bytes=1 << 20, workers=2, admission="queue")
        with SessionServer(spec) as server:
            captured = server.capture()
            assert captured == spec
            assert captured is not spec

    def test_double_close_is_a_noop(self):
        server = small_server()
        server.admit(tenant_dict("a"))
        server.run(steps=1)
        server.close()
        server.close()
        with pytest.raises(ServerError, match="closed"):
            server.admit(tenant_dict("b"))

    def test_submit_after_evict_raises(self):
        with small_server() as server:
            server.admit(tenant_dict("a"))
            server.evict("a")
            with pytest.raises(KeyError):
                server.submit("a", 1)

    def test_tenant_results_accumulate(self):
        with small_server() as server:
            t = server.admit(tenant_dict("a"))
            server.run(steps=3)
            assert t.steps_done == 3
            assert t.last_result is not None
            assert "loss" in t.last_result
