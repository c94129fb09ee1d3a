"""ArenaPool contracts: fair cross-tenant spill under one budget,
deterministic victim selection, pool-level accounting, and data safety
(spilling moves bytes, never loses them)."""

from __future__ import annotations

import threading

import pytest

from repro.core.arena import ArenaPool, ByteArena


def blob(tag: int, size: int) -> bytes:
    return bytes([tag % 256]) * size


class TestMembership:
    def test_member_is_a_byte_arena(self):
        with ArenaPool(budget_bytes=1 << 20) as pool:
            a = pool.create_arena("a", budget_bytes=1 << 10)
            assert isinstance(a, ByteArena)
            key = a.put(blob(1, 100))
            assert a.get(key) == blob(1, 100)

    def test_duplicate_tenant_rejected(self):
        with ArenaPool(budget_bytes=1 << 20) as pool:
            pool.create_arena("a")
            with pytest.raises(ValueError, match="already"):
                pool.create_arena("a")

    def test_release_frees_the_name(self):
        with ArenaPool(budget_bytes=1 << 20) as pool:
            pool.create_arena("a")
            pool.release("a")
            pool.release("missing")  # no-op
            pool.create_arena("a")  # name reusable after release

    def test_member_close_deregisters(self):
        with ArenaPool(budget_bytes=1 << 20) as pool:
            a = pool.create_arena("a")
            a.close()
            assert "a" not in pool.stats()["tenants"]

    def test_closed_pool_refuses_new_members(self):
        pool = ArenaPool(budget_bytes=1 << 20)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.create_arena("a")


class TestFairSpill:
    def test_no_spill_under_budget(self):
        with ArenaPool(budget_bytes=10_000) as pool:
            a = pool.create_arena("a", budget_bytes=10_000)
            for i in range(5):
                a.put(blob(i, 1000))
            assert pool.stats()["forced_spill_count"] == 0
            assert a.spilled_nbytes == 0

    def test_aggregate_budget_enforced_across_tenants(self):
        # Each tenant fits its own budget; only the POOL is oversubscribed.
        with ArenaPool(budget_bytes=4_000) as pool:
            a = pool.create_arena("a", budget_bytes=4_000)
            b = pool.create_arena("b", budget_bytes=4_000)
            for i in range(3):
                a.put(blob(i, 1000))
                b.put(blob(16 + i, 1000))
            stats = pool.stats()
            assert stats["in_memory_nbytes"] <= 4_000
            assert stats["forced_spill_count"] > 0
            assert (
                stats["in_memory_nbytes"] + stats["spilled_nbytes"] == 6_000
            )

    def test_victim_is_furthest_over_fair_share(self):
        # Equal declared budgets -> equal fair shares; the hog must be
        # the one spilled, not the modest tenant.
        with ArenaPool(budget_bytes=4_000) as pool:
            hog = pool.create_arena("hog", budget_bytes=4_000)
            modest = pool.create_arena("modest", budget_bytes=4_000)
            modest.put(blob(1, 500))
            for i in range(8):
                hog.put(blob(i, 1000))
            assert modest.pool_spill_events == 0
            assert hog.pool_spill_events > 0
            assert modest.spilled_nbytes == 0

    def test_fair_share_follows_declared_budgets(self):
        with ArenaPool(budget_bytes=9_000) as pool:
            pool.create_arena("big", budget_bytes=6_000)
            pool.create_arena("small", budget_bytes=3_000)
            rows = pool.stats()["tenants"]
            assert rows["big"]["fair_share_bytes"] == 6_000
            assert rows["small"]["fair_share_bytes"] == 3_000

    def test_spilled_data_reads_back_identically(self):
        with ArenaPool(budget_bytes=2_000) as pool:
            a = pool.create_arena("a", budget_bytes=8_000)
            b = pool.create_arena("b", budget_bytes=8_000)
            keys_a = [a.put(blob(i, 700)) for i in range(4)]
            keys_b = [b.put(blob(32 + i, 700)) for i in range(4)]
            assert pool.stats()["forced_spill_count"] > 0
            for i, k in enumerate(keys_a):
                assert a.get(k) == blob(i, 700)
            for i, k in enumerate(keys_b):
                assert b.get(k) == blob(32 + i, 700)

    def test_spill_trace_is_deterministic(self):
        def trace():
            with ArenaPool(budget_bytes=3_000) as pool:
                a = pool.create_arena("a", budget_bytes=4_000)
                b = pool.create_arena("b", budget_bytes=4_000)
                for i in range(6):
                    (a if i % 2 == 0 else b).put(blob(i, 800))
                stats = pool.stats()
                return (
                    stats["forced_spill_count"],
                    stats["forced_spill_bytes"],
                    {
                        n: (t["pool_spill_events"], t["pool_spilled_bytes"])
                        for n, t in stats["tenants"].items()
                    },
                )

        assert trace() == trace()

    def test_pool_spill_counters_distinct_from_own_budget_spills(self):
        # A tenant over its OWN budget spills by itself: that is not a
        # pool-forced spill and must not count as one.
        with ArenaPool(budget_bytes=1 << 20) as pool:
            a = pool.create_arena("a", budget_bytes=1_000)
            for i in range(4):
                a.put(blob(i, 600))
            assert a.spill_count > 0
            assert a.pool_spill_events == 0
            assert pool.stats()["forced_spill_count"] == 0

    def test_failed_forced_spill_loses_and_leaks_nothing(self, tmp_path):
        """A pool spill whose write fails (the spill directory is a
        regular file) keeps every stored entry and removes the entry of
        the put that triggered it."""
        not_a_dir = tmp_path / "spill"
        not_a_dir.write_bytes(b"")
        with ArenaPool(budget_bytes=1_000, spill_dir=str(not_a_dir)) as pool:
            a = pool.create_arena("a", budget_bytes=8_000)
            k0 = a.put(blob(0, 700))
            with pytest.raises(OSError):
                a.put(blob(1, 700))
            assert a.get(k0) == blob(0, 700)
            assert len(a) == 1 and a.in_memory_nbytes == 700
            assert pool.stats()["forced_spill_count"] == 0


class TestAccounting:
    def test_stats_shape(self):
        with ArenaPool(budget_bytes=5_000) as pool:
            a = pool.create_arena("a", budget_bytes=2_000)
            a.put(blob(1, 500))
            stats = pool.stats()
            assert stats["budget_bytes"] == 5_000
            assert stats["declared_bytes"] == 2_000
            assert stats["in_memory_nbytes"] == 500
            row = stats["tenants"]["a"]
            assert row["entries"] == 1
            assert row["declared_bytes"] == 2_000
            assert set(row) == {
                "declared_bytes",
                "fair_share_bytes",
                "in_memory_nbytes",
                "spilled_nbytes",
                "spill_count",
                "pool_spilled_bytes",
                "pool_spill_events",
                "entries",
            }

    def test_properties_aggregate_members(self):
        with ArenaPool(budget_bytes=1 << 20) as pool:
            a = pool.create_arena("a")
            b = pool.create_arena("b")
            a.put(blob(1, 300))
            b.put(blob(2, 200))
            assert pool.in_memory_nbytes == 500
            assert pool.declared_bytes == 2 * (1 << 20)

    def test_close_is_idempotent_and_closes_members(self):
        pool = ArenaPool(budget_bytes=1 << 20)
        a = pool.create_arena("a")
        a.put(blob(1, 100))
        pool.close()
        pool.close()
        with pytest.raises(KeyError):
            a.get(0)


class TestThreadSafety:
    def test_concurrent_tenant_puts_stay_consistent(self):
        with ArenaPool(budget_bytes=8_000) as pool:
            arenas = {n: pool.create_arena(n, budget_bytes=16_000) for n in "abcd"}
            errors = []

            def worker(name, arena):
                try:
                    keys = {}
                    for i in range(30):
                        tag = (ord(name) * 31 + i) % 256
                        keys[arena.put(bytes([tag]) * 200)] = tag
                    for key, tag in keys.items():
                        assert arena.get(key) == bytes([tag]) * 200
                except BaseException as exc:  # surfaced below
                    errors.append((name, exc))

            threads = [
                threading.Thread(target=worker, args=(n, a))
                for n, a in arenas.items()
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            stats = pool.stats()
            total = stats["in_memory_nbytes"] + stats["spilled_nbytes"]
            assert total == 4 * 30 * 200
