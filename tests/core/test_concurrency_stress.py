"""Concurrency stress: the shared-infrastructure pieces a multi-tenant
server leans on, hammered from many threads at once.

Runs in the ``REPRO_SANITIZE=1`` CI leg too, where lock-order tracking
and double-release trapping are armed — so a regression in the
:class:`MemoryTracker` locking, the :class:`ByteArena` spill path, or
the :class:`ArenaPool` rebalance valve fails loudly instead of
corrupting counters silently.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.arena import ArenaPool, ByteArena
from repro.core.memory_tracker import MemoryTracker

THREADS = 6
OPS = 150


def run_threads(target, n=THREADS):
    errors = []

    def wrap(i):
        try:
            target(i)
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=wrap, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors[:1]


class TestMemoryTrackerUnderPressure:
    def test_summary_consistent_during_concurrent_packs(self):
        tracker = MemoryTracker()
        stop = threading.Event()
        snapshots = []

        def writer(i):
            layer = f"layer{i % 3}"
            for k in range(OPS):
                tracker.record_pack(layer, 1000, 100)
                tracker.record_release(1000, 100)
                if k % 25 == 0:
                    tracker.end_iteration()

        def reader():
            while not stop.is_set():
                rows = tracker.summary()
                for rec in rows:
                    # a consistent snapshot: never a torn record where
                    # bytes moved but the pack count did not
                    assert rec.raw_bytes == 10 * rec.stored_bytes == 1000 * rec.packs
                snapshots.append(len(rows))

        r = threading.Thread(target=reader)
        r.start()
        try:
            run_threads(writer)
        finally:
            stop.set()
            r.join()

        rows = tracker.summary()
        assert [rec.layer_name for rec in rows] == ["layer0", "layer1", "layer2"]
        assert sum(rec.packs for rec in rows) == THREADS * OPS

    def test_ratio_accounting_balances_after_race(self):
        tracker = MemoryTracker()

        def worker(i):
            for _ in range(OPS):
                tracker.record_pack(f"l{i}", 800, 80)
                tracker.record_release(800, 80)
            tracker.end_iteration()

        run_threads(worker)
        assert tracker.overall_ratio == 10.0
        # every pack was matched by a release: nothing live leaks
        assert tracker.end_iteration() == 0.0


class TestArenaUnderPressure:
    def test_simultaneous_put_spill_get(self):
        with ByteArena(budget_bytes=20_000) as arena:
            def worker(i):
                rng = np.random.default_rng(i)
                keys = {}
                for _ in range(OPS):
                    size = int(rng.integers(100, 800))
                    tag = int(rng.integers(0, 256))
                    keys[arena.put(bytes([tag]) * size)] = (tag, size)
                    if len(keys) > 10:
                        key, (tag, size) = keys.popitem()
                        assert arena.pop(key) == bytes([tag]) * size
                for key, (tag, size) in keys.items():
                    assert arena.pop(key) == bytes([tag]) * size

            run_threads(worker)
            assert arena.in_memory_nbytes == 0
            assert arena.spilled_nbytes == 0
            assert len(arena) == 0

    def test_pool_rebalance_under_multi_tenant_pressure(self):
        with ArenaPool(budget_bytes=15_000) as pool:
            arenas = [pool.create_arena(f"t{i}", budget_bytes=60_000) for i in range(THREADS)]

            def worker(i):
                arena = arenas[i]
                rng = np.random.default_rng(100 + i)
                keys = {}
                for _ in range(OPS):
                    size = int(rng.integers(100, 600))
                    tag = int(rng.integers(0, 256))
                    keys[arena.put(bytes([tag]) * size)] = (tag, size)
                    if len(keys) > 8:
                        key, (tag, size) = keys.popitem()
                        assert arena.pop(key) == bytes([tag]) * size
                for key, (tag, size) in keys.items():
                    assert arena.get(key) == bytes([tag]) * size

            run_threads(worker)
            stats = pool.stats()
            live = sum(
                t["in_memory_nbytes"] + t["spilled_nbytes"]
                for t in stats["tenants"].values()
            )
            # every byte still accounted for, split across mem + disk
            expected = sum(a.in_memory_nbytes + a.spilled_nbytes for a in arenas)
            assert live == expected
            # the pool held its aggregate line while tenants raced
            assert stats["forced_spill_count"] > 0

    def test_tracker_and_pool_together(self):
        """The server-shaped composite: every thread is a 'tenant'
        putting packed bytes into its pool member arena while recording
        into one shared MemoryTracker, with summary() read
        concurrently — the exact pattern the stats() endpoint drives."""
        tracker = MemoryTracker()
        stop = threading.Event()
        with ArenaPool(budget_bytes=10_000) as pool:
            arenas = [pool.create_arena(f"s{i}", budget_bytes=40_000) for i in range(4)]

            def tenant(i):
                arena = arenas[i % 4]
                for k in range(OPS):
                    data = bytes([k % 256]) * 300
                    key = arena.put(data)
                    tracker.record_pack(f"conv{i % 4}", 3000, 300)
                    assert arena.pop(key) == data
                    tracker.record_release(3000, 300)
                    if k % 50 == 0:
                        tracker.end_iteration()

            def observer():
                while not stop.is_set():
                    pool.stats()
                    tracker.summary()

            obs = threading.Thread(target=observer)
            obs.start()
            try:
                run_threads(tenant, n=4)
            finally:
                stop.set()
                obs.join()
            assert sum(r.packs for r in tracker.summary()) == 4 * OPS
            assert tracker.overall_ratio == 10.0
