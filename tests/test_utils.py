"""Utility helpers: RNG normalization, byte accounting, scratch pool,
and the hot-path stage profiler."""

import numpy as np
import pytest

from repro.utils import ScratchPool, StageProfiler, ensure_rng, human_bytes, nbytes_of
from repro.utils import profiler as profiler_mod


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_is_deterministic(self):
        a = ensure_rng(7).standard_normal(5)
        b = ensure_rng(7).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert ensure_rng(g) is g


class TestNbytes:
    def test_array(self):
        assert nbytes_of(np.zeros(10, dtype=np.float32)) == 40

    def test_bytes(self):
        assert nbytes_of(b"abcd") == 4

    def test_nested(self):
        obj = {"a": np.zeros(2, dtype=np.float64), "b": [b"xy", np.zeros(1, dtype=np.int8)]}
        assert nbytes_of(obj) == 16 + 2 + 1

    def test_none_is_zero(self):
        assert nbytes_of(None) == 0

    def test_scalar(self):
        assert nbytes_of(3.14) == 8

    def test_unknown_rejected(self):
        with pytest.raises(TypeError):
            nbytes_of(object())


class TestHumanBytes:
    @pytest.mark.parametrize("n,expected", [
        (512, "512.00 B"),
        (2048, "2.00 KB"),
        (9.30 * 1024**3, "9.30 GB"),
        (407 * 1024**2, "407.00 MB"),
    ])
    def test_formats(self, n, expected):
        assert human_bytes(n) == expected


class TestScratchPool:
    def test_reuse_across_shapes_same_dtype(self):
        pool = ScratchPool()
        with pool.take((4, 8), np.int64) as a:
            a[...] = 7
            first_base = a.base
        # a smaller request of the same dtype reuses the same flat buffer
        with pool.take((2, 3), np.int64) as b:
            assert b.base is first_base
            assert b.shape == (2, 3)
        assert pool.hits == 1 and pool.misses == 1

    def test_concurrent_takes_get_distinct_buffers(self):
        pool = ScratchPool()
        with pool.take((16,), np.float64) as a, pool.take((16,), np.float64) as b:
            assert a.base is not b.base
            a[...] = 1.0
            b[...] = 2.0
            assert float(a.sum()) == 16.0

    def test_thread_safety_under_contention(self):
        from concurrent.futures import ThreadPoolExecutor

        pool = ScratchPool()

        def work(i):
            with pool.take((1024,), np.int64) as buf:
                buf[...] = i
                return int(buf[0]) == i and int(buf[-1]) == i

        with ThreadPoolExecutor(max_workers=8) as ex:
            assert all(ex.map(work, range(64)))

    def test_cross_dtype_view_from_oversized_buffer(self):
        pool = ScratchPool()
        with pool.take((64,), np.float64):  # 512 bytes cached as float64
            pass
        assert pool.misses == 1
        # an int32 request fits in the cached float64 bytes: no fresh alloc
        with pool.take((100,), np.int32) as a:
            assert a.dtype == np.int32 and a.shape == (100,)
            a[...] = -5
            assert int(a.sum()) == -500
        assert pool.misses == 1
        assert pool.hits == 1
        assert pool.cross_dtype_hits == 1
        # the buffer went back to its original (float64) bucket
        with pool.take((64,), np.float64):
            pass
        assert pool.hits == 2 and pool.misses == 1

    def test_cross_dtype_picks_smallest_adequate_buffer(self):
        pool = ScratchPool()
        # concurrent takes allocate two distinct buffers
        with pool.take((1024,), np.float64), pool.take((16,), np.float32):
            pass
        # 40 bytes fit in the 64-byte float32 buffer; the 8 KiB float64
        # buffer must stay untouched for bigger requests
        with pool.take((10,), np.int32) as a:
            assert a.nbytes == 40
        assert pool.cross_dtype_hits == 1
        assert pool.free_bytes == 1024 * 8 + 16 * 4

    def test_cross_dtype_insufficient_bytes_allocates_fresh(self):
        pool = ScratchPool()
        with pool.take((4,), np.int8):  # 4 cached bytes
            pass
        with pool.take((128,), np.float64) as a:
            assert a.nbytes == 1024
        assert pool.cross_dtype_hits == 0
        assert pool.misses == 2

    def test_caps_bound_pool_footprint(self):
        pool = ScratchPool(max_per_dtype=2, max_total_bytes=1 << 20)
        for n in (100, 200, 300, 400):
            with pool.take((n,), np.float64):
                pass
        assert pool.free_bytes <= 2 * 400 * 8

    def test_clear_releases_everything(self):
        pool = ScratchPool()
        with pool.take((64,), np.float32):
            pass
        assert pool.free_bytes > 0
        pool.clear()
        assert pool.free_bytes == 0

    def test_rejects_bad_caps(self):
        with pytest.raises(ValueError):
            ScratchPool(max_per_dtype=0)


class TestStageProfiler:
    def test_inactive_stage_is_noop(self):
        assert profiler_mod.get_active() is None
        with profiler_mod.stage("anything"):
            pass  # no profiler active: nothing recorded, nothing raised

    def test_records_stages_when_active(self):
        p = StageProfiler()
        with p:
            assert profiler_mod.get_active() is p
            with profiler_mod.stage("encode"):
                pass
            with profiler_mod.stage("encode"):
                pass
            with profiler_mod.stage("decode"):
                pass
        assert profiler_mod.get_active() is None
        snap = p.snapshot()
        assert snap["encode"]["calls"] == 2
        assert snap["decode"]["calls"] == 1
        assert snap["encode"]["seconds"] >= 0.0

    def test_disabled_profiler_records_nothing(self):
        p = StageProfiler(enabled=False)
        with p, profiler_mod.stage("x"):
            pass
        assert p.snapshot() == {}

    def test_thread_safe_recording(self):
        from concurrent.futures import ThreadPoolExecutor

        p = StageProfiler()

        def work(_):
            for _ in range(50):
                p.record("s", 0.001)

        with ThreadPoolExecutor(max_workers=8) as ex:
            list(ex.map(work, range(8)))
        snap = p.snapshot()
        assert snap["s"]["calls"] == 400
        assert snap["s"]["seconds"] == pytest.approx(0.4)

    def test_report_lines_and_reset(self):
        p = StageProfiler()
        p.record("quantize", 0.5)
        lines = p.report_lines()
        assert any("quantize" in line for line in lines)
        p.reset()
        assert p.snapshot() == {}

    def test_merge_folds_seconds_and_calls(self):
        a, b = StageProfiler(), StageProfiler()
        a.record("encode", 0.2)
        b.record("encode", 0.3)
        b.record("encode", 0.1)
        b.record("decode", 0.05)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["encode"]["calls"] == 3
        assert snap["encode"]["seconds"] == pytest.approx(0.6)
        assert snap["decode"] == {"seconds": pytest.approx(0.05), "calls": 1}

    def test_merge_snapshots_leaves_inputs_untouched(self):
        a, b = StageProfiler(), StageProfiler()
        a.record("grad-reduce", 0.1)
        b.record("grad-reduce", 0.2)
        snaps = [a.snapshot(), b.snapshot()]
        merged = profiler_mod.merge_snapshots(snaps)
        assert merged["grad-reduce"]["calls"] == 2
        assert merged["grad-reduce"]["seconds"] == pytest.approx(0.3)
        assert snaps[0]["grad-reduce"]["calls"] == 1
        assert a.snapshot()["grad-reduce"]["seconds"] == pytest.approx(0.1)

    def test_session_profiler_profiles_hot_path(self):
        """ProfilerSpec(enabled=True) activates stage timing end-to-end:
        the codec stages and the step stage accumulate during training."""
        from repro.api import AdaptiveSpec, ProfilerSpec, SessionConfig
        from repro.api import build_session
        from repro.models import build_scaled_model
        from repro.nn import SyntheticImageDataset, batches

        net = build_scaled_model("alexnet", num_classes=4, image_size=16, rng=1)
        cfg = SessionConfig(
            adaptive=AdaptiveSpec(W=5, warmup_iterations=1),
            profiler=ProfilerSpec(enabled=True),
        )
        with build_session(net, cfg) as session:
            ds = SyntheticImageDataset(num_classes=4, image_size=16, seed=5)
            session.train(batches(ds, 4, 2, seed=1))
            snap = session.profiler.snapshot()
        for stage_name in ("step", "quantize", "predict", "encode", "decode"):
            assert stage_name in snap, f"missing stage {stage_name}"
            assert snap[stage_name]["calls"] > 0
        assert profiler_mod.get_active() is None  # close() deactivated it

