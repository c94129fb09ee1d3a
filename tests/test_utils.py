"""Utility helpers: RNG normalization, byte accounting, scratch pool,
and the hot-path stage profiler."""

import sys

import numpy as np
import pytest

from repro.utils import ScratchPool, StageProfiler, ensure_rng, human_bytes, nbytes_of
from repro.utils import profiler as profiler_mod
from repro.utils import scratch


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
    def test_a_take_that_does_not_fit_is_fresh_and_the_slab_grows_once_the_stack_empties(self):
        pool = ScratchPool()
        with pool.take((4, 8), np.int64) as a, pool.take((3,), np.float32) as b:
            a[...], b[...] = 7, 1.5
            assert pool.nbytes == 0  # grows only when the stack is empty again
        assert pool.misses == 2 and pool.hits == 0
        assert pool.nbytes == scratch.ALIGN * 4 + 3 * 4  # the high-water of the pair
        with pool.take((4, 8), np.int64) as a, pool.take((3,), np.float32) as b:
            assert a.shape == (4, 8) and b.shape == (3,)
        assert pool.misses == 2 and pool.hits == 2

    def test_one_slab_serves_every_shape_and_dtype(self):
        pool = ScratchPool()
        with pool.take((64,), np.float64):  # a miss: the slab grows to 512 B
            pass
        slab = pool._stack.slab
        with pool.take((100,), np.int32) as b, pool.take((5, 6), np.bool_) as c:
            assert np.shares_memory(b, slab) and np.shares_memory(c, slab)
            assert b.dtype == np.int32 and c.shape == (5, 6)
            b[...] = -5
            assert int(b.sum()) == -500
        assert pool.misses == 1 and pool.hits == 2

    def test_takes_nest_last_in_first_out(self):
        pool = ScratchPool()
        with pool.take((1024,), np.uint8):
            pass
        with pool.take((10,), np.float64) as outer:
            with pool.take((10,), np.float64) as inner:
                assert not np.shares_memory(outer, inner)
                inner_addr = inner.__array_interface__["data"][0]
            # the inner take popped: the next one lands where it was
            with pool.take((10,), np.float64) as again:
                assert again.__array_interface__["data"][0] == inner_addr
        assert pool.misses == 1

    def test_a_region_released_out_of_order_is_popped_after_what_is_above_it(self):
        pool = ScratchPool()
        with pool.take((4096,), np.uint8):
            pass
        first, second = pool.take((64,), np.float64), pool.take((64,), np.float64)
        assert pool._stack.frames == []  # a take holds no frame until it is entered
        a = first.__enter__()
        b = second.__enter__()
        first.__exit__(None, None, None)  # released under a live take
        with pool.take((64,), np.float64) as c:
            assert not np.shares_memory(c, b)
        second.__exit__(None, None, None)
        with pool.take((64,), np.float64) as d:  # the stack is empty again
            assert np.shares_memory(d, a)

    def test_concurrent_takes_get_distinct_buffers(self):
        pool = ScratchPool()
        with pool.take((16,), np.float64) as a, pool.take((16,), np.float64) as b:
            assert not np.shares_memory(a, b)
            a[...] = 1.0
            b[...] = 2.0
            assert float(a.sum()) == 16.0

    def test_thread_safety_under_contention(self):
        from concurrent.futures import ThreadPoolExecutor

        pool = ScratchPool()

        def work(i):
            ok = True
            for _ in range(50):
                with pool.take((1024,), np.int64) as buf:
                    buf[...] = i
                    ok &= int(buf[0]) == i and int(buf[-1]) == i
            return ok

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter over inside takes
        try:
            with ThreadPoolExecutor(max_workers=8) as ex:
                assert all(ex.map(work, range(64), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        # per-thread counters: no take is lost from the totals
        assert pool.hits + pool.misses == 64 * 50

    def test_an_exception_inside_the_block_pops_and_releases_the_frame(self):
        released = []

        class Recording(ScratchPool):
            def _on_release(self, raw):
                released.append(raw.nbytes)

        pool = Recording()
        with pool.take((256,), np.uint8):
            pass
        with pool.take((8,), np.float64) as outer:
            with pytest.raises(ZeroDivisionError):
                with pool.take((4,), np.float64):
                    1 / 0
            assert len(pool._stack.frames) == 1  # only the outer take is left
            with pool.take((4,), np.float64) as again:  # lands where the failed one was
                assert not np.shares_memory(again, outer)
        assert pool._stack.frames == [] and released == [256, 32, 32, 64]

    def test_each_thread_has_its_own_stack_and_the_totals_add_up(self):
        import threading

        pool = ScratchPool()
        with pool.take((32,), np.float32):  # a miss on this thread
            pass
        seen = {}

        def work():
            seen["frames"] = list(pool._stack.frames)  # not this thread's frames
            for _ in range(3):  # one miss, then hits on its own slab
                with pool.take((32,), np.float32) as buf:
                    buf[...] = 1.0
            seen["nbytes"] = pool.nbytes

        with pool.take((16,), np.float64) as mine:
            mine[...] = 2.0
            thread = threading.Thread(target=work)
            thread.start()
            thread.join(timeout=30)
            assert (mine == 2.0).all()
        assert seen == {"frames": [], "nbytes": 128}
        assert (pool.misses, pool.hits) == (2, 3)

    def test_clear_releases_everything(self):
        pool = ScratchPool()
        with pool.take((64,), np.float32):
            pass
        assert pool.nbytes > 0
        pool.clear()
        assert pool.nbytes == 0
        with pool.take((8,), np.float32):
            pass
        assert pool.nbytes == 32  # the high-water was forgotten too


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

    def test_codec_stages_land_in_each_threads_bound_profiler(self):
        """A server's scheduler threads each bind their tenant's
        profiler: a codec call records into the one its thread bound,
        and an unbound thread falls back to the process-wide one."""
        import threading

        from repro.compression import get_codec

        x = np.random.default_rng(3).standard_normal((2, 4, 12, 12)).astype(np.float32)
        bound = [StageProfiler(), StageProfiler()]

        def work(p):
            codec = get_codec("szlike", error_bound=1e-3)
            with profiler_mod.bind_to_thread(p):
                codec.decompress(codec.compress(x))

        with StageProfiler() as process_wide:
            threads = [threading.Thread(target=work, args=(p,)) for p in bound]
            threads.append(threading.Thread(target=work, args=(None,)))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        for p in (*bound, process_wide):
            snap = p.snapshot()
            assert snap["encode"]["calls"] == snap["decode"]["calls"] == 1
            assert snap["encode"]["seconds"] > 0 and snap["decode"]["seconds"] > 0

    def test_report_lines(self):
        p = StageProfiler()
        assert p.report_lines() == ["(no stages recorded)"]
        p.record("quantize", 0.5)
        lines = p.report_lines()
        assert any("quantize" in line for line in lines)

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

