"""Compression engines: async/sync bit-identity, ordering, concurrency.

The async engine's contract is "indistinguishable from SyncEngine except
for wall-clock time": bit-identical reconstructions and byte-exact
tracker numbers for every registry codec, release-exactly-once handle
semantics under any interleaving of pack/unpack/discard, and clean
shutdown with work still in flight.
"""

import numpy as np
import pytest

from repro.compression import available_codecs, get_codec
from repro.core import (
    AdaptiveConfig,
    AsyncEngine,
    ByteArena,
    CompressedTraining,
    CompressingContext,
    MemoryTracker,
    SyncEngine,
)
from repro.nn import (
    Conv2D,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    SGD,
    Sequential,
    SyntheticImageDataset,
    Trainer,
    batches,
)

#: constructor kwargs so every registry codec builds at test scale
CODEC_SPECS = {
    "szlike": dict(error_bound=1e-3, entropy="huffman"),
    "jpeg": dict(quality=60),
    "lossless": {},
    "sparse-lossless": {},
    "chunked": dict(inner="szlike", workers=2, min_chunk_nbytes=1 << 10, error_bound=1e-3),
}


def make_codec(name):
    return get_codec(name, **CODEC_SPECS[name])


#: the two engines at their default knobs, by name
ENGINES = {"sync": SyncEngine, "async": AsyncEngine}


@pytest.fixture
def conv():
    return Conv2D(3, 2, 3, rng=1, name="c")


@pytest.fixture
def act4d(rng):
    return np.maximum(rng.standard_normal((2, 3, 16, 16)), 0).astype(np.float32)


class TestEngineResolution:
    def test_default_is_sync(self):
        ctx = CompressingContext(make_codec("szlike"))
        assert isinstance(ctx.engine, SyncEngine)

    def test_engine_instances(self):
        assert isinstance(CompressingContext(engine=SyncEngine()).engine, SyncEngine)
        eng = AsyncEngine()
        assert CompressingContext(engine=eng).engine is eng
        eng.close()

    def test_engine_names_rejected(self):
        # engines are named only in EngineSpec; the context takes instances
        for bad in ("sync", "async", 42):
            with pytest.raises(TypeError, match="CompressionEngine"):
                CompressingContext(engine=bad)

    def test_codec_names_rejected(self):
        with pytest.raises(TypeError, match="codec instance"):
            CompressingContext(compressor="szlike")

    def test_engine_binds_to_one_context(self):
        eng = AsyncEngine(workers=1)
        CompressingContext(make_codec("szlike"), engine=eng)
        with pytest.raises(RuntimeError, match="already bound"):
            CompressingContext(make_codec("szlike"), engine=eng)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AsyncEngine(workers=0)
        with pytest.raises(ValueError):
            AsyncEngine(prefetch_depth=-1)


class TestBitIdentityPerCodec:
    """Async reconstructions and tracker charges equal sync, per codec."""

    @pytest.mark.parametrize("name", sorted(available_codecs()))
    @pytest.mark.parametrize("use_arena", [False, True])
    def test_roundtrip_and_accounting_match(self, name, use_arena, conv, act4d):
        results = {}
        for engine in ("sync", "async"):
            tracker = MemoryTracker()
            storage = ByteArena(budget_bytes=0) if use_arena else None
            ctx = CompressingContext(
                make_codec(name), initial_rel_eb=1e-3,
                tracker=tracker, storage=storage, engine=ENGINES[engine](),
            )
            handles = [ctx.pack(conv, f"x{i}", act4d + i) for i in range(3)]
            outs = [ctx.unpack(conv, f"x{i}", h) for i, h in reversed(list(enumerate(handles)))]
            ctx.close()
            if storage is not None:
                assert len(storage) == 0
                storage.close()
            rec = tracker.per_layer["c"]
            results[engine] = (outs, rec.raw_bytes, rec.stored_bytes, rec.packs)
        for a, b in zip(results["sync"][0], results["async"][0]):
            np.testing.assert_array_equal(a, b)
        assert results["sync"][1:] == results["async"][1:]


def small_net():
    return Sequential([
        Conv2D(3, 6, 3, padding=1, rng=1, name="c1"), ReLU(), MaxPool2D(2),
        Conv2D(6, 8, 3, padding=1, rng=2, name="c2"), ReLU(), MaxPool2D(2),
        Flatten(), Linear(8 * 4 * 4, 4, rng=3),
    ])


def train_session(engine, storage=None, iters=8):
    net = small_net()
    opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
    tr = Trainer(net, opt)
    sess = CompressedTraining(
        net, opt,
        compressor=get_codec("szlike", entropy="zlib"),
        config=AdaptiveConfig(W=5, warmup_iterations=2),
        storage=storage, engine=engine,
    ).attach(tr)
    ds = SyntheticImageDataset(num_classes=4, image_size=16, channels=3, seed=3)
    tr.train(batches(ds, 8, iters, seed=0))
    tr.close()
    return tr, sess


class TestTrainingBitIdentity:
    def test_losses_and_tracker_match_sync(self):
        tr_s, sess_s = train_session(SyncEngine())
        tr_a, sess_a = train_session(AsyncEngine(workers=2, prefetch_depth=2))
        np.testing.assert_array_equal(tr_s.history.losses, tr_a.history.losses)
        assert sess_s.tracker.iteration_ratios == sess_a.tracker.iteration_ratios
        assert sess_s.tracker.peak_raw_bytes == sess_a.tracker.peak_raw_bytes
        assert sess_s.tracker.peak_stored_bytes == sess_a.tracker.peak_stored_bytes
        for name in ("c1", "c2"):
            a, b = sess_s.tracker.per_layer[name], sess_a.tracker.per_layer[name]
            assert (a.raw_bytes, a.stored_bytes, a.packs) == (b.raw_bytes, b.stored_bytes, b.packs)
        assert sess_a.engine.packs_submitted == 16
        assert sess_a.tracker._live_raw == 0 and sess_a.tracker._live_stored == 0

    def test_arena_spill_prefetch_matches_sync(self):
        tr_s, _ = train_session(SyncEngine())
        with ByteArena(budget_bytes=0) as arena:  # everything spills
            tr_a, sess_a = train_session(AsyncEngine(workers=2, prefetch_depth=2), storage=arena)
            np.testing.assert_array_equal(tr_s.history.losses, tr_a.history.losses)
            assert arena.spill_count > 0
            assert sess_a.engine.prefetch_hits > 0  # spilled bytes read ahead
            assert len(arena) == 0

    def test_stage_ahead_window_uses_arena_prefetch(self):
        """Beyond the decompress window, the engine stages the *next*
        handles' spilled bytes back into arena memory via prefetch()."""
        import time

        layers = [Conv2D(3, 2, 3, rng=i + 1, name=f"s{i}") for i in range(8)]
        rng = np.random.default_rng(3)
        with ByteArena(budget_bytes=0) as arena:  # everything spills
            ctx = CompressingContext(
                get_codec("szlike", entropy="zlib"), storage=arena,
                engine=AsyncEngine(workers=2, prefetch_depth=2),
            )
            xs = [rng.standard_normal((2, 3, 16, 16)).astype(np.float32) for _ in layers]
            handles = [ctx.pack(l, "x", x) for l, x in zip(layers, xs)]
            outs = [ctx.unpack(layers[i], "x", handles[i]) for i in reversed(range(8))]
            # staging runs on pool workers; give a submitted read a moment
            deadline = time.monotonic() + 2.0
            while arena.prefetch_count == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert arena.prefetch_count > 0
            for x, y in zip(reversed(xs), outs):
                assert np.abs(x - y).max() <= max(ctx.error_bounds.values()) * (1 + 1e-6)
            ctx.close()
            assert len(arena) == 0

    def test_error_bounds_identical_across_engines(self):
        _, sess_s = train_session(SyncEngine())
        _, sess_a = train_session(AsyncEngine())
        assert sess_s.error_bounds == sess_a.error_bounds


class TestKernelBackendBitIdentity:
    """Every available kernel backend trains bit-identically — and
    sync/async engine identity holds per backend, not just on the
    default one."""

    def train_with_backend(self, backend, engine):
        net = small_net()
        opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
        tr = Trainer(net, opt)
        sess = CompressedTraining(
            net, opt,
            compressor=get_codec(
                "szlike", entropy="huffman", kernel_backend=backend
            ),
            config=AdaptiveConfig(W=5, warmup_iterations=2),
            engine=engine,
        ).attach(tr)
        ds = SyntheticImageDataset(num_classes=4, image_size=16, channels=3, seed=3)
        tr.train(batches(ds, 8, 6, seed=0))
        tr.close()
        return tr.history.losses, sess.tracker.iteration_ratios

    def test_backends_train_bit_identically(self):
        from repro.kernels import available_backends

        results = {b: self.train_with_backend(b, SyncEngine()) for b in available_backends()}
        ref_losses, ref_ratios = results["numpy"]
        for backend, (losses, ratios) in results.items():
            np.testing.assert_array_equal(losses, ref_losses)
            assert ratios == ref_ratios

    def test_async_matches_sync_per_backend(self):
        from repro.kernels import available_backends

        for backend in available_backends():
            losses_s, _ = self.train_with_backend(backend, SyncEngine())
            losses_a, _ = self.train_with_backend(
                backend, AsyncEngine(workers=2, prefetch_depth=2)
            )
            np.testing.assert_array_equal(losses_s, losses_a)


class TestConcurrencyStress:
    """Many interleaved pack/unpack/discard across layers: reconstructions
    bit-identical to sync, tracker released exactly once per handle,
    arena drained."""

    def _interleave(self, engine, storage, rng):
        layers = [Conv2D(3, 2, 3, rng=i + 1, name=f"c{i}") for i in range(6)]
        tracker = MemoryTracker()
        ctx = CompressingContext(
            get_codec("szlike", entropy="zlib"), initial_rel_eb=1e-3,
            tracker=tracker, storage=storage, engine=engine,
        )
        tensors, outs = {}, {}
        handles = {}
        # Three waves of forward packs with partial backward consumption
        # interleaved between them, plus discards of never-unpacked handles.
        for wave in range(3):
            for i, layer in enumerate(layers):
                x = rng.standard_normal((2, 3, 12, 12)).astype(np.float32)
                key = (wave, i)
                tensors[key] = x
                handles[key] = ctx.pack(layer, f"x{wave}", x)
            # consume this wave's later half in reverse order right away
            for i in reversed(range(3, len(layers))):
                key = (wave, i)
                outs[key] = ctx.unpack(layers[i], f"x{wave}", handles.pop(key))
        # drain the remaining handles in global reverse order, discarding
        # every third one without unpacking it
        for n, key in enumerate(sorted(handles, reverse=True)):
            layer = layers[key[1]]
            if n % 3 == 0:
                ctx.discard(layer, f"x{key[0]}", handles[key])
            else:
                outs[key] = ctx.unpack(layer, f"x{key[0]}", handles[key])
        ctx.close()
        return tracker, outs

    def test_stress_bit_identical_and_exact_release(self):
        rng_s = np.random.default_rng(7)
        rng_a = np.random.default_rng(7)
        with ByteArena(budget_bytes=4096) as arena_s:
            t_sync, out_sync = self._interleave(SyncEngine(), arena_s, rng_s)
            assert len(arena_s) == 0
        with ByteArena(budget_bytes=4096) as arena_a:
            t_async, out_async = self._interleave(
                AsyncEngine(workers=4, prefetch_depth=3), arena_a, rng_a
            )
            assert len(arena_a) == 0
        assert sorted(out_sync) == sorted(out_async)
        for key in out_sync:
            np.testing.assert_array_equal(out_sync[key], out_async[key])
        # exact once-only release: every pack credited back, live counts zero
        for t in (t_sync, t_async):
            assert t._live_raw == 0 and t._live_stored == 0
        for name, rec in t_sync.per_layer.items():
            other = t_async.per_layer[name]
            assert (rec.raw_bytes, rec.stored_bytes, rec.packs) == (
                other.raw_bytes, other.stored_bytes, other.packs)

    def test_repeated_unpack_and_discard_release_once(self, conv, act4d):
        tracker = MemoryTracker()
        ctx = CompressingContext(
            get_codec("szlike", entropy="zlib"), tracker=tracker,
            engine=AsyncEngine(workers=2),
        )
        h = ctx.pack(conv, "x", act4d)
        y1 = ctx.unpack(conv, "x", h)
        y2 = ctx.unpack(conv, "x", h)
        ctx.discard(conv, "x", h)
        ctx.discard(conv, "x", h)
        np.testing.assert_array_equal(y1, y2)
        assert tracker._live_raw == 0 and tracker._live_stored == 0
        ctx.close()

    def test_discard_before_job_completes_still_charges_tracker(self, conv, act4d):
        """A handle discarded while its pack job may still be in flight is
        finalized first: the tracker sees pack + release, never a release
        of an uncharged handle."""
        tracker = MemoryTracker()
        ctx = CompressingContext(
            get_codec("szlike", entropy="zlib"), tracker=tracker,
            engine=AsyncEngine(workers=2),
        )
        h = ctx.pack(conv, "x", act4d)
        ctx.discard(conv, "x", h)
        assert tracker.per_layer["c"].packs == 1
        assert tracker._live_raw == 0 and tracker._live_stored == 0
        ctx.close()


class TestShutdownMidFlight:
    def test_close_with_pending_packs_is_clean(self, conv, act4d):
        ctx = CompressingContext(
            get_codec("szlike", entropy="zlib"),
            engine=AsyncEngine(workers=1),
        )
        for i in range(8):
            ctx.pack(conv, f"x{i}", act4d)
        ctx.close()  # jobs pending on a single worker: cancel or absorb
        ctx.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            ctx.pack(conv, "y", act4d)

    def test_arena_closed_under_engine_is_survivable(self, conv, act4d):
        """Closing the arena with pack jobs still in flight must not
        raise from close(); the pending handles are dropped."""
        arena = ByteArena(budget_bytes=0)
        ctx = CompressingContext(
            get_codec("szlike", entropy="zlib"), storage=arena,
            engine=AsyncEngine(workers=1),
        )
        for i in range(6):
            ctx.pack(conv, f"x{i}", act4d)
        arena.close()  # out from under the engine
        ctx.close()    # must absorb the arena-closed failures
        assert len(arena) == 0

    def test_failed_pack_job_does_not_corrupt_tracker(self, conv, act4d):
        """A pack job that raises (codec error surfacing at flush) leaves
        an uncharged handle; the error-path cleanup discard must not
        credit bytes that were never recorded."""
        tracker = MemoryTracker()
        ctx = CompressingContext(
            get_codec("szlike", entropy="zlib"), tracker=tracker,
            engine=AsyncEngine(workers=1),
        )
        bad = act4d.copy()
        bad[0, 0, 0, 0] = np.nan  # SZ rejects non-finite input
        h_ok = ctx.pack(conv, "a", act4d)
        h_bad = ctx.pack(conv, "b", bad)
        with pytest.raises(ValueError):
            ctx.flush()
        ctx.discard(conv, "a", h_ok)
        ctx.discard(conv, "b", h_bad)
        assert tracker.per_layer["c"].packs == 1  # only the good handle charged
        assert tracker._live_raw == 0 and tracker._live_stored == 0
        # the failed handle was dropped from the live-order record too
        assert all(h is not h_bad for h in ctx.engine._live)
        ctx.close()

    def test_backpressure_bounds_pending_queue(self, conv, act4d):
        """Queued pack jobs pin raw activations; the pipeline depth must
        stay within max_pending no matter how fast packs are submitted."""
        eng = AsyncEngine(workers=1, max_pending=2)
        ctx = CompressingContext(get_codec("szlike", entropy="zlib"), engine=eng)
        handles = []
        for i in range(8):
            handles.append(ctx.pack(conv, f"x{i}", act4d))
            assert len(eng._pending) <= 2
        for i, h in reversed(list(enumerate(handles))):
            ctx.unpack(conv, f"x{i}", h)
        ctx.close()

    def test_invalid_max_pending_rejected(self):
        with pytest.raises(ValueError):
            AsyncEngine(max_pending=0)

    def test_discard_after_midflight_close_keeps_tracker_consistent(self, conv, act4d):
        """Handles whose pack was cancelled by close() were never charged;
        a late discard (clear_saved/detach) must not credit them."""
        tracker = MemoryTracker()
        ctx = CompressingContext(
            get_codec("szlike", entropy="zlib"), tracker=tracker,
            engine=AsyncEngine(workers=1),
        )
        handles = [ctx.pack(conv, f"x{i}", act4d) for i in range(6)]
        ctx.close()
        for i, h in enumerate(handles):
            ctx.discard(conv, f"x{i}", h)
        # charged handles balance exactly; dropped ones were skipped
        assert tracker._live_raw == 0 and tracker._live_stored == 0

    def test_equal_payload_handles_tracked_by_identity(self):
        """Handles packing identical tensors (e.g. dead all-zero feature
        maps) must be tracked by identity: field-wise equality would
        choke on ndarray comparison and leak entries from the engine's
        live list."""
        eng = AsyncEngine(workers=1, prefetch_depth=2)
        ctx = CompressingContext(get_codec("szlike", entropy="zlib"), engine=eng)
        convs = [Conv2D(3, 2, 3, rng=1, name=f"z{i}") for i in range(3)]
        x = np.zeros((1, 3, 8, 8), dtype=np.float32)
        handles = [ctx.pack(c, "x", x) for c in convs]
        assert handles[0] != handles[1]
        for c, h in zip(reversed(convs), reversed(handles)):
            ctx.unpack(c, "x", h)
        # every slot tombstoned: no released handle is still tracked live
        assert all(h is None for h in eng._live)
        ctx.close()

    def test_flush_finalizes_everything(self, conv, act4d):
        tracker = MemoryTracker()
        ctx = CompressingContext(
            get_codec("szlike", entropy="zlib"), tracker=tracker,
            engine=AsyncEngine(workers=2),
        )
        handles = [ctx.pack(conv, f"x{i}", act4d) for i in range(4)]
        ctx.flush()
        assert tracker.per_layer["c"].packs == 4
        assert all(h.stored_nbytes > 0 for h in handles)
        for i, h in enumerate(handles):
            ctx.unpack(conv, f"x{i}", h)
        ctx.close()


class TestAdaptivePrefetchDepth:
    """prefetch_depth="auto": depth derived from observed backward-step
    latency vs materialization cost — a pure scheduling knob, so results
    must stay bit-identical to sync at every depth."""

    @pytest.mark.parametrize("depth", [0, 1, 3, "auto"])
    def test_bit_identity_at_depth(self, depth):
        tr_s, sess_s = train_session(SyncEngine())
        tr_a, sess_a = train_session(AsyncEngine(workers=2, prefetch_depth=depth))
        np.testing.assert_array_equal(tr_s.history.losses, tr_a.history.losses)
        assert sess_s.tracker.iteration_ratios == sess_a.tracker.iteration_ratios
        assert sess_s.tracker.peak_stored_bytes == sess_a.tracker.peak_stored_bytes

    def test_auto_depth_adapts_from_latencies(self, rng):
        """Feed the EMAs directly: slow materialize over fast backward
        steps must deepen the window; the clamp bounds it."""
        eng = AsyncEngine(workers=1, prefetch_depth="auto", max_auto_depth=4)
        assert eng.adaptive_prefetch
        eng._update_ema("_gap_ema", 0.010)
        eng._update_ema("_job_ema", 0.025)
        assert eng._effective_depth() == 3  # ceil(25ms / 10ms)
        eng._job_ema = 1.0  # pathological codec: clamp holds
        assert eng._effective_depth() == 4
        eng._job_ema = 1e-5  # fast codec: never below one
        assert eng._effective_depth() == 1
        eng.close()

    def test_auto_depth_trains_and_settles(self):
        eng = AsyncEngine(workers=2, prefetch_depth="auto")
        with ByteArena(budget_bytes=0) as arena:
            tr_a, _ = train_session(eng, storage=arena)
            tr_s, _ = train_session(SyncEngine())
            np.testing.assert_array_equal(tr_s.history.losses, tr_a.history.losses)
        # the latency model saw real gaps and jobs and settled on a depth
        assert eng._gap_ema is not None and eng._job_ema is not None
        assert 1 <= eng.last_effective_depth <= eng.max_auto_depth

    def test_fixed_depth_engines_do_not_adapt(self):
        eng = AsyncEngine(workers=1, prefetch_depth=2)
        assert not eng.adaptive_prefetch
        eng._update_ema("_gap_ema", 0.001)
        eng._update_ema("_job_ema", 1.0)
        assert eng._effective_depth() == 2
        eng.close()

    def test_bad_depth_strings_rejected(self):
        with pytest.raises(ValueError, match="auto"):
            AsyncEngine(prefetch_depth="turbo")
        with pytest.raises(ValueError):
            AsyncEngine(prefetch_depth="auto", max_auto_depth=0)


class TestContextEngines:
    """Engines and storage apply to any codec on the one context exactly
    as to the adaptive SZ path."""

    def test_lossless_async_matches_sync(self, conv, act4d):
        outs = {}
        for engine in ("sync", "async"):
            ctx = CompressingContext(get_codec("sparse-lossless"), engine=ENGINES[engine]())
            h = ctx.pack(conv, "x", act4d)
            outs[engine] = ctx.unpack(conv, "x", h)
            assert ctx.tracker._live_raw == 0
            ctx.close()
        np.testing.assert_array_equal(outs["sync"], outs["async"])
        np.testing.assert_array_equal(outs["sync"], act4d)

    def test_async_arena_storage(self, conv, act4d):
        with ByteArena(budget_bytes=0) as arena:
            ctx = CompressingContext(
                get_codec("szlike", entropy="zlib"), storage=arena, engine=AsyncEngine(),
            )
            h = ctx.pack(conv, "x", act4d)
            ctx.flush()
            assert arena.spill_count == 1
            y = ctx.unpack(conv, "x", h)
            assert np.abs(act4d - y).max() <= ctx.error_bounds["c"] * (1 + 1e-6)
            assert len(arena) == 0
            ctx.close()

    def test_overlap_statistics_populated(self):
        eng = AsyncEngine(workers=2, prefetch_depth=2)
        _, sess = train_session(eng)
        assert eng.packs_submitted > 0
        assert eng.prefetches_scheduled > 0
        assert eng.prefetch_hits <= eng.prefetches_scheduled
