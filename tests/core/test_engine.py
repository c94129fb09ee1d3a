"""The saved-tensor engine: codec work inline on the calling thread.

:class:`SyncEngine` runs every pack and unpack on the training thread.
Pinned here, for every registry codec and both storage regimes
(in-process handle, byte arena that spills every entry):

* reconstructions equal the codec's own round trip bit for bit, and the
  tracker is charged the exact stored size;
* a pack is final when ``pack`` returns — nothing is left for ``flush``;
* handles release exactly once, by identity, whether unpacked or
  discarded unread;
* a failed codec call or a closed arena leaves the books balanced;
* whole training runs are bit-identical in and out of core.
"""

import threading

import numpy as np
import pytest

from repro.compression import available_codecs, get_codec
from repro.compression.registry import dumps as codec_dumps
from repro.core import (
    AdaptiveConfig,
    ByteArena,
    CompressedTraining,
    CompressingContext,
    MemoryTracker,
    SyncEngine,
)
from repro.core.policy_table import PolicyTable, ResolvedPolicy, compile_matcher
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


def make_ctx(name, use_arena, arena, tracker=None):
    return CompressingContext(
        make_codec(name), initial_rel_eb=1e-3,
        tracker=tracker or MemoryTracker(),
        storage=arena if use_arena else None,
    )


def live_bytes(tracker):
    return tracker._live_raw, tracker._live_stored


@pytest.fixture
def conv():
    return Conv2D(3, 2, 3, rng=1, name="c")


@pytest.fixture
def act4d(rng):
    return np.maximum(rng.standard_normal((2, 3, 16, 16)), 0).astype(np.float32)


@pytest.fixture
def arena():
    with ByteArena(budget_bytes=0) as a:  # every entry spills
        yield a


class TestEngineResolution:
    def test_default_is_sync(self):
        ctx = CompressingContext(make_codec("szlike"))
        assert isinstance(ctx.engine, SyncEngine)
        assert ctx.engine.packs_submitted == 0

    def test_each_context_owns_its_engine(self, conv, act4d):
        a = CompressingContext(make_codec("szlike"))
        b = CompressingContext(make_codec("szlike"))
        assert a.engine is not b.engine
        a.pack(conv, "x", act4d)
        assert a.tracker.per_layer["c"].packs == 1
        assert "c" not in b.tracker.per_layer

    def test_session_exposes_its_context_engine(self):
        net = small_net()
        sess = CompressedTraining(net, SGD(net.parameters(), lr=0.01, momentum=0.9))
        assert sess.engine is sess.ctx.engine
        assert isinstance(sess.engine, SyncEngine)


class TestBitIdentityPerCodec:
    """The context is transparent: what backward gets back is exactly
    what the codec's own round trip produces, through the arena or not."""

    @pytest.mark.parametrize("name", sorted(available_codecs()))
    @pytest.mark.parametrize("use_arena", [False, True])
    def test_roundtrip_and_accounting_match(self, name, use_arena, conv, act4d, arena):
        assert sorted(CODEC_SPECS) == sorted(available_codecs())
        tracker = MemoryTracker()
        ctx = make_ctx(name, use_arena, arena, tracker)
        reference = make_codec(name)
        xs = [act4d + i for i in range(3)]
        handles = [ctx.pack(conv, f"x{i}", x) for i, x in enumerate(xs)]
        eb = ctx.error_bounds["c"]
        expected_stored = 0
        for i in reversed(range(3)):
            ct = reference.compress(xs[i], error_bound=eb)
            stored = len(codec_dumps(ct)) if use_arena else ct.nbytes
            assert handles[i].stored_nbytes == stored
            expected_stored += stored
            np.testing.assert_array_equal(
                ctx.unpack(conv, f"x{i}", handles[i]), reference.decompress(ct)
            )
        rec = tracker.per_layer["c"]
        assert (rec.raw_bytes, rec.stored_bytes, rec.packs) == (
            sum(x.nbytes for x in xs), expected_stored, 3,
        )
        assert live_bytes(tracker) == (0, 0)
        assert len(arena) == 0


class TestInlineExecution:
    @pytest.mark.parametrize("name", sorted(CODEC_SPECS))
    @pytest.mark.parametrize("use_arena", [False, True])
    def test_codec_runs_on_calling_thread(self, name, use_arena, conv, act4d, arena):
        ctx = make_ctx(name, use_arena, arena)
        codec, seen = ctx.compressor, []
        for method in ("compress", "decompress"):
            def spy(*args, _orig=getattr(codec, method), _method=method, **kwargs):
                seen.append((_method, threading.get_ident()))
                return _orig(*args, **kwargs)
            setattr(codec, method, spy)
        h = ctx.pack(conv, "x", act4d)
        ctx.unpack(conv, "x", h)
        me = threading.get_ident()
        assert seen == [("compress", me), ("decompress", me)]

    @pytest.mark.parametrize("name", sorted(CODEC_SPECS))
    @pytest.mark.parametrize("use_arena", [False, True])
    def test_flush_finalizes_everything(self, name, use_arena, conv, act4d, arena):
        """A pack is committed before ``pack`` returns; ``flush`` has
        nothing left to do."""
        tracker = MemoryTracker()
        ctx = make_ctx(name, use_arena, arena, tracker)
        handles = [ctx.pack(conv, f"x{i}", act4d) for i in range(4)]
        before = (live_bytes(tracker), len(arena), ctx.engine.packs_submitted)
        assert tracker.per_layer["c"].packs == 4
        assert all(h.stored_nbytes > 0 for h in handles)
        assert live_bytes(tracker) == (4 * act4d.nbytes, sum(h.stored_nbytes for h in handles))
        assert all((h.arena_key is not None) == use_arena for h in handles)
        assert len(arena) == (4 if use_arena else 0)
        # the engine counts the out-of-core packs only
        assert ctx.engine.packs_submitted == (4 if use_arena else 0)
        ctx.engine.flush()
        assert (live_bytes(tracker), len(arena), ctx.engine.packs_submitted) == before
        for i, h in reversed(list(enumerate(handles))):
            ctx.unpack(conv, f"x{i}", h)
        assert live_bytes(tracker) == (0, 0)


class TestReleaseByIdentity:
    @pytest.mark.parametrize("name", sorted(CODEC_SPECS))
    @pytest.mark.parametrize("use_arena", [False, True])
    def test_discard_unread_releases_every_key(self, name, use_arena, conv, act4d, arena):
        """Handles dropped without an unpack (an abandoned step's
        ``clear_saved``) release their bytes once and are never decoded."""
        tracker = MemoryTracker()
        ctx = make_ctx(name, use_arena, arena, tracker)
        handles = [ctx.pack(conv, f"x{i}", act4d) for i in range(3)]
        for i, h in enumerate(handles):
            ctx.discard(conv, f"x{i}", h)
            ctx.discard(conv, f"x{i}", h)  # a second discard is a no-op
        assert tracker.per_layer["c"].packs == 3
        assert live_bytes(tracker) == (0, 0)
        assert len(arena) == 0 and arena.spilled_nbytes == 0
        if use_arena:
            assert all(h.compressed is None for h in handles)

    @pytest.mark.parametrize("name", sorted(CODEC_SPECS))
    @pytest.mark.parametrize("use_arena", [False, True])
    def test_equal_payload_handles_tracked_by_identity(self, name, use_arena, arena):
        """Identical tensors (dead all-zero feature maps) still get one
        handle, one charge and one release each."""
        tracker = MemoryTracker()
        ctx = make_ctx(name, use_arena, arena, tracker)
        convs = [Conv2D(3, 2, 3, rng=1, name=f"z{i}") for i in range(3)]
        x = np.zeros((1, 3, 8, 8), dtype=np.float32)
        handles = [ctx.pack(c, "x", x) for c in convs]
        assert handles[0] != handles[1] and handles[1] != handles[2]
        if use_arena:
            assert len({h.arena_key for h in handles}) == 3
        ctx.unpack(convs[2], "x", handles[2])
        unread = handles[:2]
        assert live_bytes(tracker) == (2 * x.nbytes, sum(h.stored_nbytes for h in unread))
        for c, h in zip(reversed(convs[:2]), reversed(unread)):
            np.testing.assert_array_equal(ctx.unpack(c, "x", h), x)
        assert live_bytes(tracker) == (0, 0)
        assert len(arena) == 0


class TestFailures:
    @pytest.mark.parametrize("use_arena", [False, True])
    def test_failed_pack_job_does_not_corrupt_tracker(self, use_arena, conv, act4d, arena):
        """A codec that raises (SZ rejects non-finite input) fails the
        ``pack`` call itself: nothing is charged or stored for it."""
        tracker = MemoryTracker()
        ctx = make_ctx("szlike", use_arena, arena, tracker)
        h_ok = ctx.pack(conv, "a", act4d)
        bad = act4d.copy()
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            ctx.pack(conv, "b", bad)
        assert tracker.per_layer["c"].packs == 1
        assert live_bytes(tracker) == (act4d.nbytes, h_ok.stored_nbytes)
        assert len(arena) == (1 if use_arena else 0)
        ctx.discard(conv, "a", h_ok)
        assert live_bytes(tracker) == (0, 0)
        assert len(arena) == 0

    def test_arena_closed_under_context_is_survivable(self, conv, act4d):
        """Handles outliving their arena still discard cleanly, and a
        pack into the closed arena raises without charging the tracker."""
        tracker = MemoryTracker()
        arena = ByteArena(budget_bytes=0)
        ctx = CompressingContext(
            get_codec("szlike", entropy="zlib"), tracker=tracker, storage=arena
        )
        handles = [ctx.pack(conv, f"x{i}", act4d) for i in range(3)]
        arena.close()
        for i, h in enumerate(handles):
            ctx.discard(conv, f"x{i}", h)
        assert live_bytes(tracker) == (0, 0)
        with pytest.raises(RuntimeError, match="closed"):
            ctx.pack(conv, "y", act4d)
        assert tracker.per_layer["c"].packs == 3
        assert live_bytes(tracker) == (0, 0)


def small_net():
    return Sequential([
        Conv2D(3, 6, 3, padding=1, rng=1, name="c1"), ReLU(), MaxPool2D(2),
        Conv2D(6, 8, 3, padding=1, rng=2, name="c2"), ReLU(), MaxPool2D(2),
        Flatten(), Linear(8 * 4 * 4, 4, rng=3),
    ])


def mixed_net():
    return Sequential([
        Conv2D(3, 6, 3, padding=1, rng=1, name="c1"), ReLU(), MaxPool2D(2),
        Conv2D(6, 8, 3, padding=1, rng=2, name="c2"), ReLU(), MaxPool2D(2),
        Conv2D(8, 8, 3, padding=1, rng=4, name="c3"), ReLU(),
        Flatten(), Linear(8 * 4 * 4, 4, rng=3),
    ])


def mixed_table():
    """Three codecs across the net: lossless, tight szlike, jpeg."""
    return PolicyTable([
        (compile_matcher("c1"), ResolvedPolicy(label="front", codec=get_codec("lossless"), adaptive=False)),
        (compile_matcher("c2"), ResolvedPolicy(label="mid", error_bound=1e-4, adaptive=False)),
        (compile_matcher("c3"), ResolvedPolicy(label="back", codec=get_codec("jpeg", quality=80), adaptive=False)),
    ])


def train_session(storage=None, iters=8, net_fn=small_net, policy_table=None):
    net = net_fn()
    opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
    tr = Trainer(net, opt)
    sess = CompressedTraining(
        net, opt,
        compressor=get_codec("szlike", entropy="zlib"),
        config=AdaptiveConfig(W=5, warmup_iterations=2),
        storage=storage, policy_table=policy_table,
    ).attach(tr)
    ds = SyntheticImageDataset(num_classes=4, image_size=16, channels=3, seed=3)
    tr.train(batches(ds, 8, iters, seed=0))
    tr.close()
    return tr, sess


class TestTrainingBitIdentity:
    @pytest.mark.parametrize(
        "budget", [None, 4096, 0], ids=["resident", "partial-spill", "all-spilled"]
    )
    def test_arena_training_matches_in_process(self, budget):
        tr_ref, sess_ref = train_session()
        with ByteArena(budget_bytes=budget) as arena:
            tr, sess = train_session(storage=arena)
            np.testing.assert_array_equal(tr_ref.history.losses, tr.history.losses)
            assert sess_ref.error_bounds == sess.error_bounds
            assert (arena.spill_count > 0) == (budget is not None)
            assert len(arena) == 0
        for name in ("c1", "c2"):
            a, b = sess_ref.tracker.per_layer[name], sess.tracker.per_layer[name]
            assert (a.raw_bytes, a.packs) == (b.raw_bytes, b.packs)
        assert sess.engine.packs_submitted == 16  # 8 steps x 2 convs
        assert sess_ref.engine.packs_submitted == 0
        assert live_bytes(sess.tracker) == (0, 0)

    def test_mixed_policy_codecs_through_spilled_arena(self):
        """Three codecs behind policy rules, every byte spilled: training
        is bit-identical to the same run held in process."""
        tr_ref, sess_ref = train_session(iters=6, net_fn=mixed_net, policy_table=mixed_table())
        with ByteArena(budget_bytes=0) as arena:
            tr, sess = train_session(
                storage=arena, iters=6, net_fn=mixed_net, policy_table=mixed_table()
            )
            assert len(arena) == 0
        np.testing.assert_array_equal(tr_ref.history.losses, tr.history.losses)
        for name in ("c1", "c2", "c3"):
            a, b = sess_ref.tracker.per_layer[name], sess.tracker.per_layer[name]
            assert (a.raw_bytes, a.packs) == (b.raw_bytes, b.packs)
        assert set(sess.tracker.per_group) >= {"front", "mid", "back"}

    def test_abandoned_step_releases_everything(self):
        """A forward pass whose backward never runs (a step abandoned
        mid-stream) is cleaned up by ``clear_saved``: live bytes and
        arena entries return to zero."""
        with ByteArena(budget_bytes=0) as arena:
            tr, sess = train_session(
                storage=arena, iters=2, net_fn=mixed_net, policy_table=mixed_table()
            )
            x, _ = SyntheticImageDataset(
                num_classes=4, image_size=16, channels=3, seed=3
            ).sample(8, rng=0)
            tr.network.forward(x)
            assert len(arena) == 3
            assert sess.tracker._live_raw > 0
            tr.network.clear_saved()
            assert len(arena) == 0
            assert live_bytes(sess.tracker) == (0, 0)
