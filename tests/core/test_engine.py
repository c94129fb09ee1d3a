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

from repro.api import (
    AdaptiveSpec,
    CodecSpec,
    SessionConfig,
    StorageSpec,
    build_session,
)
from repro.compression import available_codecs, get_codec
from repro.compression.registry import dumps as codec_dumps
from repro.core import (
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

#: case -> (registry key, constructor kwargs): every registry codec at
#: test scale, and szlike a second time on its zlib entropy stage
CODEC_SPECS = {
    "szlike": ("szlike", dict(error_bound=1e-3, entropy="huffman")),
    "jpeg": ("jpeg", dict(quality=60)),
    "lossless": ("lossless", {}),
    "sparse-lossless": ("sparse-lossless", {}),
    "szlike-zlib": ("szlike", dict(error_bound=1e-3, entropy="zlib")),
}


def make_codec(case):
    key, kwargs = CODEC_SPECS[case]
    return get_codec(key, **kwargs)


def make_ctx(name, use_arena, arena, tracker=None):
    return CompressingContext(
        make_codec(name),
        tracker=tracker or MemoryTracker(),
        storage=arena if use_arena else None,
        adaptive=AdaptiveSpec(),
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
        ctx = CompressingContext(make_codec("szlike"), adaptive=AdaptiveSpec())
        assert isinstance(ctx.engine, SyncEngine)
        assert ctx.engine.packs_submitted == 0

    def test_each_context_owns_its_engine(self, conv, act4d):
        a = CompressingContext(make_codec("szlike"), adaptive=AdaptiveSpec())
        b = CompressingContext(make_codec("szlike"), adaptive=AdaptiveSpec())
        assert a.engine is not b.engine
        a.pack(conv, "x", act4d)
        assert a.tracker.per_layer["c"].packs == 1
        assert "c" not in b.tracker.per_layer

    def test_session_exposes_its_context_engine(self):
        net = small_net()
        sess = CompressedTraining(
            net, SGD(net.parameters(), lr=0.01, momentum=0.9), config=AdaptiveSpec()
        )
        assert sess.engine is sess.ctx.engine
        assert isinstance(sess.engine, SyncEngine)


class TestBitIdentityPerCodec:
    """The context is transparent: what backward gets back is exactly
    what the codec's own round trip produces, through the arena or not."""

    @pytest.mark.parametrize("name", sorted(CODEC_SPECS))
    @pytest.mark.parametrize("use_arena", [False, True])
    def test_roundtrip_and_accounting_match(self, name, use_arena, conv, act4d, arena):
        assert {key for key, _ in CODEC_SPECS.values()} == set(available_codecs())
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
            get_codec("szlike", entropy="zlib"), tracker=tracker, storage=arena,
            adaptive=AdaptiveSpec(),
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


def three_conv_net():
    return Sequential([
        Conv2D(3, 6, 3, padding=1, rng=1, name="c1"), ReLU(), MaxPool2D(2),
        Conv2D(6, 8, 3, padding=1, rng=2, name="c2"), ReLU(), MaxPool2D(2),
        Conv2D(8, 8, 3, padding=1, rng=4, name="c3"), ReLU(),
        Flatten(), Linear(8 * 4 * 4, 4, rng=3),
    ])


#: one session codec per case, each under its own fixed bound regime
#: (the adaptive controller is off): lossless, tight szlike, jpeg
SESSION_CODECS = {
    "lossless": CodecSpec("lossless"),
    "szlike-tight": CodecSpec("szlike", {"entropy": "zlib", "error_bound": 1e-4}),
    "jpeg": CodecSpec("jpeg", {"quality": 80}),
}


def train_session(storage=None, iters=8):
    net = small_net()
    opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
    tr = Trainer(net, opt)
    sess = CompressedTraining(
        net, opt,
        compressor=get_codec("szlike", entropy="zlib"),
        config=AdaptiveSpec(W=5, warmup_iterations=2),
        storage=storage,
    ).attach(tr)
    ds = SyntheticImageDataset(num_classes=4, image_size=16, channels=3, seed=3)
    tr.train(batches(ds, 8, iters, seed=0))
    return tr, sess


def train_codec(case, arena=None, iters=6):
    """``three_conv_net`` trained with ``SESSION_CODECS[case]`` on every
    layer, held in process or in *arena*."""
    cfg = SessionConfig(
        codec=SESSION_CODECS[case],
        storage=StorageSpec(activations="inmem" if arena is None else "arena"),
        adaptive=AdaptiveSpec(enabled=False),
    )
    net = three_conv_net()
    opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
    with build_session(net, cfg, optimizer=opt, storage=arena) as s:
        ds = SyntheticImageDataset(num_classes=4, image_size=16, channels=3, seed=3)
        s.train(batches(ds, 8, iters, seed=0))
    return s


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
        # c1 is fed the data batch and keeps it by reference: only c2 packs
        assert set(sess_ref.tracker.per_layer) == set(sess.tracker.per_layer) == {"c2"}
        a, b = sess_ref.tracker.per_layer["c2"], sess.tracker.per_layer["c2"]
        assert (a.raw_bytes, a.packs) == (b.raw_bytes, b.packs)
        assert sess.engine.packs_submitted == 8  # 8 steps x 1 packing conv
        assert sess_ref.engine.packs_submitted == 0
        assert live_bytes(sess.tracker) == (0, 0)

    @pytest.mark.parametrize("budget", [0, 2048], ids=["all-spilled", "partial-spill"])
    @pytest.mark.parametrize("case", SESSION_CODECS)
    def test_session_codec_through_spilled_arena(self, case, budget):
        """Each codec, its bytes spilled: training is bit-identical to
        the same run held in process, and every entry is released."""
        ref = train_codec(case)
        with ByteArena(budget_bytes=budget) as arena:
            s = train_codec(case, arena)
            if budget == 0:
                assert arena.spill_count == 2 * 6  # two packing convs, six steps
            assert arena.spill_count > 0
            assert len(arena) == 0
        np.testing.assert_array_equal(ref.history.losses, s.history.losses)
        # the codec's own bound on every packing layer (c1 is fed the data
        # batch and packs nothing); codecs without one record none
        bounds = {n: 1e-4 for n in ("c2", "c3")} if case == "szlike-tight" else {}
        assert ref.error_bounds == s.error_bounds == bounds
        assert "c1" not in ref.tracker.per_layer and "c1" not in s.tracker.per_layer
        for name in ("c2", "c3"):
            a, b = ref.tracker.per_layer[name], s.tracker.per_layer[name]
            assert (a.raw_bytes, a.packs) == (b.raw_bytes, b.packs)
        assert live_bytes(s.tracker) == (0, 0)

    @pytest.mark.parametrize("case", SESSION_CODECS)
    def test_abandoned_step_releases_everything(self, case):
        """A forward pass whose backward never runs (a step abandoned
        mid-stream) is cleaned up by ``clear_saved``: live bytes and
        arena entries return to zero."""
        with ByteArena(budget_bytes=0) as arena:
            s = train_codec(case, arena, iters=2)
            x, _ = SyntheticImageDataset(
                num_classes=4, image_size=16, channels=3, seed=3
            ).sample(8, rng=0)
            s.network.forward(x)  # outside a training step every conv packs
            assert len(arena) == 3
            assert s.tracker._live_raw > 0
            s.network.clear_saved()
            assert len(arena) == 0
            assert live_bytes(s.tracker) == (0, 0)
