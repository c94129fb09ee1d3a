"""ByteArena storage: budget/spill mechanics, byte-exact accounting, and
the release-exactly-once contract of the compressing context."""

import os

import numpy as np
import pytest

from repro.api import AdaptiveSpec
from repro.compression import SZCompressor, get_codec
from repro.compression.registry import dumps as codec_dumps
from repro.core import (
    ByteArena,
    CompressingContext,
    MemoryTracker,
    PackedActivation,
)
from repro.nn import Conv2D, SGD, Sequential, ReLU, Flatten, Linear, MaxPool2D


class TestByteArena:
    def test_put_get_pop(self):
        with ByteArena(budget_bytes=1 << 20) as a:
            k = a.put(b"hello")
            assert k in a
            assert a.get(k) == b"hello"
            assert a.pop(k) == b"hello"
            assert k not in a
            assert len(a) == 0

    def test_budget_spills_oldest_to_disk(self, tmp_path):
        a = ByteArena(budget_bytes=250, spill_dir=str(tmp_path))
        keys = [a.put(bytes([i]) * 100) for i in range(4)]
        # 400 live bytes against a 250 budget: the two oldest spill
        assert a.in_memory_nbytes <= 250
        assert a.spill_count == 2
        assert a.spilled_nbytes == 200
        assert os.listdir(tmp_path) == [a._tag + ".spill"]  # one file per arena
        assert os.path.getsize(tmp_path / os.listdir(tmp_path)[0]) == 200
        # spilled entries read back intact
        for i, k in enumerate(keys):
            assert a.get(k) == bytes([i]) * 100
        a.close()

    def test_pop_spilled_empties_file(self, tmp_path):
        a = ByteArena(budget_bytes=0, spill_dir=str(tmp_path))
        k = a.put(b"x" * 64)
        assert a.in_memory_nbytes == 0
        assert a.pop(k) == b"x" * 64
        assert a.spilled_nbytes == 0
        # nothing left on disk: the one spill file is truncated, not deleted
        (name,) = os.listdir(tmp_path)
        assert os.path.getsize(tmp_path / name) == 0
        a.close()
        assert os.listdir(tmp_path) == []

    def test_no_budget_never_spills(self):
        a = ByteArena(budget_bytes=None)
        for i in range(10):
            a.put(b"y" * 1000)
        assert a.spill_count == 0
        assert a.in_memory_nbytes == 10_000
        a.close()

    def test_peak_statistics(self):
        a = ByteArena(budget_bytes=None)
        k1 = a.put(b"a" * 100)
        k2 = a.put(b"b" * 100)
        a.discard(k1)
        a.put(b"c" * 50)
        assert a.peak_in_memory_nbytes == 200
        assert a.total_nbytes == 150
        a.close()

    def test_peak_counts_resident_bytes_before_spill(self):
        """Every blob is resident before eviction relieves the budget,
        and the peak must record that true high-water mark."""
        a = ByteArena(budget_bytes=0)
        a.put(b"z" * 500)
        assert a.peak_in_memory_nbytes == 500
        assert a.in_memory_nbytes == 0
        a.close()

    def test_close_removes_owned_spill_dir(self):
        a = ByteArena(budget_bytes=0)
        a.put(b"z" * 32)
        spill_dir = a._spill_dir
        assert spill_dir is not None and os.path.isdir(spill_dir)
        a.close()
        assert not os.path.exists(spill_dir)
        with pytest.raises(RuntimeError):
            a.put(b"after close")

    def test_shared_spill_dir_no_collision(self, tmp_path):
        """Two arenas spilling into one directory must not clobber each
        other's entries, and closing one must leave the other's files."""
        a = ByteArena(budget_bytes=0, spill_dir=str(tmp_path))
        b = ByteArena(budget_bytes=0, spill_dir=str(tmp_path))
        ka = a.put(b"A" * 50)
        kb = b.put(b"B" * 50)
        assert a.get(ka) == b"A" * 50
        assert b.get(kb) == b"B" * 50
        a.close()
        assert b.get(kb) == b"B" * 50
        b.close()

    def test_close_deletes_spill_file_in_user_dir(self, tmp_path):
        a = ByteArena(budget_bytes=0, spill_dir=str(tmp_path))
        a.put(b"x" * 64)
        a.put(b"y" * 64)
        assert len(os.listdir(tmp_path)) == 1  # one file per arena
        a.close()
        assert os.listdir(tmp_path) == []  # files gone, directory kept
        assert os.path.isdir(tmp_path)

    def test_unknown_key_rejected(self):
        with ByteArena() as a:
            with pytest.raises(KeyError):
                a.get(99)
            a.discard(99)  # no-op by contract

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            ByteArena(budget_bytes=-1)

    def test_failed_spill_keeps_entries_and_leaks_no_key(self, tmp_path):
        """A spill write that fails (here: the spill directory is a
        regular file) leaves the older entry resident and readable, and
        the put that triggered it removes its own entry."""
        not_a_dir = tmp_path / "spill"
        not_a_dir.write_bytes(b"")
        a = ByteArena(budget_bytes=10, spill_dir=str(not_a_dir))
        k1 = a.put(b"x" * 8)
        with pytest.raises(OSError):
            a.put(b"y" * 8)
        assert k1 in a and a.get(k1) == b"x" * 8
        assert len(a) == 1
        assert a.in_memory_nbytes == 8 and a.spilled_nbytes == 0
        assert a.spill_count == 0
        assert sorted(os.listdir(tmp_path)) == ["spill"]  # no spill file
        a.close()

    def test_deleted_spill_file_keeps_entries(self, tmp_path):
        """A cleaner removing everything in the spill directory takes no
        entry with it: the arena reads through the fd it holds."""
        a = ByteArena(budget_bytes=0, spill_dir=str(tmp_path))
        keys = [a.put(bytes([i]) * (100 + i)) for i in range(3)]
        for name in os.listdir(tmp_path):
            os.remove(tmp_path / name)
        assert [a.get(k) for k in keys] == [bytes([i]) * (100 + i) for i in range(3)]
        k = a.put(b"after" * 10)  # spills keep working too
        assert a.get(k) == b"after" * 10
        a.close()

    @pytest.mark.parametrize("short", [False, True])
    def test_failed_append_truncates_and_keeps_entry(self, tmp_path, monkeypatch, short):
        import errno

        import repro.core.arena as arena_mod

        a = ByteArena(budget_bytes=0, spill_dir=str(tmp_path))
        k1 = a.put(b"x" * 100)
        real_pwrite = os.pwrite

        def failing_pwrite(fd, data, offset):
            if short:
                return real_pwrite(fd, bytes(data)[:10], offset)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(arena_mod.os, "pwrite", failing_pwrite)
        with pytest.raises(OSError) as info:
            a.put(b"y" * 100)
        assert info.value.errno == errno.ENOSPC
        monkeypatch.undo()
        assert len(a) == 1 and a.get(k1) == b"x" * 100
        assert a.spill_count == 1 and a.in_memory_nbytes == 0
        (name,) = os.listdir(tmp_path)
        assert os.path.getsize(tmp_path / name) == 100  # cut back to the old end
        k2 = a.put(b"z" * 50)
        assert a.get(k1) == b"x" * 100 and a.get(k2) == b"z" * 50
        a.close()

    def test_spill_file_stays_within_live_plus_slack(self, tmp_path):
        """2 000 put/discard cycles through one file: dead bytes are
        compacted away, so the file never exceeds live + 4 MiB, and every
        live entry round-trips throughout."""
        rng = np.random.default_rng(0)
        a = ByteArena(budget_bytes=0, spill_dir=str(tmp_path))
        live = {}
        largest_file = written = 0
        for i in range(2000):
            payload = bytes([i % 251]) * int(rng.integers(1, 8 << 10))
            live[a.put(payload)] = payload
            written += len(payload)
            if len(live) > 40:
                victim = list(live)[int(rng.integers(0, len(live)))]
                a.discard(victim)
                del live[victim]
            (name,) = os.listdir(tmp_path)
            size = os.path.getsize(tmp_path / name)
            assert size <= a.spilled_nbytes + (4 << 20)
            largest_file = max(largest_file, size)
            if i % 97 == 0:
                assert all(a.get(k) == v for k, v in live.items())
        assert a.spilled_nbytes == sum(map(len, live.values()))
        assert all(a.get(k) == v for k, v in live.items())
        assert largest_file < written  # compaction ran
        for k in list(live):
            a.discard(k)
        assert os.path.getsize(tmp_path / name) == 0
        a.close()
        assert os.listdir(tmp_path) == []

    def test_failed_forced_spill_keeps_entries(self, tmp_path):
        not_a_dir = tmp_path / "spill"
        not_a_dir.write_bytes(b"")
        a = ByteArena(budget_bytes=None, spill_dir=str(not_a_dir))
        keys = [a.put(bytes([i]) * 16, group="g") for i in range(3)]
        with pytest.raises(OSError):
            a.spill_bytes(32)
        assert [a.get(k) for k in keys] == [bytes([i]) * 16 for i in range(3)]
        assert a.in_memory_nbytes == 48 and a.spilled_nbytes == 0
        a.close()


class TestByteArenaThreadSafety:
    """Threads sharing an arena (a pool's rebalance, a server's stats
    reads) must not corrupt the FIFO, double-spill, or tear the byte
    accounting."""

    def test_concurrent_put_get_discard(self, tmp_path):
        import threading

        a = ByteArena(budget_bytes=2048, spill_dir=str(tmp_path))
        errors = []

        def hammer(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(100):
                    size = int(rng.integers(16, 256))
                    payload = bytes([seed]) * size
                    k = a.put(payload)
                    assert a.get(k) == payload
                    assert a.pop(k) == payload
                    assert k not in a
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(a) == 0
        assert a.in_memory_nbytes == 0
        assert a.spilled_nbytes == 0
        a.close()
        assert os.listdir(tmp_path) == []

    def test_concurrent_spill_pressure_exact_accounting(self):
        import threading

        a = ByteArena(budget_bytes=0)  # every put spills immediately
        keys_per_thread = {}

        def producer(tid):
            keys_per_thread[tid] = [a.put(bytes([tid]) * 128) for _ in range(25)]

        threads = [threading.Thread(target=producer, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert a.spill_count == 100
        assert a.spilled_nbytes == 100 * 128
        for tid, keys in keys_per_thread.items():
            for k in keys:
                assert a.pop(k) == bytes([tid]) * 128
        assert a.total_nbytes == 0
        a.close()


@pytest.fixture
def conv():
    return Conv2D(3, 2, 3, rng=1, name="c")


@pytest.fixture
def act4d(rng):
    return np.maximum(rng.standard_normal((2, 3, 16, 16)), 0).astype(np.float32)


class TestArenaBackedContext:
    def test_pack_stores_bytes_and_unpack_restores(self, conv, act4d):
        with ByteArena(budget_bytes=1 << 20) as arena:
            comp = SZCompressor(entropy="zlib")
            ctx = CompressingContext(
                comp, storage=arena, adaptive=AdaptiveSpec(initial_rel_eb=1e-4)
            )
            h = ctx.pack(conv, "x", act4d)
            assert isinstance(h, PackedActivation)
            assert h.arena_key is not None and h.compressed is None
            assert len(arena) == 1
            y = ctx.unpack(conv, "x", h)
            assert np.abs(act4d - y).max() <= ctx.error_bounds["c"] * (1 + 1e-6)
            assert len(arena) == 0  # released on unpack

    def test_tracker_numbers_are_physical_bytes(self, conv, act4d):
        """Under arena storage the tracker charge equals len(dumps(ct))."""
        tracker = MemoryTracker()
        with ByteArena(budget_bytes=None) as arena:
            ctx = CompressingContext(
                SZCompressor(entropy="zlib"), tracker=tracker, storage=arena,
                adaptive=AdaptiveSpec(),
            )
            comp = SZCompressor(entropy="zlib")
            eb_probe = CompressingContext(comp, adaptive=AdaptiveSpec())
            expected = len(codec_dumps(comp.compress(act4d, eb_probe.resolve_error_bound(conv, act4d))))
            h = ctx.pack(conv, "x", act4d)
            assert h.stored_nbytes == expected
            assert arena.in_memory_nbytes == expected
            assert tracker.per_layer["c"].stored_bytes == expected

    def test_spill_to_disk_roundtrips(self, conv, act4d, tmp_path):
        arena = ByteArena(budget_bytes=0, spill_dir=str(tmp_path))
        comp = SZCompressor(entropy="zlib")
        ctx = CompressingContext(
            comp, storage=arena, adaptive=AdaptiveSpec(initial_rel_eb=1e-4)
        )
        h = ctx.pack(conv, "x", act4d)
        assert arena.spill_count == 1
        assert arena.in_memory_nbytes == 0
        y = ctx.unpack(conv, "x", h)
        assert np.abs(act4d - y).max() <= ctx.error_bounds["c"] * (1 + 1e-6)
        arena.close()

    def test_repeated_unpack_still_works_after_release(self, conv, act4d):
        with ByteArena() as arena:
            ctx = CompressingContext(
                SZCompressor(entropy="zlib"), storage=arena, adaptive=AdaptiveSpec()
            )
            h = ctx.pack(conv, "x", act4d)
            y1 = ctx.unpack(conv, "x", h)
            y2 = ctx.unpack(conv, "x", h)  # bytes already released
            np.testing.assert_array_equal(y1, y2)

    def test_relu_recompute_with_unbounded_codec(self, conv, rng):
        """Codecs without an error bound (jpeg/lossless) get the ReLU
        recompute but no eb-band clamp — and must not crash."""
        ctx = CompressingContext(get_codec("jpeg", quality=75), adaptive=AdaptiveSpec())
        ctx.relu_recompute_layers.add("c")
        x = np.maximum(rng.standard_normal((1, 3, 16, 16)), 0).astype(np.float32)
        h = ctx.pack(conv, "x", x)
        y = ctx.unpack(conv, "x", h)
        assert (y >= 0).all()

    def test_zlib_szlike_codec_through_arena(self, conv, rng):
        x = np.maximum(rng.standard_normal((4, 3, 16, 16)), 0).astype(np.float32)
        sz = get_codec("szlike", error_bound=1e-3, entropy="zlib")
        with ByteArena() as arena:
            ctx = CompressingContext(
                sz, storage=arena, adaptive=AdaptiveSpec(initial_rel_eb=1e-4)
            )
            h = ctx.pack(conv, "x", x)
            y = ctx.unpack(conv, "x", h)
            assert np.abs(x - y).max() <= ctx.error_bounds["c"] * (1 + 1e-6)


class TestReleaseExactlyOnce:
    """Regression for the double-counted release: unpack + later discard
    must credit the tracker's live-byte counters only once."""

    def _packed(self, tracker, storage=None):
        ctx = CompressingContext(
            SZCompressor(entropy="zlib"), tracker=tracker, storage=storage, adaptive=AdaptiveSpec()
        )
        conv = Conv2D(3, 2, 3, rng=1, name="c")
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        return ctx, conv, x, ctx.pack(conv, "x", x)

    def test_unpack_then_discard_releases_once(self):
        t = MemoryTracker()
        ctx, conv, x, h = self._packed(t)
        assert t._live_raw == x.nbytes
        ctx.unpack(conv, "x", h)
        assert t._live_raw == 0 and t._live_stored == 0
        # the handle still sits in Layer._saved; a later clear_saved
        # discards it — this must NOT go negative
        ctx.discard(conv, "x", h)
        assert t._live_raw == 0 and t._live_stored == 0

    def test_double_discard_releases_once(self):
        t = MemoryTracker()
        ctx, conv, x, h = self._packed(t)
        ctx.discard(conv, "x", h)
        ctx.discard(conv, "x", h)
        assert t._live_raw == 0 and t._live_stored == 0

    def test_repeated_unpack_releases_once(self):
        t = MemoryTracker()
        ctx, conv, x, h = self._packed(t)
        ctx.unpack(conv, "x", h)
        ctx.unpack(conv, "x", h)
        assert t._live_raw == 0 and t._live_stored == 0

    def test_lossless_codec_releases_once(self):
        from repro.compression import get_codec

        t = MemoryTracker()
        ctx = CompressingContext(get_codec("sparse-lossless"), tracker=t, adaptive=AdaptiveSpec())
        conv = Conv2D(3, 2, 3, rng=1, name="c")
        x = np.random.default_rng(0).standard_normal((1, 3, 8, 8)).astype(np.float32)
        h = ctx.pack(conv, "x", x)
        ctx.unpack(conv, "x", h)
        ctx.discard(conv, "x", h)
        assert t._live_raw == 0 and t._live_stored == 0

    def test_layer_unpack_then_clear_saved(self):
        """End-to-end through the Layer plumbing: an unpack that leaves
        the handle in _saved, then clear_saved discards it."""
        t = MemoryTracker()
        ctx = CompressingContext(SZCompressor(entropy="zlib"), tracker=t, adaptive=AdaptiveSpec())
        conv = Conv2D(3, 2, 3, rng=1, name="c")
        conv.saved_ctx = ctx
        x = np.random.default_rng(0).standard_normal((1, 3, 8, 8)).astype(np.float32)
        conv._save("x", x)
        ctx.unpack(conv, "x", conv._saved["x"])  # unpack without popping
        conv.clear_saved()  # discard the same handle
        assert t._live_raw == 0 and t._live_stored == 0


#: case -> (registry key, constructor kwargs): every registry codec at
#: test scale, and szlike a second time on its zlib entropy stage
CODEC_SPECS = {
    "szlike": ("szlike", dict(error_bound=1e-3, entropy="huffman")),
    "jpeg": ("jpeg", dict(quality=60)),
    "lossless": ("lossless", {}),
    "sparse-lossless": ("sparse-lossless", {}),
    "szlike-zlib": ("szlike", dict(error_bound=1e-3, entropy="zlib")),
}


class TestSavedTensorContract:
    """The saved-tensor path's lifecycle, for every codec and storage
    regime: each handle is charged once and released once, and every
    arena key it took is given back."""

    @pytest.mark.parametrize("name", sorted(CODEC_SPECS))
    @pytest.mark.parametrize("use_arena", [False, True])
    def test_every_codec_releases_once(self, name, use_arena, conv, act4d):
        from repro.compression import available_codecs

        assert {key for key, _ in CODEC_SPECS.values()} == set(available_codecs())
        key, kwargs = CODEC_SPECS[name]
        tracker = MemoryTracker()
        with ByteArena(budget_bytes=0) as arena:
            ctx = CompressingContext(
                get_codec(key, **kwargs), tracker=tracker, storage=arena if use_arena else None,
                adaptive=AdaptiveSpec(),
            )
            handles = [ctx.pack(conv, f"x{i}", act4d + i) for i in range(3)]
            assert len(arena) == (3 if use_arena else 0)
            for i, h in reversed(list(enumerate(handles))):
                ctx.unpack(conv, f"x{i}", h)
                ctx.discard(conv, f"x{i}", h)
            assert len(arena) == 0
        assert tracker.per_layer["c"].packs == 3
        assert tracker._live_raw == 0 and tracker._live_stored == 0

    def test_interleaved_unpack_and_discard_release_every_key(self):
        """Waves of forward packs with partial backward consumption in
        between, then the rest drained in reverse order with every third
        handle discarded unread: the tracker balances and the arena is
        empty."""
        rng = np.random.default_rng(7)
        layers = [Conv2D(3, 2, 3, rng=i + 1, name=f"c{i}") for i in range(6)]
        tracker = MemoryTracker()
        with ByteArena(budget_bytes=4096) as arena:
            ctx = CompressingContext(
                get_codec("szlike", entropy="zlib"), tracker=tracker, storage=arena,
                adaptive=AdaptiveSpec(),
            )
            handles, tensors = {}, {}
            for wave in range(3):
                for i, layer in enumerate(layers):
                    tensors[wave, i] = rng.standard_normal((2, 3, 12, 12)).astype(np.float32)
                    handles[wave, i] = ctx.pack(layer, f"x{wave}", tensors[wave, i])
                for i in reversed(range(3, len(layers))):
                    y = ctx.unpack(layers[i], f"x{wave}", handles.pop((wave, i)))
                    assert np.abs(y - tensors[wave, i]).max() <= ctx.error_bounds[f"c{i}"] * (1 + 1e-6)
            assert arena.spill_count > 0
            for n, key in enumerate(sorted(handles, reverse=True)):
                layer, tag = layers[key[1]], f"x{key[0]}"
                if n % 3 == 0:
                    ctx.discard(layer, tag, handles[key])
                else:
                    ctx.unpack(layer, tag, handles[key])
            assert len(arena) == 0
            assert arena.in_memory_nbytes == 0 and arena.spilled_nbytes == 0
        assert sum(r.packs for r in tracker.per_layer.values()) == 18
        assert tracker._live_raw == 0 and tracker._live_stored == 0


class TestArenaTraining:
    def test_training_with_spill_stays_correct(self):
        """quickstart-scale training through a tight arena budget: spills
        happen, learning proceeds, live counters return to zero."""
        from repro.core import CompressedTraining
        from repro.nn import SyntheticImageDataset, Trainer, batches

        net = Sequential([
            Conv2D(3, 6, 3, padding=1, rng=1), ReLU(), MaxPool2D(2),
            Conv2D(6, 8, 3, padding=1, rng=2), ReLU(), MaxPool2D(2),
            Flatten(), Linear(8 * 4 * 4, 4, rng=3),
        ])
        opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
        tr = Trainer(net, opt)
        with ByteArena(budget_bytes=2048) as arena:  # tiny: force spills
            sess = CompressedTraining(
                net, opt,
                compressor=SZCompressor(entropy="zlib"),
                config=AdaptiveSpec(W=5, warmup_iterations=2),
                storage=arena,
            ).attach(tr)
            ds = SyntheticImageDataset(num_classes=4, image_size=16, channels=3, seed=3)
            tr.train(batches(ds, 8, 6, seed=0))
            assert arena.spill_count > 0
            assert len(arena) == 0  # every pack released by backward
            assert sess.tracker._live_raw == 0
            assert all(r > 1 for r in sess.ratio_history())

    def test_a_forward_whose_backward_never_ran_leaks_no_key(self, monkeypatch):
        """A training forward left without its backward (the loss raised, or
        backward raised part way): the next forward's saves discard the
        handles they replace, so the following step leaves the arena empty."""
        from repro.core import CompressedTraining
        from repro.nn import SyntheticImageDataset, Trainer, batches

        net = Sequential([
            Conv2D(3, 6, 3, padding=1, rng=1), ReLU(), MaxPool2D(2),
            Conv2D(6, 8, 3, padding=1, rng=2), ReLU(), MaxPool2D(2),
            Flatten(), Linear(8 * 4 * 4, 4, rng=3),
        ])
        opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
        tr = Trainer(net, opt)
        ds = SyntheticImageDataset(num_classes=4, image_size=16, channels=3, seed=3)
        steps = batches(ds, 8, 4, seed=0)
        with ByteArena(budget_bytes=2048) as arena:
            tracker = CompressedTraining(
                net, opt, compressor=SZCompressor(entropy="zlib"),
                config=AdaptiveSpec(W=5, warmup_iterations=2), storage=arena,
            ).attach(tr).tracker
            images, labels = next(steps)
            net.forward(images)
            one_forward = len(arena), tracker._live_raw, tracker._live_stored
            assert one_forward[0] > 0
            net.forward(images)  # replaces every handle: one forward's worth, not two
            assert (len(arena), tracker._live_raw, tracker._live_stored) == one_forward
            tr.train_step(*next(steps))
            assert len(arena) == 0
            assert tracker._live_raw == 0 and tracker._live_stored == 0

            def raising(dout):
                raise RuntimeError("backward failed")

            monkeypatch.setattr(net.layers[4], "backward", raising)
            with pytest.raises(RuntimeError, match="backward failed"):
                tr.train_step(*next(steps))
            assert len(arena) > 0  # the layers below the failure kept their handles
            monkeypatch.undo()
            tr.train_step(*next(steps))
            assert len(arena) == 0
            assert tracker._live_raw == 0 and tracker._live_stored == 0


class TestGroupStats:
    """Entries tagged with put(group=...) are accounted per group; the one
    arena-wide budget spills them like any other entry."""

    def test_group_rows_follow_the_global_fifo(self):
        with ByteArena(budget_bytes=100) as arena:
            k_cold = arena.put(b"c" * 60, group="cold")
            k_hot = arena.put(b"h" * 60, group="hot")  # 120 > 100: cold spills
            arena.put(b"u" * 30)  # untagged entries have no row
            stats = arena.group_stats()
            assert set(stats) == {"cold", "hot"}
            assert stats["cold"] == {"in_memory_nbytes": 0, "spilled_nbytes": 60, "spill_count": 1}
            assert stats["hot"] == {"in_memory_nbytes": 60, "spilled_nbytes": 0, "spill_count": 0}
            assert arena.get(k_cold) == b"c" * 60 and arena.get(k_hot) == b"h" * 60

    def test_discard_releases_group_accounting(self):
        with ByteArena(budget_bytes=64) as arena:
            keys = [arena.put(b"y" * 40, group="g") for _ in range(3)]
            assert arena.group_stats()["g"]["spill_count"] == 2
            for k in keys:
                arena.discard(k)
            stats = arena.group_stats()
            assert stats["g"]["in_memory_nbytes"] == 0
            assert stats["g"]["spilled_nbytes"] == 0
            assert stats["g"]["spill_count"] == 2  # cumulative

    def test_session_packs_spill_exactly_their_tracked_bytes(self):
        """Under a 0-byte budget every pack of a session spills, and the
        arena holds on disk exactly what the tracker charged per layer;
        the context tags no entry with a group."""
        from repro.api import CodecSpec, SessionConfig, StorageSpec, build_session

        net = Sequential([
            Conv2D(3, 2, 3, rng=1, name="c"), ReLU(), Conv2D(2, 2, 3, rng=2, name="d"),
        ])
        cfg = SessionConfig(
            codec=CodecSpec("szlike", {"entropy": "zlib"}),
            storage=StorageSpec(activations="arena", budget_bytes=0),
        )
        rng = np.random.default_rng(0)
        with build_session(net, cfg) as s:
            net.forward(rng.standard_normal((2, 3, 16, 16)).astype(np.float32))
            arena = s.compressed.ctx.storage
            stored = [s.tracker.per_layer[layer].stored_bytes for layer in ("c", "d")]
            assert arena.in_memory_nbytes == 0  # over the 0-byte budget
            assert arena.spilled_nbytes == sum(stored) and arena.spill_count == 2
            assert arena.group_stats() == {}
            net.clear_saved()
            assert arena.spilled_nbytes == 0
