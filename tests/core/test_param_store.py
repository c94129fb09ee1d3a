"""Out-of-core parameter & optimizer state (ParamStore).

The contract under test: moving weights and optimizer slots into an
arena (with spill-to-disk pressure, with or without a lossless codec)
must be *invisible* to training — losses and final weights bit-identical
to resident training — while the tracker's persistent pool stays
byte-exact and every entry is released exactly once.
"""

import numpy as np
import pytest

from repro.compression import SZCompressor
from repro.core import (
    AdaptiveConfig,
    ByteArena,
    CompressedTraining,
    MemoryTracker,
    ParamStore,
    StoreSlots,
)
from repro.models import build_scaled_model
from repro.nn import (
    SGD,
    Adam,
    ResidentSlots,
    SyntheticImageDataset,
    Trainer,
    batches,
    iter_layers,
)


def small_net(rng=42):
    return build_scaled_model("alexnet", num_classes=8, image_size=16, rng=rng)


def train_run(opt_cls, opt_kwargs, param_store=None, iters=4, batch=4, before_detach=None):
    net = small_net()
    opt = opt_cls(net.parameters(), **opt_kwargs)
    if param_store is not None:
        param_store.attach(net, opt)
    trainer = Trainer(net, opt)
    dataset = SyntheticImageDataset(num_classes=8, image_size=16, signal=0.4, seed=7)
    trainer.train(batches(dataset, batch, iters, seed=1))
    losses = trainer.history.losses.copy()
    if param_store is not None:
        if before_detach is not None:
            before_detach(param_store)
        param_store.detach()
    weights = np.concatenate([p.data.ravel() for p in net.parameters()])
    slots = {
        p.name: {s: opt.read_slot(p, s).copy() for s in opt.slot_names}
        for p in net.parameters()
    }
    return losses, weights, slots


class TestEntryLifecycle:
    def test_roundtrip_bit_exact(self, rng):
        store = ParamStore(budget_bytes=None)
        arr = rng.standard_normal((17, 5)).astype(np.float32)
        store.adopt("w", arr, layer_name="l1")
        np.testing.assert_array_equal(store.fetch("w"), arr)
        store.close()

    def test_roundtrip_bit_exact_under_budget_pressure(self, rng):
        """budget 0 spills every entry to disk immediately; reads must
        still be bit-exact, including after a mid-epoch write-back."""
        store = ParamStore(budget_bytes=0)
        arrays = {
            f"p{i}": rng.standard_normal((64, 33)).astype(np.float32) for i in range(8)
        }
        for name, arr in arrays.items():
            store.adopt(name, arr, layer_name=name)
        assert store.storage.spill_count >= len(arrays)
        for name, arr in arrays.items():
            np.testing.assert_array_equal(store.fetch(name), arr)
        # write-back new values (the mid-epoch update path), reload
        updated = {n: a * 1.5 + 1.0 for n, a in arrays.items()}
        for name, arr in updated.items():
            store.writeback(name, arr)
        for name, arr in updated.items():
            np.testing.assert_array_equal(store.fetch(name), arr)
        store.close()

    def test_lossless_codec_roundtrip(self, rng):
        store = ParamStore(budget_bytes=0, codec="lossless")
        arr = rng.standard_normal((32, 32)).astype(np.float32)
        store.adopt("w", arr)
        np.testing.assert_array_equal(store.fetch("w"), arr)
        store.close()

    def test_lossy_codec_rejected(self):
        with pytest.raises(ValueError, match="lossless"):
            ParamStore(codec=SZCompressor(error_bound=1e-3))

    def test_release_exactly_once(self, rng):
        store = ParamStore(budget_bytes=None)
        arr = rng.standard_normal((4, 4)).astype(np.float32)
        store.adopt("w", arr)
        out = store.release("w")
        np.testing.assert_array_equal(out, arr)
        with pytest.raises(KeyError):
            store.release("w")
        store.close()

    def test_duplicate_adopt_rejected(self, rng):
        store = ParamStore(budget_bytes=None)
        store.adopt("w", np.zeros(3, dtype=np.float32))
        with pytest.raises(ValueError, match="already stored"):
            store.adopt("w", np.zeros(3, dtype=np.float32))
        store.close()


class TestDirtyTracking:
    """Per-entry digests skip write-backs of unchanged bytes — pure I/O
    elision, invisible to training results."""

    def test_unchanged_writeback_skipped(self, rng):
        store = ParamStore(budget_bytes=None)
        arr = rng.standard_normal((32, 8)).astype(np.float32)
        store.adopt("w", arr)
        store.writeback("w", arr.copy())  # identical bytes
        assert store.writeback_count == 0
        assert store.writeback_skipped == 1
        changed = arr * 1.5
        store.writeback("w", changed)
        assert store.writeback_count == 1
        np.testing.assert_array_equal(store.fetch("w"), changed)
        store.writeback("w", changed.copy())  # unchanged again
        assert store.writeback_count == 1
        assert store.writeback_skipped == 2
        store.close()

    def test_zero_grad_step_skips_all_slot_writebacks(self):
        """With zero gradients, SGD leaves velocity (0) and weights
        unchanged: the whole optimizer step must write nothing back."""
        net = small_net()
        opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
        store = ParamStore(budget_bytes=0)
        store.attach(net, opt)
        opt.zero_grad()
        before_writes = store.writeback_count
        opt.step()
        assert store.writeback_count == before_writes  # nothing dirty
        # one weight + one velocity skip per parameter
        assert store.writeback_skipped == 2 * len(net.parameters())
        store.close()

    def test_real_training_writes_back_dirty_entries(self):
        """A real step mutates weights and velocity, so write-backs do
        happen; the skip path must not eat genuine updates (covered
        bit-exactly by TestTrainingEquivalence too)."""
        store = ParamStore(budget_bytes=0)
        losses, _, _ = train_run(SGD, dict(lr=0.01, momentum=0.9), store, iters=2)
        assert np.isfinite(losses).all()
        assert store.writeback_count > 0

    def test_dirty_tracking_can_be_disabled(self, rng):
        store = ParamStore(budget_bytes=None, dirty_tracking=False)
        arr = rng.standard_normal((8, 8)).astype(np.float32)
        store.adopt("w", arr)
        store.writeback("w", arr.copy())
        assert store.writeback_count == 1
        assert store.writeback_skipped == 0
        store.close()


class TestTrainingEquivalence:
    def test_sgd_losses_and_weights_bit_identical(self):
        kw = dict(lr=0.01, momentum=0.9, weight_decay=5e-4)
        base = train_run(SGD, kw)
        oov = train_run(SGD, kw, ParamStore(budget_bytes=0))
        np.testing.assert_array_equal(base[0], oov[0])  # losses
        np.testing.assert_array_equal(base[1], oov[1])  # weights
        for name in base[2]:  # momentum slots, 0 ulp
            np.testing.assert_array_equal(base[2][name]["velocity"], oov[2][name]["velocity"])

    def test_adam_losses_and_slots_bit_identical(self):
        kw = dict(lr=1e-3)
        base = train_run(Adam, kw)
        oov = train_run(Adam, kw, ParamStore(budget_bytes=0))
        np.testing.assert_array_equal(base[0], oov[0])
        np.testing.assert_array_equal(base[1], oov[1])
        for name in base[2]:
            for slot in ("exp_avg", "exp_avg_sq"):
                np.testing.assert_array_equal(base[2][name][slot], oov[2][name][slot])

    @pytest.mark.parametrize("opt_cls, kw", [(SGD, dict(lr=0.01, momentum=0.9)), (Adam, dict(lr=1e-3))])
    def test_lossless_codec_training_bit_identical(self, opt_cls, kw):
        """Bit patterns, not values: ``assert_array_equal`` would let a
        ``-0.0`` come back as ``+0.0``."""
        sizes = {}

        def measure(store):
            sizes.update(stored=store.stored_nbytes, raw=store.raw_nbytes)

        base = train_run(opt_cls, kw)
        oov = train_run(opt_cls, kw, ParamStore(budget_bytes=0, codec="lossless"),
                        before_detach=measure)
        assert np.array_equal(base[0].view(np.uint64), oov[0].view(np.uint64))  # losses
        assert np.array_equal(base[1].view(np.uint32), oov[1].view(np.uint32))
        for name, slots in base[2].items():
            for slot, value in slots.items():
                assert np.array_equal(value.view(np.uint32), oov[2][name][slot].view(np.uint32))
        assert 0 < sizes["stored"] < sizes["raw"]

    def test_spill_and_reload_mid_epoch(self):
        """A tight budget forces spill + reload within a single epoch."""
        store = ParamStore(budget_bytes=8 << 10)
        losses, _, _ = train_run(SGD, dict(lr=0.01, momentum=0.9), store, iters=3)
        assert np.isfinite(losses).all()
        # every fetch after a spill is a reload from disk
        assert store.storage.spill_count > 0

    def test_stub_is_loud_outside_window(self):
        """Outside the JIT window, Parameter.data is a read-only NaN stub:
        accidental reads poison results, writes raise."""
        net = small_net()
        opt = SGD(net.parameters(), lr=0.01)
        store = ParamStore(budget_bytes=None)
        store.attach(net, opt)
        p = net.parameters()[0]
        assert p.data.shape == p.shape
        assert np.isnan(p.data).all()
        with pytest.raises(ValueError):
            p.data[...] = 1.0
        store.detach()
        assert np.isfinite(p.data).all()


class TestAccounting:
    def test_tracker_persistent_byte_exact(self):
        tracker = MemoryTracker()
        store = ParamStore(budget_bytes=0, tracker=tracker)
        net = small_net()
        opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
        store.attach(net, opt)
        # raw tobytes encoding: stored == raw == physical arena bytes
        assert tracker.persistent_stored_bytes == store.stored_nbytes
        assert tracker.persistent_raw_bytes == store.raw_nbytes
        assert store.stored_nbytes == store.storage.total_nbytes
        # one data entry + one velocity slot per parameter, 4 bytes/elem
        assert store.raw_nbytes == 2 * sum(p.size * 4 for p in net.parameters())
        # a step rewrites every entry; books must still balance
        trainer = Trainer(net, opt)
        dataset = SyntheticImageDataset(num_classes=8, image_size=16, signal=0.4, seed=7)
        trainer.train(batches(dataset, 4, 2, seed=1))
        assert tracker.persistent_stored_bytes == store.stored_nbytes
        assert store.stored_nbytes == store.storage.total_nbytes
        # detach releases every entry exactly once: books drop to zero
        store.detach()
        assert tracker.persistent_stored_bytes == 0
        assert tracker.persistent_raw_bytes == 0
        assert len(store) == 0

    def test_peak_includes_persistent_pool(self):
        tracker = MemoryTracker()
        store = ParamStore(budget_bytes=None, tracker=tracker)
        store.adopt("w", np.zeros((1000,), dtype=np.float32))
        assert tracker.peak_stored_bytes >= 4000
        store.close()

    def test_arena_budget_respected(self):
        """Without async staging, arena-resident bytes can exceed the
        budget only transiently, by at most one entry (put charges the
        new entry before the FIFO spill relieves it)."""
        budget = 8 << 10
        store = ParamStore(budget_bytes=budget)
        train_run(SGD, dict(lr=0.01, momentum=0.9), store, iters=2)
        largest = max(p.size * 4 for p in small_net().parameters())
        assert store.storage.peak_in_memory_nbytes <= budget + largest

    def test_materialized_watermark_below_total(self):
        """JIT binding keeps at most ~one layer resident: the peak
        materialized bytes must be far below the full parameter set."""
        store = ParamStore(budget_bytes=0)
        train_run(SGD, dict(lr=0.01, momentum=0.9), store, iters=2)
        # detach() already ran, so compare against the footprint of an
        # identical model: data + velocity, 4 bytes per element.
        total = 2 * sum(p.size * 4 for p in small_net().parameters())
        assert 0 < store.peak_materialized_nbytes < total
        assert store.materialized_nbytes == 0  # all unbound at rest

    def test_bound_layer_counted_in_materialized_bytes(self):
        """A bound layer's weights are charged once however deeply the
        binding nests, and only until the last unbind."""
        net = small_net()
        store = ParamStore(budget_bytes=0)
        store.attach(net, SGD(net.parameters(), lr=0.01, momentum=0.9))
        first = next(iter(store._layers))
        layer_bytes = sum(p.data.nbytes for p in store._layers[first])
        store._bind(first)
        store._bind(first)
        assert store.materialized_nbytes == layer_bytes
        store._unbind(first)
        assert store.materialized_nbytes == layer_bytes
        assert np.isfinite(store._layers[first][0].data).all()
        store._unbind(first)
        assert store.materialized_nbytes == 0
        assert store.peak_materialized_nbytes == layer_bytes
        store.close()

    def test_peak_is_one_layer_not_the_model(self):
        """Layers bind one at a time: the peak is the largest single
        layer's weights, never the sum over layers."""
        store = ParamStore(budget_bytes=0)
        train_run(SGD, dict(lr=0.01, momentum=0.9), store, iters=2)
        net = small_net()
        per_layer = [
            sum(p.data.nbytes for p in layer.parameters())
            for layer in iter_layers(net) if layer.parameters()
        ]
        assert store.peak_materialized_nbytes == max(per_layer)
        assert store.peak_materialized_nbytes < sum(per_layer)


class TestSessionIntegration:
    def _session_run(self, param_storage):
        net = small_net()
        opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
        trainer = Trainer(net, opt)
        arena = ByteArena(budget_bytes=32 << 10)
        session = CompressedTraining(
            net,
            opt,
            compressor=SZCompressor(entropy="zlib", zero_filter=True),
            config=AdaptiveConfig(W=5, warmup_iterations=2),
            storage=arena,
            param_storage=param_storage,
        ).attach(trainer)
        dataset = SyntheticImageDataset(num_classes=8, image_size=16, signal=0.4, seed=7)
        trainer.train(batches(dataset, 4, 4, seed=1))
        losses = trainer.history.losses.copy()
        stats = (session, trainer)
        trainer.close()
        arena.close()
        return losses, stats

    def test_param_storage_knob_bit_identical(self):
        l_none, _ = self._session_run(None)
        l_store, (sess, _) = self._session_run(ParamStore(budget_bytes=0))
        np.testing.assert_array_equal(l_none, l_store)
        # the session folded the store's books into its own tracker and
        # close() released them
        assert sess.tracker.persistent_stored_bytes == 0

    def test_caller_arena_backs_param_store(self):
        arena = ByteArena(budget_bytes=0)
        losses, _ = self._session_run(ParamStore(storage=arena))
        assert np.isfinite(losses).all()
        assert arena.spill_count > 0
        arena.close()

    def test_plain_session_param_store(self):
        from repro.api import SessionConfig, StorageSpec, build_session

        net = small_net()
        cfg = SessionConfig(
            compress_activations=False,
            storage=StorageSpec(params="arena", param_budget_bytes=0),
        )
        with build_session(net, cfg) as session:
            dataset = SyntheticImageDataset(num_classes=8, image_size=16, signal=0.4, seed=7)
            session.train(batches(dataset, 4, 2, seed=1))
            assert isinstance(session.optimizer.state, StoreSlots)
            assert session.param_store.fetch_count > 0
        # close restored residency
        assert isinstance(session.optimizer.state, ResidentSlots)
        assert np.isfinite(net.parameters()[0].data).all()

    def test_write_slot_casts_to_entry_dtype(self):
        """A float64 write to a float32 store-backed slot must cast (the
        resident in-place assignment semantics), not corrupt the entry."""
        net = small_net()
        opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
        store = ParamStore(budget_bytes=0)
        store.attach(net, opt)
        p = net.parameters()[0]
        opt.write_slot(p, "velocity", np.full(p.shape, 2.5))  # float64
        v = opt.read_slot(p, "velocity")
        assert v.dtype == np.float32
        np.testing.assert_array_equal(v, np.float32(2.5))
        with pytest.raises(ValueError):  # wrong size fails at write time
            opt.write_slot(p, "velocity", np.zeros(3))
        store.close()

    def test_snapshot_roundtrip_store_backed(self, tmp_path):
        """Snapshots must read/write through the store while attached —
        never the NaN stubs — and raise loudly without a store-aware
        optimizer."""
        from repro.nn import load_snapshot, save_snapshot

        net = small_net()
        opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
        store = ParamStore(budget_bytes=0)
        store.attach(net, opt)
        path = str(tmp_path / "snap.npz")
        save_snapshot(path, net, opt)
        with np.load(path) as data:
            for p in net.parameters():
                assert np.isfinite(data[f"param/{p.name}"]).all()
        load_snapshot(path, net, opt)
        with pytest.raises(RuntimeError, match="store-backed"):
            save_snapshot(path, net)  # no optimizer: store unreachable
        store.close()

    def test_double_attach_rejected(self):
        net = small_net()
        store = ParamStore(budget_bytes=None)
        store.attach(net)
        with pytest.raises(RuntimeError, match="already attached"):
            store.attach(net)
        store.close()
