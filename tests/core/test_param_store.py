"""Out-of-core parameter & optimizer state (ParamStore).

The contract under test: moving weights and SGD velocities into an
arena (with spill-to-disk pressure, with or without a lossless codec)
must be *invisible* to training — losses and final weights bit-identical
to resident training — while the tracker's persistent pool stays
byte-exact and every entry is released exactly once.
"""

import shutil

import numpy as np
import pytest

from repro.api import AdaptiveSpec
from repro.compression import SZCompressor, get_codec
from repro.core import MemoryTracker, ParamStore, StoreSlots
from repro.models import build_scaled_model
from repro.nn import (
    SGD,
    ResidentSlots,
    SyntheticImageDataset,
    Trainer,
    batches,
    iter_layers,
)


def small_net(rng=42):
    return build_scaled_model("alexnet", num_classes=8, image_size=16, rng=rng)


def halve_grads(trainer):
    for p in trainer.optimizer.params:
        p.grad *= 0.5


def train_run(opt_kwargs, param_store=None, iters=4, batch=4, before_detach=None,
              grad_transform=None):
    net = small_net()
    opt = SGD(net.parameters(), **opt_kwargs)
    if param_store is not None:
        param_store.attach(net, opt)
    trainer = Trainer(net, opt)
    if grad_transform is not None:
        trainer.grad_transforms.append(grad_transform)
    dataset = SyntheticImageDataset(num_classes=8, image_size=16, signal=0.4, seed=7)
    trainer.train(batches(dataset, batch, iters, seed=1))
    losses = trainer.history.losses.copy()
    if param_store is not None:
        if before_detach is not None:
            before_detach(param_store)
        param_store.detach()
    weights = np.concatenate([p.data.ravel() for p in net.parameters()])
    velocities = {p.name: opt.momentum_buffer(p).copy() for p in net.parameters()}
    return losses, weights, velocities


class TestEntryLifecycle:
    def test_roundtrip_bit_exact(self, rng):
        store = ParamStore(budget_bytes=None)
        arr = rng.standard_normal((17, 5)).astype(np.float32)
        store.adopt("w", arr)
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
            store.adopt(name, arr)
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
        store = ParamStore(budget_bytes=0, codec=get_codec("lossless"))
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


class TestWritebackFailure:
    """A write-back whose ``put`` fails must leave the old value stored:
    the error propagates, the entry stays fetchable and charged once."""

    def _adopted(self, rng, budget, spill_dir):
        store = ParamStore(budget_bytes=budget, spill_dir=str(spill_dir))
        old = rng.standard_normal((16, 8)).astype(np.float32)
        store.adopt("w", old)
        return store, old

    def _assert_unchanged(self, store, old, entries, charged):
        np.testing.assert_array_equal(store.fetch("w"), old)
        assert len(store.storage) == entries and len(store) == 1
        assert store.tracker.persistent_stored_bytes == charged
        store.close()

    def test_spill_dir_replaced_by_a_file(self, rng, tmp_path):
        """The spill directory turns into a plain file after ``w`` was
        spilled: the arena writes on through the descriptor it holds,
        so the write-back lands and ``w`` stays fetchable."""
        d = tmp_path / "spill"
        store, old = self._adopted(rng, 0, d)
        shutil.rmtree(d)
        d.write_bytes(b"")
        store.writeback("w", old * 2)
        np.testing.assert_array_equal(store.fetch("w"), old * 2)
        assert len(store.storage) == 1
        store.close()

    def test_unopenable_spill_file_keeps_old_value(self, rng, tmp_path):
        """``w`` is resident and the spill file cannot be created: the
        write-back's spill fails, and the old value survives it."""
        d = tmp_path / "spill"
        store, old = self._adopted(rng, 16 * 8 * 4, d)
        d.write_bytes(b"")
        charged = store.tracker.persistent_stored_bytes
        assert store.storage.spilled_nbytes == 0
        with pytest.raises(OSError):
            store.writeback("w", old * 2)
        self._assert_unchanged(store, old, 1, charged)

    def test_enospc_keeps_old_value(self, rng, tmp_path, monkeypatch):
        import errno

        import repro.core.arena as arena_mod

        store, old = self._adopted(rng, 0, tmp_path)
        charged = store.tracker.persistent_stored_bytes

        def enospc(fd, data, offset):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(arena_mod.os, "pwrite", enospc)
        with pytest.raises(OSError, match="No space"):
            store.writeback("w", old * 2)
        monkeypatch.undo()
        self._assert_unchanged(store, old, 1, charged)

    def test_failed_layer_writeback_keeps_every_parameter(self, tmp_path, monkeypatch):
        """A layer entry holds all of the layer's parameters: a write-back
        of the entry whose ``put`` fails leaves every one at its old
        value, the entry count and the charged bytes unchanged."""
        import errno

        import repro.core.arena as arena_mod

        net = small_net()
        store = ParamStore(budget_bytes=0, spill_dir=str(tmp_path))
        store.attach(net, SGD(net.parameters(), lr=0.01, momentum=0.9))
        layer = next(layer for layer in iter_layers(net) if len(layer.parameters()) > 1)
        params = layer.parameters()
        old = store.fetch(layer.name)
        assert old.size == sum(p.size for p in params)
        entries, charged = len(store.storage), store.tracker.persistent_stored_bytes

        def enospc(fd, data, offset):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(arena_mod.os, "pwrite", enospc)
        with pytest.raises(OSError, match="No space"):
            store.writeback(layer.name, old + 1)
        monkeypatch.undo()
        assert store.fetch(layer.name).tobytes() == old.tobytes()
        assert len(store.storage) == entries
        assert store.tracker.persistent_stored_bytes == charged
        store.close()


def n_layers(net):
    return sum(1 for layer in iter_layers(net) if layer.parameters())


class TestFoldedUpdateIO:
    """Two entries per layer: weights and velocity.  Under a Trainer with
    no gradient transforms each layer's update runs inside its backward:
    the layer's weights are fetched once per pass, its velocity entry
    once per step, and every entry is written back once."""

    def _step_io(self, transform=False):
        net = small_net()
        opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
        store = ParamStore(budget_bytes=0)
        store.attach(net, opt)
        trainer = Trainer(net, opt)
        if transform:
            trainer.grad_transforms.append(lambda tr: None)
        dataset = SyntheticImageDataset(num_classes=8, image_size=16, signal=0.4, seed=7)
        trainer.train(batches(dataset, 4, 1, seed=1))
        io = (store.fetch_count, store.writeback_count, n_layers(net))
        store.close()
        return io

    def test_one_step_costs_two_weight_fetches(self):
        fetches, writebacks, n = self._step_io()
        assert fetches == 3 * n
        assert writebacks == 2 * n

    def test_grad_transform_keeps_the_separate_pass(self):
        """``SGD.step`` opens one window per layer: the weights and the
        velocity entry are fetched and written back once each."""
        fetches, writebacks, n = self._step_io(True)
        assert fetches == 4 * n
        assert writebacks == 2 * n

    def test_pending_parameters_are_updated_once(self):
        """A layer's folded update leaves nothing pending: the step that
        follows the backward touches the store not once."""
        net = small_net()
        opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
        store = ParamStore(budget_bytes=0)
        store.attach(net, opt)
        trainer = Trainer(net, opt)
        dataset = SyntheticImageDataset(num_classes=8, image_size=16, signal=0.4, seed=7)
        (x, y), = batches(dataset, 4, 1, seed=1)
        opt.update_in_backward = True
        net.backward(trainer.loss.forward(net.forward(x), y)[1])
        opt.update_in_backward = False
        io = (store.fetch_count, store.writeback_count)
        opt.step()
        assert (store.fetch_count, store.writeback_count) == io
        store.close()


class TestTrainingEquivalence:
    def test_sgd_losses_and_weights_bit_identical(self):
        kw = dict(lr=0.01, momentum=0.9, weight_decay=5e-4)
        base = train_run(kw)
        oov = train_run(kw, ParamStore(budget_bytes=0))
        np.testing.assert_array_equal(base[0], oov[0])  # losses
        np.testing.assert_array_equal(base[1], oov[1])  # weights
        for name in base[2]:  # velocities, 0 ulp
            np.testing.assert_array_equal(base[2][name], oov[2][name])

    @pytest.mark.parametrize("grad_transform", [None, halve_grads], ids=["folded", "transform"])
    def test_weight_decay_bit_identical(self, grad_transform):
        """The update inside backward (no transform) and the separate
        pass (a transform) both match resident training bit for bit."""
        kw = dict(lr=0.01, momentum=0.9, weight_decay=5e-4)
        base = train_run(kw, grad_transform=grad_transform)
        oov = train_run(kw, ParamStore(budget_bytes=0), grad_transform=grad_transform)
        assert np.array_equal(base[0].view(np.uint64), oov[0].view(np.uint64))
        assert np.array_equal(base[1].view(np.uint32), oov[1].view(np.uint32))
        for name, value in base[2].items():
            assert np.array_equal(value.view(np.uint32), oov[2][name].view(np.uint32))

    def test_update_in_backward_is_off_after_each_step(self):
        net = small_net()
        opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
        store = ParamStore(budget_bytes=0)
        store.attach(net, opt)
        trainer = Trainer(net, opt)
        dataset = SyntheticImageDataset(num_classes=8, image_size=16, signal=0.4, seed=7)
        for x, y in batches(dataset, 4, 3, seed=1):
            trainer.train_step(x, y)
            assert not opt.update_in_backward
        store.close()

    def test_lossless_codec_training_bit_identical(self):
        """Bit patterns, not values: ``assert_array_equal`` would let a
        ``-0.0`` come back as ``+0.0``."""
        sizes = {}

        def measure(store):
            sizes.update(stored=store.stored_nbytes, raw=store.raw_nbytes)

        kw = dict(lr=0.01, momentum=0.9)
        base = train_run(kw)
        oov = train_run(kw, ParamStore(budget_bytes=0, codec=get_codec("lossless")),
                        before_detach=measure)
        assert np.array_equal(base[0].view(np.uint64), oov[0].view(np.uint64))  # losses
        assert np.array_equal(base[1].view(np.uint32), oov[1].view(np.uint32))
        for name, value in base[2].items():
            assert np.array_equal(value.view(np.uint32), oov[2][name].view(np.uint32))
        assert 0 < sizes["stored"] < sizes["raw"]

    def test_spill_and_reload_mid_epoch(self):
        """A tight budget forces spill + reload within a single epoch."""
        store = ParamStore(budget_bytes=8 << 10)
        losses, _, _ = train_run(dict(lr=0.01, momentum=0.9), store, iters=3)
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
        train_run(dict(lr=0.01, momentum=0.9), store, iters=2)
        largest = max(p.size * 4 for p in small_net().parameters())
        assert store.storage.peak_in_memory_nbytes <= budget + largest

    def test_materialized_watermark_below_total(self):
        """JIT binding keeps at most ~one layer resident: the peak
        materialized bytes must be far below the full parameter set."""
        store = ParamStore(budget_bytes=0)
        train_run(dict(lr=0.01, momentum=0.9), store, iters=2)
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
        first = next(iter(store._layers.values()))
        layer_bytes = sum(p.data.nbytes for p in first.params)
        store._bind(first)
        store._bind(first)
        assert store.materialized_nbytes == layer_bytes
        store._unbind(first)
        assert store.materialized_nbytes == layer_bytes
        assert np.isfinite(first.params[0].data).all()
        store._unbind(first)
        assert store.materialized_nbytes == 0
        assert store.peak_materialized_nbytes == layer_bytes
        store.close()

    def test_peak_is_one_layer_not_the_model(self):
        """Layers bind one at a time: the peak is the largest single
        layer's weights, never the sum over layers."""
        store = ParamStore(budget_bytes=0)
        train_run(dict(lr=0.01, momentum=0.9), store, iters=2)
        net = small_net()
        per_layer = [
            sum(p.data.nbytes for p in layer.parameters())
            for layer in iter_layers(net) if layer.parameters()
        ]
        assert store.peak_materialized_nbytes == max(per_layer)
        assert store.peak_materialized_nbytes < sum(per_layer)


class TestSessionIntegration:
    @staticmethod
    def _session_run(params):
        from repro.api import CodecSpec, SessionConfig, StorageSpec, build_session

        cfg = SessionConfig(
            codec=CodecSpec("szlike", {"entropy": "zlib"}),
            adaptive=AdaptiveSpec(W=5, warmup_iterations=2),
            storage=StorageSpec(
                activations="arena", budget_bytes=32 << 10,
                params=params, param_budget_bytes=0,
            ),
        )
        with build_session(small_net(), cfg) as session:
            dataset = SyntheticImageDataset(num_classes=8, image_size=16, signal=0.4, seed=7)
            session.train(batches(dataset, 4, 4, seed=1))
            if session.param_store is not None:
                assert session.param_store.tracker is session.tracker
                assert session.tracker.persistent_stored_bytes > 0
        return session.history.losses.copy(), session

    def test_session_param_store_bit_identical(self):
        l_none, _ = self._session_run("resident")
        l_store, session = self._session_run("arena")
        np.testing.assert_array_equal(l_none, l_store)
        # the store charged the session's tracker, and close() released it
        assert session.tracker.persistent_stored_bytes == 0

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

    def test_error_bounds_match_resident_session(self):
        """Eq. 8 reads momentum before the layer's update: with the update
        inside backward, a ParamStore-backed session still derives the
        same bounds as a resident one (step 10 collects from momentum)."""
        from repro.api import AdaptiveSpec, SessionConfig, StorageSpec, build_session

        def bounds(params):
            cfg = SessionConfig(
                adaptive=AdaptiveSpec(W=10, warmup_iterations=2),
                storage=StorageSpec(params=params, param_budget_bytes=0),
            )
            with build_session(small_net(), cfg) as session:
                dataset = SyntheticImageDataset(num_classes=8, image_size=16, signal=0.4, seed=7)
                session.train(batches(dataset, 4, 12, seed=1))
                assert session.compressed.controller.updates == 3
                return session.compressed.error_bounds

        resident = bounds("resident")
        assert resident and resident == bounds("arena")

    def test_double_attach_rejected(self):
        net = small_net()
        store = ParamStore(budget_bytes=None)
        store.attach(net)
        with pytest.raises(RuntimeError, match="already attached"):
            store.attach(net)
        store.close()


class TestLayerEntries:
    """The store's entries are per layer, weights and velocity; a
    velocity entry covers the layer's parameters the optimizer owns."""

    def test_one_weight_and_one_velocity_entry_per_layer(self):
        net = small_net()
        store = ParamStore(budget_bytes=None)
        store.attach(net, SGD(net.parameters(), lr=0.01, momentum=0.9))
        layers = [l for l in iter_layers(net) if l.parameters()]
        names = {l.name for l in layers} | {f"{l.name}#velocity" for l in layers}
        assert set(store._entries) == names
        for layer in layers:
            assert store._entries[layer.name].raw_nbytes == 4 * sum(p.size for p in layer.parameters())
        store.close()

    @pytest.mark.parametrize("grad_transform", [None, halve_grads], ids=["folded", "transform"])
    def test_optimizer_over_part_of_a_layer(self, grad_transform):
        """An optimizer owning only the weight tensors: the slot entries
        hold only those, the biases never move, and training matches
        resident training bit for bit on both update paths."""

        def run(store):
            net = small_net()
            owned = [p for p in net.parameters() if p.data.ndim > 1]
            opt = SGD(owned, lr=0.01, momentum=0.9)
            if store is not None:
                store.attach(net, opt)
            trainer = Trainer(net, opt)
            if grad_transform is not None:
                trainer.grad_transforms.append(grad_transform)
            dataset = SyntheticImageDataset(num_classes=8, image_size=16, signal=0.4, seed=7)
            trainer.train(batches(dataset, 4, 3, seed=1))
            if store is not None:
                slot_bytes = sum(e.raw_nbytes for n, e in store._entries.items() if "#" in n)
                assert slot_bytes == 4 * sum(p.size for p in owned)
                store.detach()
            return trainer.history.losses, [p.data.copy() for p in net.parameters()]

        base, oov = run(None), run(ParamStore(budget_bytes=0))
        assert base[0].tobytes() == oov[0].tobytes()
        for a, b in zip(base[1], oov[1]):
            assert a.tobytes() == b.tobytes()
        initial = [p.data for p in small_net().parameters() if p.data.ndim == 1]
        final = [w for w in oov[1] if w.ndim == 1]
        assert initial and len(final) == len(initial)
        for a, b in zip(final, initial):
            assert a.tobytes() == b.tobytes()

    def test_attach_optimizer_and_detach_migrate_slots(self):
        """Momentum built up resident moves into the layer slot entries on
        ``attach_optimizer`` and back out on ``detach``, value for value,
        and training across both moves matches resident training."""
        kw = dict(lr=0.01, momentum=0.9)
        dataset = SyntheticImageDataset(num_classes=8, image_size=16, signal=0.4, seed=7)
        data = list(batches(dataset, 4, 6, seed=1))

        ref_net = small_net()
        ref_opt = SGD(ref_net.parameters(), **kw)
        Trainer(ref_net, ref_opt).train(data)

        net = small_net()
        opt = SGD(net.parameters(), **kw)
        trainer = Trainer(net, opt)
        trainer.train(data[:2])
        before = [opt.momentum_buffer(p).copy() for p in net.parameters()]
        store = ParamStore(budget_bytes=0)
        store.attach(net)
        store.attach_optimizer(opt)
        assert isinstance(opt.state, StoreSlots)
        for p, v in zip(net.parameters(), before):
            assert opt.momentum_buffer(p).tobytes() == v.tobytes()
        trainer.train(data[2:4])
        moved = [opt.momentum_buffer(p).copy() for p in net.parameters()]
        store.detach()
        assert isinstance(opt.state, ResidentSlots) and len(store) == 0
        for p, v in zip(net.parameters(), moved):
            assert opt.momentum_buffer(p).tobytes() == v.tobytes()
        trainer.train(data[4:])
        for p, q in zip(net.parameters(), ref_net.parameters()):
            assert p.data.tobytes() == q.data.tobytes()
            assert opt.momentum_buffer(p).tobytes() == ref_opt.momentum_buffer(q).tobytes()
        store.close()
