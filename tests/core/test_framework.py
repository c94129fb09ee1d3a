"""The CompressedTraining session: wiring, accounting, adaptivity."""

import numpy as np
import pytest

from repro.core import (
    AdaptiveConfig,
    CompressedTraining,
    CompressingContext,
    GradientAssessor,
    MemoryTracker,
    PackedActivation,
    SyncEngine,
)
from repro.compression.szlike import SZCompressor
from repro.nn import (
    Conv2D,
    Flatten,
    Linear,
    MaxPool2D,
    Parameter,
    ReLU,
    SGD,
    Sequential,
    SyntheticImageDataset,
    Trainer,
    batches,
    iter_layers,
)


@pytest.fixture
def dataset():
    return SyntheticImageDataset(num_classes=4, image_size=16, channels=3, seed=3)


def small_conv_net(seed=1):
    return Sequential([
        Conv2D(3, 6, 3, padding=1, rng=seed), ReLU(), MaxPool2D(2),
        Conv2D(6, 8, 3, padding=1, rng=seed + 1), ReLU(), MaxPool2D(2),
        Flatten(), Linear(8 * 4 * 4, 4, rng=seed + 2),
    ])


def make_session(dataset, W=5, **cfg):
    net = small_conv_net()
    opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
    tr = Trainer(net, opt)
    sess = CompressedTraining(
        net, opt,
        compressor=SZCompressor(entropy="zlib"),
        config=AdaptiveConfig(W=W, warmup_iterations=2, **cfg),
    ).attach(tr)
    return net, opt, tr, sess


class TestCompressingContext:
    def test_pack_compresses_4d_only(self, rng):
        ctx = CompressingContext(SZCompressor(entropy="zlib"))
        conv = Conv2D(3, 2, 3, rng=1)
        x4 = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        x2 = rng.standard_normal((4, 10)).astype(np.float32)
        assert isinstance(ctx.pack(conv, "x", x4), PackedActivation)
        assert ctx.pack(conv, "x", x2) is x2  # non-4D passes through

    def test_unpack_respects_error_bound(self, rng):
        ctx = CompressingContext(SZCompressor(entropy="zlib"), initial_rel_eb=1e-4)
        conv = Conv2D(3, 2, 3, rng=1, name="c")
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        h = ctx.pack(conv, "x", x)
        y = ctx.unpack(conv, "x", h)
        assert np.abs(x - y).max() <= ctx.error_bounds["c"] * (1 + 1e-6)

    def test_controller_bound_used_once_set(self, rng):
        ctx = CompressingContext(SZCompressor(entropy="zlib"))
        conv = Conv2D(3, 2, 3, rng=1, name="c")
        ctx.error_bounds["c"] = 0.05
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        h = ctx.pack(conv, "x", x)
        assert h.compressed.error_bound == 0.05

    def test_observed_statistics_recorded(self, rng):
        ctx = CompressingContext(SZCompressor(entropy="zlib"))
        conv = Conv2D(3, 2, 3, rng=1, name="c")
        x = np.maximum(rng.standard_normal((1, 3, 8, 8)), 0).astype(np.float32)
        ctx.pack(conv, "x", x)
        assert 0 < ctx.observed_nonzero["c"] < 1
        assert ctx.observed_ratio["c"] > 1

    def test_disabled_context_passes_through(self, rng):
        ctx = CompressingContext(SZCompressor(entropy="zlib"))
        ctx.enabled = False
        conv = Conv2D(3, 2, 3, rng=1)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        assert ctx.pack(conv, "x", x) is x

    def test_codec_names_rejected(self):
        with pytest.raises(TypeError, match="codec instance"):
            CompressingContext(compressor="szlike")

    def test_codec_work_runs_inline(self, rng):
        """The pack is charged before ``pack`` returns, on the calling
        thread, and no thread is started."""
        import threading

        threads = threading.active_count()
        tracker = MemoryTracker()
        ctx = CompressingContext(SZCompressor(entropy="zlib"), tracker=tracker)
        assert isinstance(ctx.engine, SyncEngine)
        conv = Conv2D(3, 2, 3, rng=1, name="c")
        h = ctx.pack(conv, "x", rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        assert h.stored_nbytes > 0 and tracker.per_layer["c"].packs == 1
        ctx.unpack(conv, "x", h)
        assert threading.active_count() == threads


class TestMemoryTracker:
    def test_ratio_accounting(self):
        t = MemoryTracker()
        t.record_pack("a", 1000, 100)
        t.record_pack("b", 500, 100)
        assert t.end_iteration() == pytest.approx(1500 / 200)
        assert t.overall_ratio == pytest.approx(1500 / 200)

    def test_peak_tracks_live_bytes(self):
        t = MemoryTracker()
        t.record_pack("a", 1000, 100)
        t.record_pack("b", 1000, 100)
        t.record_release(1000, 100)
        t.record_pack("c", 1000, 100)
        assert t.peak_raw_bytes == 2000
        assert t.peak_stored_bytes == 200

    def test_iteration_ratios_history(self):
        t = MemoryTracker()
        for _ in range(3):
            t.record_pack("a", 100, 10)
            t.end_iteration()
        assert t.iteration_ratios == [10.0, 10.0, 10.0]

    def test_per_layer_summary(self):
        t = MemoryTracker()
        t.record_pack("conv1", 100, 20)
        t.record_pack("conv1", 100, 20)
        (rec,) = t.summary()
        assert rec.packs == 2
        assert rec.ratio == pytest.approx(5.0)


class TestGradientAssessor:
    def test_budget_is_fraction_of_momentum(self):
        p = Parameter(np.zeros((4,)))
        opt = SGD([p], lr=0.1, momentum=0.9)
        p.grad[:] = 2.0
        opt.step()
        a = GradientAssessor(opt, sigma_fraction=0.01)
        assert a.sigma_budget(p) == pytest.approx(0.02)
        assert a.sigma_budget() == pytest.approx(0.02)

    def test_fallback_uses_gradient(self):
        p = Parameter(np.zeros((4,)))
        opt = SGD([p], lr=0.1, momentum=0.9)
        p.grad[:] = 3.0
        a = GradientAssessor(opt, sigma_fraction=0.01)
        assert a.sigma_budget(p) == 0.0  # no momentum yet
        assert a.gradient_fallback_budget(p) == pytest.approx(0.03)

    def test_fraction_validated(self):
        p = Parameter(np.zeros((4,)))
        opt = SGD([p], lr=0.1)
        with pytest.raises(ValueError):
            GradientAssessor(opt, sigma_fraction=0.0)


class TestSession:
    def test_installs_on_conv_layers_only(self, dataset):
        net, opt, tr, sess = make_session(dataset)
        assert sess.compressed_layers == 2
        convs = [l for l in iter_layers(net) if isinstance(l, Conv2D)]
        assert all(c.saved_ctx is sess.ctx for c in convs)

    def test_rejects_convless_network(self):
        from repro.api import ConfigError, SessionConfig, build_session

        net = Sequential([Flatten(), Linear(12, 4, rng=1)])
        with pytest.raises(ConfigError, match="no compressible"):
            build_session(net, SessionConfig())

    def test_training_produces_ratio_history(self, dataset):
        net, opt, tr, sess = make_session(dataset)
        tr.train(batches(dataset, 8, 6, seed=0))
        assert len(sess.ratio_history()) == 6
        assert all(r > 1 for r in sess.ratio_history())
        assert "compression_ratio" in tr.history.records[0].extras

    def test_error_bounds_adapt(self, dataset):
        net, opt, tr, sess = make_session(dataset)
        tr.train(batches(dataset, 8, 8, seed=0))
        assert len(sess.error_bounds) == 2
        assert all(eb > 0 for eb in sess.error_bounds.values())
        assert sess.controller.updates >= 2

    def test_collection_interval_respected(self, dataset):
        net, opt, tr, sess = make_session(dataset, W=4)
        tr.train(batches(dataset, 8, 10, seed=0))
        # warmup (0,1) + iterations 4 and 8
        assert sess.controller.updates == pytest.approx(4, abs=1)

    def test_loss_statistics_collected_per_conv(self, dataset):
        net, opt, tr, sess = make_session(dataset)
        tr.train(batches(dataset, 8, 3, seed=0))
        assert len(sess.controller.loss_scales) == 2
        assert all(v > 0 for v in sess.controller.loss_scales.values())
        assert all(m > 0 for m in sess.controller.combined_elements.values())

    def test_compression_does_not_break_learning(self, dataset):
        net, opt, tr, sess = make_session(dataset)
        tr.train(batches(dataset, 16, 50, seed=0))
        assert tr.history.losses[-10:].mean() < tr.history.losses[:10].mean()

    def test_detach_restores_plain_storage(self, dataset, rng):
        net, opt, tr, sess = make_session(dataset)
        sess.detach()
        conv = next(l for l in iter_layers(net) if isinstance(l, Conv2D))
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        conv.forward(x)
        assert isinstance(conv._saved["x"], np.ndarray)

    def test_decompressed_activations_error_bounded(self, dataset, rng):
        """End-to-end: what backward sees differs from the true activation
        by at most the layer's current error bound."""
        net, opt, tr, sess = make_session(dataset)
        conv = next(l for l in iter_layers(net) if isinstance(l, Conv2D))
        seen = {}
        orig_unpack = sess.ctx.unpack

        def spy_unpack(layer, key, handle):
            out = orig_unpack(layer, key, handle)
            if layer is conv and isinstance(handle, PackedActivation):
                seen["eb"] = handle.compressed.error_bound
            return out

        sess.ctx.unpack = spy_unpack
        x, y = dataset.sample(8, rng=0)
        tr.train_step(x, y)
        assert seen["eb"] > 0
