"""The CompressedTraining session: wiring, accounting, adaptivity."""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.api import AdaptiveSpec
from repro.core import (
    AdaptiveController,
    CompressedTraining,
    CompressingContext,
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


def packing_convs(net):
    """The convs a training step packs: all but the one fed the data batch."""
    return [l for l in iter_layers(net) if isinstance(l, Conv2D)][1:]


def make_session(dataset, W=5, **cfg):
    net = small_conv_net()
    opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
    tr = Trainer(net, opt)
    sess = CompressedTraining(
        net, opt,
        compressor=SZCompressor(entropy="zlib"),
        config=AdaptiveSpec(W=W, warmup_iterations=2, **cfg),
    ).attach(tr)
    return net, opt, tr, sess


class TestCompressingContext:
    def test_pack_compresses_4d_only(self, rng):
        ctx = CompressingContext(SZCompressor(entropy="zlib"), adaptive=AdaptiveSpec())
        conv = Conv2D(3, 2, 3, rng=1)
        x4 = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        x2 = rng.standard_normal((4, 10)).astype(np.float32)
        assert isinstance(ctx.pack(conv, "x", x4), PackedActivation)
        assert ctx.pack(conv, "x", x2) is x2  # non-4D passes through

    def test_unpack_respects_error_bound(self, rng):
        comp = SZCompressor(entropy="zlib")
        ctx = CompressingContext(comp, adaptive=AdaptiveSpec(initial_rel_eb=1e-4))
        conv = Conv2D(3, 2, 3, rng=1, name="c")
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        h = ctx.pack(conv, "x", x)
        y = ctx.unpack(conv, "x", h)
        assert np.abs(x - y).max() <= ctx.error_bounds["c"] * (1 + 1e-6)

    def test_controller_bound_used_once_set(self, rng):
        ctx = CompressingContext(SZCompressor(entropy="zlib"), adaptive=AdaptiveSpec())
        conv = Conv2D(3, 2, 3, rng=1, name="c")
        ctx.error_bounds["c"] = 0.05
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        h = ctx.pack(conv, "x", x)
        assert h.compressed.error_bound == 0.05

    def test_observed_statistics_recorded(self, rng):
        ctx = CompressingContext(SZCompressor(entropy="zlib"), adaptive=AdaptiveSpec())
        conv = Conv2D(3, 2, 3, rng=1, name="c")
        x = np.maximum(rng.standard_normal((1, 3, 8, 8)), 0).astype(np.float32)
        ctx.pack(conv, "x", x)
        assert 0 < ctx.observed_nonzero["c"] < 1
        assert ctx.observed_ratio["c"] > 1

    def test_codec_names_rejected(self):
        with pytest.raises(TypeError, match="codec instance"):
            CompressingContext(compressor="szlike", adaptive=AdaptiveSpec())

    def test_codec_work_runs_inline(self, rng):
        """The pack is charged before ``pack`` returns, on the calling
        thread, and no thread is started."""
        import threading

        threads = threading.active_count()
        tracker = MemoryTracker()
        ctx = CompressingContext(
            SZCompressor(entropy="zlib"), tracker=tracker, adaptive=AdaptiveSpec()
        )
        assert isinstance(ctx.engine, SyncEngine)
        conv = Conv2D(3, 2, 3, rng=1, name="c")
        h = ctx.pack(conv, "x", rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        assert h.stored_nbytes > 0 and tracker.per_layer["c"].packs == 1
        ctx.unpack(conv, "x", h)
        assert threading.active_count() == threads


#: case -> (registry key, options, the bound a blob records or None)
FIXED_CODECS = {
    "szlike-abs": ("szlike", {"error_bound": 0.02, "entropy": "zlib"}, 0.02),
    "szlike-rel": ("szlike", {"error_bound": 0.01, "mode": "rel"}, "rel"),
    "lossless": ("lossless", {}, None),
    "sparse-lossless": ("sparse-lossless", {}, None),
    "jpeg": ("jpeg", {"quality": 70}, None),
}


class TestBoundRegime:
    """The context's two regimes: the controller's bound (first pack:
    ``initial_rel_eb`` of the value range), or the codec's own."""

    @pytest.mark.parametrize("case", FIXED_CODECS)
    def test_disabled_controller_packs_under_the_codec_bound(self, case, rng):
        from repro.compression import get_codec

        key, options, recorded = FIXED_CODECS[case]
        codec = get_codec(key, **options)
        calls = []
        compress = codec.compress

        def spying(x, error_bound=None, *, cache_key=None):
            calls.append((error_bound, cache_key))
            return compress(x, error_bound, cache_key=cache_key)

        codec.compress = spying
        ctx = CompressingContext(codec, adaptive=AdaptiveSpec(enabled=False))
        conv = Conv2D(3, 2, 3, rng=1, name="c")
        x = np.maximum(rng.standard_normal((2, 3, 8, 8)), 0).astype(np.float32) * 4
        assert ctx.resolve_error_bound(conv, x) is None
        h = ctx.pack(conv, "x", x)
        assert calls == [(None, "c")]
        if recorded is None:
            assert ctx.error_bounds == {}
        else:
            eb = 0.01 * float(x.max() - x.min()) if recorded == "rel" else recorded
            assert ctx.error_bounds == {"c": h.compressed.error_bound}
            assert h.compressed.error_bound == pytest.approx(eb, rel=1e-12)
            assert np.abs(ctx.unpack(conv, "x", h) - x).max() <= eb * (1 + 1e-6)

    @pytest.mark.parametrize("rel", [1e-3, 1e-2])
    @pytest.mark.parametrize("constant", [False, True], ids=["ranged", "constant"])
    def test_first_pack_warms_up_from_initial_rel_eb(self, rel, constant, rng):
        """The first pack's bound is ``initial_rel_eb`` of the value
        range (of 1 for a constant tensor); later packs reuse it until
        the controller writes another."""
        adaptive = AdaptiveSpec(initial_rel_eb=rel)
        ctx = CompressingContext(SZCompressor(entropy="zlib"), adaptive=adaptive)
        conv = Conv2D(3, 2, 3, rng=1, name="c")
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        if constant:
            x[:] = 2.5
        want = rel if constant else rel * float(x.max() - x.min())
        assert ctx.pack(conv, "x", x).compressed.error_bound == pytest.approx(want)
        assert ctx.pack(conv, "x", x * 10).compressed.error_bound == pytest.approx(want)
        assert ctx.error_bounds == {"c": pytest.approx(want)}

    @pytest.mark.parametrize("path", ["codec-rel", "first-pack"])
    def test_float32_range_wider_than_float32_round_trips(self, path, rng):
        """A float32 tensor spanning +-3e38 has a value range float32
        cannot hold; the range is taken in float64, so both rel-bound
        paths resolve a finite bound and honour it."""
        from repro.compression import get_codec

        x = (rng.uniform(-1, 1, (2, 3, 8, 8)) * 3e38).astype(np.float32)
        span = float(x.max()) - float(x.min())
        if path == "codec-rel":
            ctx = CompressingContext(
                get_codec("szlike", mode="rel"), adaptive=AdaptiveSpec(enabled=False)
            )
        else:
            ctx = CompressingContext(SZCompressor(entropy="zlib"), adaptive=AdaptiveSpec())
        conv = Conv2D(3, 2, 3, rng=1, name="c")
        with np.errstate(over="raise"):
            h = ctx.pack(conv, "x", x)
        eb = ctx.error_bounds["c"]
        assert eb == pytest.approx(1e-3 * span, rel=1e-12)
        y = ctx.unpack(conv, "x", h).astype(np.float64)
        assert np.abs(y - x.astype(np.float64)).max() <= eb


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


class TestEq8Budget:
    """The controller's Section 4.2 budget: a fraction of the layer's
    mean |momentum|, or of its mean |gradient| before momentum fills."""

    @staticmethod
    def _controller(opt):
        spec = AdaptiveSpec(sigma_fraction=0.01)
        return AdaptiveController(spec, opt, CompressingContext(adaptive=spec))

    def test_budget_is_fraction_of_momentum(self):
        p = Parameter(np.zeros((4,)))
        opt = SGD([p], lr=0.1, momentum=0.9)
        p.grad[:] = 2.0
        opt.step()
        assert self._controller(opt).sigma_budget(p) == pytest.approx(0.02)

    def test_fallback_uses_gradient(self):
        p = Parameter(np.zeros((4,)))
        opt = SGD([p], lr=0.1, momentum=0.9)
        p.grad[:] = 3.0
        controller = self._controller(opt)
        assert controller.sigma_budget(p) == 0.0  # no momentum yet
        assert controller.gradient_fallback_budget(p) == pytest.approx(0.03)


class TestEq9Bound:
    """The controller's Eq. 9 bound under the module's constants: the
    theory coefficient, the nonzero-ratio floor and the clamps."""

    @staticmethod
    def _update(sigma, lscale=2.0, m=64, nonzero=0.5, grad=1.0):
        p = Parameter(np.zeros((4,)))
        p.grad[:] = grad
        spec = AdaptiveSpec()
        ctx = CompressingContext(adaptive=spec)
        controller = AdaptiveController(spec, SGD([p], lr=0.1, momentum=0.9), ctx)
        controller.loss_scales["c"] = lscale
        controller.sigma_budgets["c"] = sigma
        controller.combined_elements["c"] = m
        ctx.observed_nonzero["c"] = nonzero
        return controller.update_error_bounds({"c": p}), ctx

    def test_constants_keep_their_values(self):
        from repro.core import adaptive
        from repro.core.error_model import THEORY_COEFFICIENT_A

        assert THEORY_COEFFICIENT_A == pytest.approx(1 / np.sqrt(3))
        assert (adaptive.EB_MIN, adaptive.EB_MAX) == (1e-10, 10.0)
        assert adaptive.MIN_NONZERO_RATIO == 1e-3

    def test_bound_uses_the_theory_coefficient(self):
        bounds, ctx = self._update(sigma=1e-3, lscale=2.0, m=64, nonzero=0.5)
        want = 1e-3 / (2.0 * np.sqrt(64 * 0.5) / np.sqrt(3))
        assert bounds == {"c": pytest.approx(want, rel=1e-12)}
        assert ctx.error_bounds == bounds

    @pytest.mark.parametrize("nonzero", [0.0, 1e-6, 1e-4])
    def test_nonzero_ratio_is_floored(self, nonzero):
        from repro.core.adaptive import MIN_NONZERO_RATIO

        floored, _ = self._update(1e-6, nonzero=nonzero)
        at_floor, _ = self._update(1e-6, nonzero=MIN_NONZERO_RATIO)
        assert np.isfinite(floored["c"]) and floored == at_floor

    @pytest.mark.parametrize("sigma,clamp", [(1e6, "EB_MAX"), (1e-30, "EB_MIN")],
                             ids=["cap", "floor"])
    def test_bound_is_clipped(self, sigma, clamp):
        from repro.core import adaptive

        bounds, _ = self._update(sigma)
        assert bounds == {"c": getattr(adaptive, clamp)}

    @pytest.mark.parametrize("lscale,grad", [(0.0, 1.0), (2.0, 0.0)],
                             ids=["no-loss-signal", "no-gradient"])
    def test_no_signal_keeps_the_current_bound(self, lscale, grad):
        # sigma 0 falls back to the gradient budget; with that also 0, or
        # no loss signal, the layer keeps the bound it had
        bounds, ctx = self._update(0.0, lscale=lscale, grad=grad)
        assert bounds == {} and ctx.error_bounds == {}


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
        # the first conv is fed the data batch: it packs nothing and has no bound
        assert set(sess.error_bounds) == {packing_convs(net)[0].name}
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
        assert set(sess.controller.loss_scales) == {packing_convs(net)[0].name}
        assert all(v > 0 for v in sess.controller.loss_scales.values())
        assert all(m > 0 for m in sess.controller.combined_elements.values())

    def test_compression_does_not_break_learning(self, dataset):
        net, opt, tr, sess = make_session(dataset)
        tr.train(batches(dataset, 16, 50, seed=0))
        assert tr.history.losses[-10:].mean() < tr.history.losses[:10].mean()

    def test_decompressed_activations_error_bounded(self, dataset, rng):
        """End-to-end: what backward sees differs from the true activation
        by at most the layer's current error bound."""
        net, opt, tr, sess = make_session(dataset)
        conv = packing_convs(net)[0]
        seen = {}
        orig_pack, orig_rows = sess.ctx.pack, sess.ctx.unpack_rows

        def spy_pack(layer, key, arr):
            if layer is conv:
                seen["x"] = arr.copy()
            return orig_pack(layer, key, arr)

        @contextmanager
        def spy_rows(layer, key, handle):
            with orig_rows(layer, key, handle) as rows:
                if layer is conv and isinstance(handle, PackedActivation):
                    seen["eb"] = handle.compressed.error_bound
                    seen["decoded"] = decoded = np.full(rows.shape, np.nan, rows.dtype)
                    read = rows.read

                    def spy_read(sl, out=None):
                        decoded[sl] = out = read(sl, out)
                        return out

                    rows.read = spy_read
                yield rows

        sess.ctx.pack, sess.ctx.unpack_rows = spy_pack, spy_rows
        x, y = dataset.sample(8, rng=0)
        tr.train_step(x, y)
        assert seen["eb"] > 0
        err = np.abs(seen["decoded"].astype(np.float64) - seen["x"]).max()
        assert err <= seen["eb"] * (1 + 1e-5)  # float32 rounds half an ulp past it
