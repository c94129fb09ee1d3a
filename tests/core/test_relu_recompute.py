"""Section 4.4's first mechanism: recompute the activation function on
decompression so ReLU zeros survive regardless of codec behaviour."""

import numpy as np

from repro.compression import SZCompressor
from repro.api import AdaptiveSpec
from repro.core import CompressedTraining
from repro.nn import (
    BatchNorm2D,
    Conv2D,
    Flatten,
    GlobalAvgPool2D,
    Linear,
    MaxPool2D,
    ReLU,
    Residual,
    SGD,
    Sequential,
)


def _session(net):
    opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
    return CompressedTraining(
        net, opt,
        compressor=SZCompressor(entropy="zlib"),
        config=AdaptiveSpec(W=5, warmup_iterations=1),
    )


class TestMarking:
    def test_relu_fed_conv_marked(self):
        net = Sequential([
            Conv2D(3, 4, 3, padding=1, rng=1, name="c1"), ReLU(),
            Conv2D(4, 4, 3, padding=1, rng=2, name="c2"),
            Conv2D(4, 4, 3, padding=1, rng=3, name="c3"),
            Flatten(), Linear(4 * 8 * 8, 2, rng=4),
        ])
        net.output_shape((1, 3, 8, 8))
        sess = _session(net)
        assert sess.ctx.relu_recompute_layers == {"c2"}

    def test_pooling_preserves_marking(self):
        net = Sequential([
            Conv2D(3, 4, 3, padding=1, rng=1, name="c1"), ReLU(), MaxPool2D(2),
            Conv2D(4, 4, 3, padding=1, rng=2, name="c2"),
            Flatten(), Linear(4 * 4 * 4, 2, rng=3),
        ])
        sess = _session(net)
        assert "c2" in sess.ctx.relu_recompute_layers

    def test_batchnorm_breaks_nonnegativity(self):
        net = Sequential([
            Conv2D(3, 4, 3, padding=1, rng=1, name="c1"), ReLU(), BatchNorm2D(4),
            Conv2D(4, 4, 3, padding=1, rng=2, name="c2"),
            Flatten(), Linear(4 * 8 * 8, 2, rng=3),
        ])
        sess = _session(net)
        assert "c2" not in sess.ctx.relu_recompute_layers

    def test_residual_output_not_assumed_nonnegative(self):
        block = Residual(Sequential([
            Conv2D(3, 3, 3, padding=1, rng=1, name="cm"), ReLU(),
        ]))
        net = Sequential([
            block,
            Conv2D(3, 4, 3, padding=1, rng=2, name="c_after"),
            GlobalAvgPool2D(), Linear(4, 2, rng=3),
        ])
        sess = _session(net)
        # conv after a residual sum must NOT be marked; conv inside the
        # main branch takes the block input (unknown sign) — also unmarked
        assert "c_after" not in sess.ctx.relu_recompute_layers
        assert "cm" not in sess.ctx.relu_recompute_layers

    def test_relu_into_residual_branches_marked(self):
        inner = Sequential([Conv2D(3, 3, 3, padding=1, rng=1, name="cm")])
        sc = Sequential([Conv2D(3, 3, 1, rng=2, name="cs")])
        net = Sequential([
            Conv2D(3, 3, 3, padding=1, rng=0, name="c0"), ReLU(),
            Residual(inner, sc),
            GlobalAvgPool2D(), Linear(3, 2, rng=3),
        ])
        sess = _session(net)
        assert {"cm", "cs"} <= sess.ctx.relu_recompute_layers


class TestEffect:
    def test_drifted_zeros_restored_on_unpack(self, rng):
        """Even with codec drift and the zero filter disabled, marked
        layers see exact zeros after decompression."""
        net = Sequential([
            Conv2D(3, 4, 3, padding=1, rng=1, name="c1"), ReLU(),
            Conv2D(4, 4, 3, padding=1, rng=2, name="c2"),
            Flatten(), Linear(4 * 8 * 8, 2, rng=3),
        ])
        opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
        comp = SZCompressor(1e-2, entropy="zlib", zero_filter=False,
                            emulate_zero_drift=True, rng=4)
        sess = CompressedTraining(net, opt, compressor=comp,
                                  config=AdaptiveSpec(W=5, warmup_iterations=1))
        conv2 = net[2]
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        out = net.forward(x)

        relu_out = np.maximum(net[0].saved_ctx.compressor.decompress(
            conv2._saved["x"].compressed), -np.inf)  # raw decompression
        seen = sess.ctx.unpack(conv2, "x", conv2._saved["x"])
        true_relu = np.maximum(net[0].forward(x), 0)  # what ReLU produced
        # raw decompression drifts zeros; unpack() restores them
        assert np.all(seen[true_relu == 0] == 0)
        assert np.any(relu_out[true_relu == 0] != 0)
