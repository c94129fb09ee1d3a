"""Finite-difference gradient checks for every layer's backward pass."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Flatten,
    GlobalAvgPool2D,
    Linear,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    Residual,
    Sequential,
    SoftmaxCrossEntropy,
)
from repro.nn.gradcheck import check_layer_gradients


@pytest.fixture
def x4(rng):
    return rng.standard_normal((2, 3, 8, 8)).astype(np.float32)


class TestLayerGradients:
    def test_conv_basic(self, x4):
        check_layer_gradients(Conv2D(3, 4, 3, padding=1, rng=1), x4)

    def test_conv_strided(self, x4):
        check_layer_gradients(Conv2D(3, 4, 3, stride=2, rng=1), x4)

    def test_conv_1x1(self, x4):
        check_layer_gradients(Conv2D(3, 2, 1, rng=1), x4)

    def test_conv_5x5_padded(self, x4):
        check_layer_gradients(Conv2D(3, 2, 5, padding=2, rng=1), x4)

    def test_conv_no_bias(self, x4):
        check_layer_gradients(Conv2D(3, 4, 3, padding=1, bias=False, rng=1), x4)

    def test_linear(self, rng):
        check_layer_gradients(Linear(10, 5, rng=1), rng.standard_normal((4, 10)).astype(np.float32))

    def test_relu(self, x4):
        check_layer_gradients(ReLU(), x4 + 0.2)  # shift off the kink

    @pytest.fixture
    def x4_tiefree(self, rng):
        """All pairwise gaps exceed the finite-difference step, so a max
        never flips its argmax under the +-eps probes (near-ties make
        numeric max-pool gradients ill-defined, not wrong)."""
        vals = rng.permutation(2 * 3 * 8 * 8).astype(np.float32)
        return (vals / vals.size * 4.0 - 2.0).reshape(2, 3, 8, 8)

    def test_maxpool(self, x4_tiefree):
        check_layer_gradients(MaxPool2D(2), x4_tiefree)

    def test_maxpool_overlapping(self, x4_tiefree):
        check_layer_gradients(MaxPool2D(3, stride=2), x4_tiefree)

    def test_maxpool_padded(self, x4_tiefree):
        check_layer_gradients(MaxPool2D(3, stride=2, padding=1), x4_tiefree)

    def test_avgpool(self, x4):
        check_layer_gradients(AvgPool2D(2), x4)

    def test_avgpool_padded(self, x4):
        check_layer_gradients(AvgPool2D(2, stride=2, padding=1), x4)

    def test_global_avgpool(self, x4):
        check_layer_gradients(GlobalAvgPool2D(), x4)

    def test_batchnorm(self, x4):
        check_layer_gradients(BatchNorm2D(3), x4)

    def test_lrn(self, x4):
        check_layer_gradients(LocalResponseNorm(size=3), x4)

    def test_lrn_wide_window(self, rng):
        x = rng.standard_normal((2, 8, 4, 4)).astype(np.float32)
        check_layer_gradients(LocalResponseNorm(size=5), x)

    def test_flatten(self, x4):
        check_layer_gradients(Flatten(), x4)


class TestCompositeGradients:
    def test_sequential_conv_stack(self, x4):
        net = Sequential([
            Conv2D(3, 4, 3, padding=1, rng=1), ReLU(),
            Conv2D(4, 2, 3, padding=1, rng=2),
        ])
        check_layer_gradients(net, x4)

    def test_residual_identity(self, x4):
        block = Residual(Sequential([Conv2D(3, 3, 3, padding=1, rng=1), ReLU()]))
        check_layer_gradients(block, x4)

    def test_residual_projection(self, x4):
        block = Residual(
            Sequential([Conv2D(3, 5, 3, stride=2, padding=1, rng=1)]),
            shortcut=Sequential([Conv2D(3, 5, 1, stride=2, rng=2)]),
        )
        check_layer_gradients(block, x4)

    def test_conv_bn_pool_pipeline(self, x4):
        # smooth after the norm: its outputs straddle ReLU's kink at 0
        net = Sequential([Conv2D(3, 4, 3, padding=1, rng=1), BatchNorm2D(4), AvgPool2D(2)])
        check_layer_gradients(net, x4)


class TestLossGradient:
    def test_softmax_ce_gradient(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.standard_normal((6, 5)).astype(np.float64)
        labels = rng.integers(0, 5, size=6)
        _, dlogits = loss.forward(logits.copy(), labels)

        eps = 1e-5
        num = np.zeros_like(logits)
        for idx in np.ndindex(*logits.shape):
            lp = logits.copy(); lp[idx] += eps
            lm = logits.copy(); lm[idx] -= eps
            fp, _ = loss.forward(lp, labels)
            fm, _ = loss.forward(lm, labels)
            num[idx] = (fp - fm) / (2 * eps)
        np.testing.assert_allclose(dlogits, num, rtol=1e-4, atol=1e-7)

    def test_loss_decreases_along_negative_gradient(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.standard_normal((8, 4))
        labels = rng.integers(0, 4, size=8)
        l0, d = loss.forward(logits.copy(), labels)
        l1, _ = loss.forward(logits - 0.1 * d, labels)
        assert l1 < l0

    def test_perfect_prediction_low_loss(self):
        loss = SoftmaxCrossEntropy()
        logits = np.full((4, 3), -20.0)
        labels = np.arange(4) % 3
        logits[np.arange(4), labels] = 20.0
        l, _ = loss.forward(logits, labels)
        assert l < 1e-6

    def test_accuracy_helper(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert SoftmaxCrossEntropy.accuracy(logits, np.array([0, 1])) == 1.0
        assert SoftmaxCrossEntropy.accuracy(logits, np.array([1, 0])) == 0.0

    def test_rejects_bad_shapes(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ValueError):
            loss.forward(np.zeros((2, 3, 4)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            loss.forward(np.zeros((2, 3)), np.zeros(3, dtype=int))
