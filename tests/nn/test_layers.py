"""Per-layer behaviour: shapes, modes, saved-tensor lifecycle."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    Linear,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
)
from repro.nn.init import kaiming_uniform


@pytest.fixture
def x4(rng):
    return rng.standard_normal((2, 3, 8, 8)).astype(np.float32)


class TestConv2D:
    def test_output_shape(self, x4):
        conv = Conv2D(3, 5, 3, stride=2, padding=1, rng=0)
        out = conv.forward(x4)
        assert out.shape == (2, 5, 4, 4)
        assert out.shape == conv.output_shape(x4.shape)

    def test_known_value(self):
        """1x1 kernel of ones == channel sum."""
        conv = Conv2D(3, 1, 1, bias=False, rng=0)
        conv.weight.data[:] = 1.0
        x = np.arange(2 * 3 * 2 * 2, dtype=np.float32).reshape(2, 3, 2, 2)
        out = conv.forward(x)
        np.testing.assert_allclose(out[:, 0], x.sum(axis=1), rtol=1e-6)

    def test_bias_added(self, x4):
        conv = Conv2D(3, 4, 3, padding=1, rng=0)
        conv.weight.data[:] = 0.0
        conv.bias.data[:] = np.arange(4)
        out = conv.forward(x4)
        for c in range(4):
            np.testing.assert_allclose(out[:, c], c, atol=1e-6)

    def test_no_bias(self, x4):
        conv = Conv2D(3, 4, 3, padding=1, bias=False, rng=0)
        assert conv.bias is None
        assert len(conv.parameters()) == 1

    def test_wrong_channels_rejected(self, x4):
        with pytest.raises(ValueError):
            Conv2D(4, 2, 3, rng=0).forward(x4)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Conv2D(3, 4, kernel=0)

    def test_eval_saves_nothing(self, x4):
        conv = Conv2D(3, 4, 3, rng=0).eval()
        conv.forward(x4)
        assert not conv._saved

    def test_training_saves_input(self, x4):
        conv = Conv2D(3, 4, 3, rng=0)
        conv.forward(x4)
        assert "x" in conv._saved

    def test_grad_accumulates(self, x4):
        conv = Conv2D(3, 4, 3, padding=1, rng=0)
        out = conv.forward(x4)
        conv.backward(np.ones_like(out))
        g1 = conv.weight.grad.copy()
        conv.forward(x4)
        conv.backward(np.ones_like(out))
        np.testing.assert_allclose(conv.weight.grad, 2 * g1, rtol=1e-5)

    def test_compressible_flag(self):
        assert Conv2D(1, 1, 1, rng=0).compressible is True


class TestPooling:
    def test_maxpool_values(self):
        x = np.array([[[[1, 2], [3, 4]]]], dtype=np.float32)
        out = MaxPool2D(2).forward(x)
        assert out.reshape(-1)[0] == 4.0

    def test_maxpool_backward_routes_to_argmax(self):
        x = np.array([[[[1, 2], [3, 4]]]], dtype=np.float32)
        mp = MaxPool2D(2)
        mp.forward(x)
        dx = mp.backward(np.array([[[[5.0]]]], dtype=np.float32))
        expected = np.array([[[[0, 0], [0, 5.0]]]], dtype=np.float32)
        np.testing.assert_array_equal(dx, expected)

    def test_overlapping_windows_accumulate(self, rng):
        x = rng.standard_normal((1, 1, 5, 5)).astype(np.float32)
        mp = MaxPool2D(3, stride=2)
        out = mp.forward(x)
        dx = mp.backward(np.ones_like(out))
        # total gradient mass conserved
        assert dx.sum() == pytest.approx(out.size, rel=1e-6)

    def test_avgpool_values(self):
        x = np.array([[[[1, 2], [3, 4]]]], dtype=np.float32)
        out = AvgPool2D(2).forward(x)
        assert out.reshape(-1)[0] == pytest.approx(2.5)

    def test_global_avgpool(self, rng):
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        out = GlobalAvgPool2D().forward(x)
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)), rtol=1e-6)

    def test_pool_rejects_2d(self):
        with pytest.raises(ValueError):
            MaxPool2D(2).forward(np.zeros((4, 4), dtype=np.float32))


class TestActivations:
    def test_relu_clamps(self, x4):
        out = ReLU().forward(x4)
        assert out.min() >= 0
        np.testing.assert_array_equal(out, np.maximum(x4, 0))

    def test_relu_backward_mask(self, x4):
        r = ReLU()
        r.forward(x4)
        dx = r.backward(np.ones_like(x4))
        np.testing.assert_array_equal(dx, (x4 > 0).astype(np.float32))

    def test_relu_sparsity_realistic(self, rng):
        """Post-ReLU activations are ~half zeros for centered input."""
        x = rng.standard_normal((100, 100)).astype(np.float32)
        out = ReLU().forward(x)
        r = np.count_nonzero(out) / out.size
        assert 0.4 < r < 0.6


class TestKaimingUniform:
    def test_draws_within_the_he_bound(self):
        w = kaiming_uniform((64, 27), fan_in=27, rng=0)
        bound = np.sqrt(6.0 / 27)
        assert w.dtype == np.float32 and w.shape == (64, 27)
        assert np.abs(w).max() <= bound and np.abs(w).max() > 0.9 * bound

    @pytest.mark.parametrize("fan_in", [0, -3])
    def test_rejects_nonpositive_fan_in(self, fan_in):
        with pytest.raises(ValueError, match="fan_in"):
            kaiming_uniform((2, 2), fan_in=fan_in)


class TestBatchNorm:
    def test_normalizes_training(self, rng):
        x = (rng.standard_normal((8, 4, 6, 6)) * 5 + 3).astype(np.float32)
        bn = BatchNorm2D(4)
        out = bn.forward(x)
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-4
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_converge(self, rng):
        bn = BatchNorm2D(2, momentum=0.5)
        for _ in range(30):
            x = (rng.standard_normal((16, 2, 4, 4)) * 2 + 1).astype(np.float32)
            bn.forward(x)
        assert bn.running_mean == pytest.approx(np.ones(2), abs=0.3)
        assert bn.running_var == pytest.approx(np.full(2, 4.0), rel=0.4)

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2D(2)
        x = rng.standard_normal((8, 2, 4, 4)).astype(np.float32)
        for _ in range(10):
            bn.forward(x)
        bn.eval()
        y1 = bn.forward(x[:4])
        y2 = bn.forward(x[:4])
        np.testing.assert_array_equal(y1, y2)  # no batch dependence

    def test_gamma_beta_applied(self, rng):
        bn = BatchNorm2D(2)
        bn.gamma.data[:] = 2.0
        bn.beta.data[:] = 1.0
        x = rng.standard_normal((8, 2, 4, 4)).astype(np.float32)
        out = bn.forward(x)
        assert out.mean() == pytest.approx(1.0, abs=1e-3)
        assert out.std() == pytest.approx(2.0, rel=1e-2)

    def test_wrong_channels_rejected(self, x4):
        with pytest.raises(ValueError):
            BatchNorm2D(5).forward(x4)


class TestLRN:
    def test_identity_at_zero_alpha(self, x4):
        lrn = LocalResponseNorm(size=5, alpha=0.0, beta=0.75, k=1.0)
        np.testing.assert_allclose(lrn.forward(x4), x4, rtol=1e-6)

    def test_suppresses_strong_channels(self, rng):
        x = np.ones((1, 5, 2, 2), dtype=np.float32)
        x[0, 2] = 100.0
        lrn = LocalResponseNorm(size=3, alpha=1.0, beta=0.75, k=1.0)
        out = lrn.forward(x)
        assert out[0, 2, 0, 0] < x[0, 2, 0, 0]

    def test_rejects_even_size(self):
        with pytest.raises(ValueError):
            LocalResponseNorm(size=4)

    def test_matches_bruteforce(self, rng):
        x = rng.standard_normal((2, 6, 3, 3)).astype(np.float32)
        size, alpha, beta, k = 5, 1e-2, 0.75, 2.0
        lrn = LocalResponseNorm(size, alpha, beta, k)
        out = lrn.forward(x)
        half = size // 2
        for c in range(6):
            lo, hi = max(0, c - half), min(6, c + half + 1)
            denom = k + alpha / size * (x[:, lo:hi] ** 2).sum(axis=1)
            np.testing.assert_allclose(out[:, c], x[:, c] * denom**-beta, rtol=1e-5)


class TestDropout:
    def test_identity_at_eval(self, x4):
        d = Dropout(0.5, rng=0).eval()
        np.testing.assert_array_equal(d.forward(x4), x4)

    def test_identity_at_p_zero(self, x4):
        np.testing.assert_array_equal(Dropout(0.0, rng=0).forward(x4), x4)

    def test_expected_scale_preserved(self, rng):
        x = np.ones((200, 200), dtype=np.float32)
        out = Dropout(0.3, rng=rng).forward(x)
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_backward_uses_same_mask(self, rng):
        d = Dropout(0.5, rng=rng)
        x = np.ones((50, 50), dtype=np.float32)
        out = d.forward(x)
        dx = d.backward(np.ones_like(x))
        np.testing.assert_array_equal(dx == 0, out == 0)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)


class TestLinearFlatten:
    def test_linear_matches_matmul(self, rng):
        lin = Linear(6, 4, rng=0)
        x = rng.standard_normal((3, 6)).astype(np.float32)
        np.testing.assert_allclose(
            lin.forward(x), x @ lin.weight.data.T + lin.bias.data, rtol=1e-5
        )

    def test_linear_rejects_wrong_features(self, rng):
        with pytest.raises(ValueError):
            Linear(6, 4, rng=0).forward(np.zeros((2, 5), dtype=np.float32))

    def test_flatten_roundtrip(self, x4):
        f = Flatten()
        out = f.forward(x4)
        assert out.shape == (2, 3 * 8 * 8)
        back = f.backward(out)
        assert back.shape == x4.shape
