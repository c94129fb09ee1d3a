"""SGD behaviour (momentum introspection included)."""

import numpy as np
import pytest

from repro.nn import Parameter, ResidentSlots, SGD


def _params(rng, n=2):
    return [Parameter(rng.standard_normal((3, 3)), name=f"p{i}") for i in range(n)]


class TestSGD:
    def test_plain_sgd_step(self, rng):
        p = Parameter(np.ones((2, 2)))
        opt = SGD([p], lr=0.1, momentum=0.0)
        p.grad[:] = 1.0
        opt.step()
        np.testing.assert_allclose(p.data, 0.9)

    def test_momentum_accumulates(self, rng):
        p = Parameter(np.zeros((2,)))
        opt = SGD([p], lr=1.0, momentum=0.5)
        p.grad[:] = 1.0
        opt.step()  # v=1, w=-1
        p.grad[:] = 1.0
        opt.step()  # v=1.5, w=-2.5
        np.testing.assert_allclose(p.data, -2.5)

    def test_weight_decay(self):
        p = Parameter(np.full((2,), 10.0))
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.1)
        p.grad[:] = 0.0
        opt.step()
        np.testing.assert_allclose(p.data, 10.0 - 0.1 * 0.1 * 10.0)

    def test_zero_grad(self, rng):
        ps = _params(rng)
        opt = SGD(ps, lr=0.1)
        for p in ps:
            p.grad[:] = 5.0
        opt.zero_grad()
        assert all(np.all(p.grad == 0) for p in ps)

    def test_momentum_buffer_access(self, rng):
        ps = _params(rng)
        opt = SGD(ps, lr=0.1, momentum=0.9)
        ps[0].grad[:] = 2.0
        opt.step()
        np.testing.assert_allclose(opt.momentum_buffer(ps[0]), 2.0)

    def test_average_gradient_magnitude(self, rng):
        ps = _params(rng)
        opt = SGD(ps, lr=0.1)
        for p in ps:
            p.grad[:] = 4.0
        assert opt.average_gradient_magnitude() == pytest.approx(4.0)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            SGD(_params(rng), lr=0.0)
        with pytest.raises(ValueError):
            SGD(_params(rng), lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestSlotAPI:
    def test_slots_live_in_state_backend(self, rng):
        ps = _params(rng)
        opt = SGD(ps, lr=0.1, momentum=0.9)
        assert isinstance(opt.state, ResidentSlots)
        ps[0].grad[:] = 1.0
        opt.step()
        np.testing.assert_allclose(opt.momentum_buffer(ps[0]), ps[0].grad)

    def test_use_slot_state_migrates_values(self, rng):
        ps = _params(rng)
        opt = SGD(ps, lr=0.1, momentum=0.9)
        for p in ps:
            p.grad[:] = 3.0
        opt.step()
        opt.use_slot_state(ResidentSlots())
        np.testing.assert_allclose(opt.momentum_buffer(ps[0]), 3.0)


class TestConvergence:
    def test_sgd_solves_quadratic(self, rng):
        """min ||w - target||^2 converges with momentum."""
        target = rng.standard_normal((4, 4)).astype(np.float32)
        p = Parameter(np.zeros((4, 4)))
        opt = SGD([p], lr=0.05, momentum=0.9)
        for _ in range(400):
            opt.zero_grad()
            p.grad += 2 * (p.data - target)
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-3)
