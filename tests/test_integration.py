"""Cross-module integration: every scaled architecture trains under the
full adaptive compression framework, and the bound-accuracy ordering the
paper relies on holds end to end."""

import numpy as np
import pytest

from repro.api import AdaptiveSpec, CodecSpec, OptimizerSpec, PolicyRule, SessionConfig
from repro.api import build_session
from repro.models import build_scaled_model
from repro.nn import SyntheticImageDataset, batches


@pytest.fixture(scope="module")
def dataset():
    return SyntheticImageDataset(num_classes=4, image_size=16, channels=3, seed=3)


def fixed_bound(eb):
    """One static SZ bound for every compressible layer."""
    return SessionConfig(
        codec=CodecSpec("szlike", {"entropy": "zlib"}),
        rules=[PolicyRule(match="*", error_bound=eb)],
    )


@pytest.mark.parametrize("model", ["alexnet", "vgg16", "resnet18", "resnet50"])
def test_every_architecture_trains_compressed(model, dataset):
    net = build_scaled_model(model, num_classes=4, image_size=16, rng=11)
    cfg = SessionConfig(
        codec=CodecSpec("szlike", {"entropy": "zlib"}),
        adaptive=AdaptiveSpec(W=5, warmup_iterations=2),
        optimizer=OptimizerSpec(lr=0.005),
    )
    with build_session(net, cfg) as s:
        s.train(batches(dataset, 8, 10, seed=0))
        assert np.isfinite(s.history.losses).all()
        assert s.tracker.overall_ratio > 1.5
        assert len(s.error_bounds) >= 3


def test_identical_trajectory_when_bound_negligible(dataset):
    """The whole stack is exact when compression error is negligible."""
    def run(config):
        net = build_scaled_model("alexnet", num_classes=4, image_size=16, rng=5)
        with build_session(net, config) as s:
            s.train(batches(dataset, 8, 8, seed=0))
            return s.history.losses

    np.testing.assert_allclose(
        run(SessionConfig(compress_activations=False)), run(fixed_bound(1e-8)), atol=1e-5
    )


def test_absurd_bound_starves_conv_gradients(dataset):
    """An error bound far beyond the activation range quantizes every
    saved activation to zero, so conv weight gradients vanish — the
    failure mode Eq. 9's budget exists to avoid."""
    from repro.nn import Conv2D, iter_layers

    def conv_weight_movement(eb):
        net = build_scaled_model("alexnet", num_classes=4, image_size=16, rng=5)
        convs = [l for l in iter_layers(net) if isinstance(l, Conv2D)]
        before = [c.weight.data.copy() for c in convs]
        with build_session(net, fixed_bound(eb)) as s:
            s.train(batches(dataset, 16, 10, seed=0))
        return sum(float(np.abs(c.weight.data - b).sum())
                   for c, b in zip(convs, before))

    moving = conv_weight_movement(1e-5)
    frozen = conv_weight_movement(50.0)  # bound >> activation range
    assert frozen < 0.01 * moving


def test_session_coexists_with_lr_schedule_and_hooks(dataset):
    from repro.nn import StepLR

    net = build_scaled_model("alexnet", num_classes=4, image_size=16, rng=7)
    cfg = SessionConfig(
        adaptive=AdaptiveSpec(W=3, warmup_iterations=1), optimizer=OptimizerSpec(lr=0.02)
    )
    with build_session(net, cfg) as s:
        opt = s.optimizer
        s.trainer.lr_schedule = StepLR(opt, step_size=5, gamma=0.5)
        calls = []
        s.trainer.post_backward_hooks.append(lambda t, r: calls.append(r.iteration))
        s.train(batches(dataset, 8, 11, seed=0))
        assert opt.lr == pytest.approx(0.02 * 0.25)
        assert calls == list(range(11))
        assert s.tracker.overall_ratio > 1
