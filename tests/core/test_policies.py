"""The Section 2.1 baselines, each a session config of the one context.

Raw training is ``compress_activations=False``; lossless storage is a
lossless codec with the adaptive controller off; a fixed-bound SZ
ablation is one ``"*"`` rule with a fixed ``error_bound``.
"""

import numpy as np
import pytest

from repro.api import AdaptiveSpec, CodecSpec, PolicyRule, SessionConfig, build_session
from repro.nn import (
    Conv2D,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
    SyntheticImageDataset,
    batches,
)


@pytest.fixture
def dataset():
    return SyntheticImageDataset(num_classes=4, image_size=16, channels=3, seed=3)


def small_net(seed=1):
    return Sequential([
        Conv2D(3, 6, 3, padding=1, rng=seed), ReLU(), MaxPool2D(2),
        Conv2D(6, 8, 3, padding=1, rng=seed + 1), ReLU(), MaxPool2D(2),
        Flatten(), Linear(8 * 4 * 4, 4, rng=seed + 2),
    ])


RAW = SessionConfig(compress_activations=False)


def codec_only(name, **options):
    """Every activation through *name*, no adaptive controller."""
    return SessionConfig(codec=CodecSpec(name, options), adaptive=AdaptiveSpec(enabled=False))


def fixed_bound(eb):
    """One static SZ bound for every layer (the ablation against Eq. 9)."""
    return SessionConfig(
        codec=CodecSpec("szlike", {"entropy": "zlib"}),
        rules=[PolicyRule(match="*", error_bound=eb)],
    )


def train(config, dataset, iters=8):
    """(losses, overall activation ratio — 1.0 for raw training)."""
    with build_session(small_net(), config) as s:
        s.train(batches(dataset, 8, iters, seed=0))
        ratio = s.tracker.overall_ratio if s.tracker is not None else 1.0
        return s.history.losses, ratio


class TestLossless:
    @pytest.mark.parametrize("name", ["lossless", "sparse-lossless"])
    def test_losses_bit_equal_to_raw(self, dataset, name):
        raw, _ = train(RAW, dataset)
        losses, ratio = train(codec_only(name), dataset)
        np.testing.assert_array_equal(losses, raw)
        assert ratio > 0.9


class TestFixedBound:
    def test_coarser_bound_higher_ratio(self, dataset):
        _, fine = train(fixed_bound(1e-4), dataset)
        _, coarse = train(fixed_bound(1e-2), dataset)
        assert coarse > fine

    def test_rule_pins_every_layer(self, dataset):
        with build_session(small_net(), fixed_bound(1e-2)) as s:
            s.train(batches(dataset, 8, 3, seed=0))
            assert set(s.error_bounds.values()) == {1e-2}


class TestLossy:
    def test_jpeg_trains(self, dataset):
        losses, ratio = train(codec_only("jpeg", quality=60), dataset)
        assert np.isfinite(losses).all()
        assert ratio > 1.0


class TestPolicyRanking:
    def test_sz_beats_lossless_beats_raw(self, dataset):
        """Table 1's ordering: error-bounded lossy >> lossless >= 1.

        The bound is 1e-2 of unit-variance inputs, the paper's regime; at
        1e-3 this 16x16 net gives szlike 1.19x, which the plane-coded
        lossless baseline (1.24x, was 1.09x as raw DEFLATE) overtakes."""
        _, raw = train(RAW, dataset, iters=4)
        _, lossless = train(codec_only("sparse-lossless"), dataset, iters=4)
        _, sz = train(fixed_bound(1e-2), dataset, iters=4)
        assert sz > 2 * lossless
        assert lossless >= raw * 0.99
