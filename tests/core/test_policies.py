"""Baseline memory policies compared against the adaptive framework."""

import numpy as np
import pytest

from repro.compression import (
    DeflateCompressor,
    JpegLikeCompressor,
    SparseLosslessCompressor,
)
from repro.core import CodecPolicy, FixedBoundSZPolicy, RawPolicy
from repro.nn import (
    Conv2D,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    SGD,
    Sequential,
    SyntheticImageDataset,
    Trainer,
    batches,
    set_saved_ctx,
)


@pytest.fixture
def dataset():
    return SyntheticImageDataset(num_classes=4, image_size=16, channels=3, seed=3)


def net_with_policy(policy, seed=1):
    net = Sequential([
        Conv2D(3, 6, 3, padding=1, rng=seed), ReLU(), MaxPool2D(2),
        Conv2D(6, 8, 3, padding=1, rng=seed + 1), ReLU(), MaxPool2D(2),
        Flatten(), Linear(8 * 4 * 4, 4, rng=seed + 2),
    ])
    if policy is not None:
        set_saved_ctx(net, policy, predicate=lambda l: l.compressible)
    return net


def train_with(policy, dataset, iters=8):
    net = net_with_policy(policy)
    opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
    tr = Trainer(net, opt)
    tr.train(batches(dataset, 8, iters, seed=0))
    return tr


class TestRawPolicy:
    def test_accounting_ratio_is_one(self, dataset):
        pol = RawPolicy()
        train_with(pol, dataset)
        assert pol.tracker.overall_ratio == pytest.approx(1.0)

    def test_training_identical_to_no_policy(self, dataset):
        t1 = train_with(None, dataset)
        t2 = train_with(RawPolicy(), dataset)
        np.testing.assert_allclose(t1.history.losses, t2.history.losses, rtol=1e-6)


class TestCodecPolicy:
    @pytest.mark.parametrize("codec,lossless", [
        (DeflateCompressor(), True),
        (SparseLosslessCompressor(), True),
        (JpegLikeCompressor(quality=60), False),
    ])
    def test_training_runs_and_tracks(self, dataset, codec, lossless):
        pol = CodecPolicy(codec)
        tr = train_with(pol, dataset)
        assert np.isfinite(tr.history.losses).all()
        assert pol.tracker.overall_ratio > (0.9 if lossless else 1.0)

    def test_lossless_policy_exactly_matches_baseline(self, dataset):
        t1 = train_with(None, dataset)
        t2 = train_with(CodecPolicy(SparseLosslessCompressor()), dataset)
        np.testing.assert_allclose(t1.history.losses, t2.history.losses, rtol=1e-6)

    def test_rejects_non_codec(self):
        with pytest.raises(TypeError):
            CodecPolicy(object())


class TestFixedBoundSZPolicy:
    def test_near_lossless_bound_matches_baseline(self, dataset):
        t1 = train_with(None, dataset)
        t2 = train_with(FixedBoundSZPolicy(1e-7, entropy="zlib"), dataset)
        np.testing.assert_allclose(t1.history.losses, t2.history.losses, atol=1e-4)

    def test_coarser_bound_higher_ratio(self, dataset):
        p1 = FixedBoundSZPolicy(1e-4, entropy="zlib")
        p2 = FixedBoundSZPolicy(1e-2, entropy="zlib")
        train_with(p1, dataset)
        train_with(p2, dataset)
        assert p2.tracker.overall_ratio > p1.tracker.overall_ratio


class TestPolicyRanking:
    def test_sz_beats_lossless_beats_raw(self, dataset):
        """Table 1's ordering: error-bounded lossy >> lossless >= 1.

        The bound is 1e-2 of unit-variance inputs, the paper's regime; at
        1e-3 this 16x16 net gives szlike 1.19x, which the plane-coded
        lossless baseline (1.24x, was 1.09x as raw DEFLATE) overtakes."""
        raw = RawPolicy()
        lossless = CodecPolicy(SparseLosslessCompressor())
        sz = FixedBoundSZPolicy(1e-2, entropy="zlib")
        for pol in (raw, lossless, sz):
            train_with(pol, dataset, iters=4)
        assert sz.tracker.overall_ratio > 2 * lossless.tracker.overall_ratio
        assert lossless.tracker.overall_ratio >= raw.tracker.overall_ratio * 0.99
