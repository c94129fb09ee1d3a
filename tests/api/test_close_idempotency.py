"""Regression tests: ``Session.close()`` is a guarded no-op the second
time — a double-close must never double-release resources — for both
the single-worker session and the multi-process DistributedSession.

A multi-tenant server calls ``session.close()`` on eviction *and* again
through ``server.close()``'s sweep; before the explicit ``_closed``
guard this leaned entirely on every close hook being individually
re-entrant."""

from __future__ import annotations

import numpy as np

from repro.api import SessionConfig, build_session
from repro.api.config import DistributedSpec, StorageSpec
from repro.models.specs import ConvS, FlattenS, LinearS, ReLUS, build_network
from repro.nn import SyntheticImageDataset, batches


def make_net(seed=42, image_size=12, batch=8):
    specs = [ConvS(8, 3, padding=1), ReLUS(), FlattenS(), LinearS(8)]
    return build_network(specs, (batch, 3, image_size, image_size), rng=seed)


def data(iters=2, batch=8, image_size=12):
    dataset = SyntheticImageDataset(num_classes=8, image_size=image_size, signal=0.6, seed=7)
    return batches(dataset, batch, iters, seed=1)


class TestSingleWorkerDoubleClose:
    def test_close_hooks_run_exactly_once(self):
        cfg = SessionConfig(
            storage=StorageSpec(activations="arena", budget_bytes=1 << 20),
        )
        session = build_session(make_net(), cfg)
        calls = []
        session.trainer.close_hooks.append(lambda tr: calls.append(1))
        session.train(data())
        session.close()
        assert calls == [1]
        session.close()
        session.close()
        assert calls == [1]  # guarded: later closes never re-enter hooks

    def test_closed_flag_set_before_hooks_run(self):
        # A hook that (indirectly) re-enters close() must not recurse.
        session = build_session(make_net(), SessionConfig())
        reentered = []
        session.trainer.close_hooks.append(
            lambda tr: (session.close(), reentered.append(session._closed))
        )
        session.close()
        assert reentered == [True]

    def test_context_manager_plus_explicit_close(self):
        with build_session(make_net(), SessionConfig()) as session:
            session.train(data())
            session.close()  # explicit close inside the with block
        for p in session.network.parameters():
            assert np.isfinite(p.data).all()


class TestDistributedDoubleClose:
    def test_double_close_is_a_noop(self):
        cfg = SessionConfig(
            compress_activations=False,
            distributed=DistributedSpec(world_size=2),
        )
        session = build_session(make_net(), cfg)
        session.train(data(iters=2))
        losses = list(session.history.losses)
        session.close()
        weights = [p.data.copy() for p in session.network.parameters()]
        session.close()  # second close: no rank respawn, no re-pull
        session.close()
        for before, after in zip(weights, (p.data for p in session.network.parameters())):
            assert np.array_equal(before, after)
        assert list(session.history.losses) == losses
