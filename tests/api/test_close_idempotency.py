"""``Session.close()`` closes what ``build_session`` created, once.

A multi-tenant server calls ``session.close()`` on eviction *and* again
through ``server.close()``'s sweep, so a second close must be a no-op —
for the single-worker session and the multi-process DistributedSession.
The single-worker session closes the activation ``ByteArena`` it built
(its spill file goes with it), but never an arena the caller passed in.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.api import SessionConfig, build_session
from repro.api.config import DistributedSpec, ProfilerSpec, StorageSpec
from repro.core import ByteArena
from repro.models.specs import ConvS, FlattenS, LinearS, ReLUS, build_network
from repro.nn import SyntheticImageDataset, batches
from repro.utils import profiler

REPO = os.path.join(os.path.dirname(__file__), "..", "..")


def make_net(seed=42, image_size=12, batch=8):
    # two convs: a training step keeps the first one's input (the data
    # batch) by reference, so only the second packs into the arena
    specs = [
        ConvS(8, 3, padding=1), ReLUS(), ConvS(8, 3, padding=1), ReLUS(), FlattenS(), LinearS(8),
    ]
    return build_network(specs, (batch, 3, image_size, image_size), rng=seed)


def data(iters=2, batch=8, image_size=12):
    dataset = SyntheticImageDataset(num_classes=8, image_size=image_size, signal=0.6, seed=7)
    return batches(dataset, batch, iters, seed=1)


class TestSingleWorkerClose:
    def test_close_closes_the_activation_arena(self, tmp_path):
        cfg = SessionConfig(
            storage=StorageSpec(activations="arena", budget_bytes=0, spill_dir=str(tmp_path)),
        )
        session = build_session(make_net(), cfg)
        session.train(data(iters=1))
        assert list(tmp_path.glob("*.spill"))
        session.close()
        assert not list(tmp_path.glob("*.spill"))
        with pytest.raises(RuntimeError):
            session.compressed.ctx.storage.put(b"x")

    def test_caller_arena_stays_open(self):
        arena = ByteArena(budget_bytes=1 << 20)
        cfg = SessionConfig(storage=StorageSpec(activations="arena"))
        with build_session(make_net(), cfg, storage=arena) as session:
            session.train(data(iters=1))
            assert session.compressed.ctx.storage is arena
        key = arena.put(b"x")  # still open: the caller closes it
        assert arena.get(key) == b"x"
        arena.close()

    def test_double_close_is_a_noop(self):
        cfg = SessionConfig(
            storage=StorageSpec(
                activations="arena", budget_bytes=1 << 20,
                params="arena", param_budget_bytes=0,
            ),
            profiler=ProfilerSpec(enabled=True),
        )
        session = build_session(make_net(), cfg)
        session.train(data())
        session.close()
        assert profiler.get_active() is None
        assert session.param_store.storage.spill_count > 0
        weights = [p.data.copy() for p in session.network.parameters()]
        assert all(w.size and np.isfinite(w).all() for w in weights)  # resident again
        session.close()
        session.close()
        for before, after in zip(weights, (p.data for p in session.network.parameters())):
            assert np.array_equal(before, after)

    def test_context_manager_plus_explicit_close(self):
        with build_session(make_net(), SessionConfig()) as session:
            session.train(data())
            session.close()  # explicit close inside the with block
        for p in session.network.parameters():
            assert np.isfinite(p.data).all()

    def test_param_store_charges_the_session_tracker(self):
        path = os.path.join(REPO, "benchmarks", "e2e", "configs", "train_ooc.json")
        with build_session(make_net(), SessionConfig.from_json(path)) as session:
            assert session.param_store.tracker is session.tracker


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
