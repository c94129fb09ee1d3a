"""The codec predicts only where it pays, and no decoded value moves.

``SZCompressor`` stores a tensor's grid indices unpredicted when 2-D
Lorenzo would cost more bits (the ReLU-sparse activations of the
benchmark's ``train_sz`` workload).  The predictor is a lossless
transform of the grid, so a session trains bit-identically with and
without the choice; what moves is the bytes the tracker counts.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.api import SessionConfig, build_session
from repro.compression.szlike import SZCompressor
from repro.models.registry import build_scaled_model
from repro.nn.data import SyntheticImageDataset, batches

E2E = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks", "e2e", "configs")

#: ``tracker.peak_stored_bytes`` after step 0 of ``train_sz`` at data
#: seed 3, measured: 235 043 B with the choice, 333 719 B under 2-D
#: Lorenzo everywhere
STEP0_STORED_BYTES = 235_043


def _train_sz(steps: int):
    """Losses of *steps* ``train_sz`` steps on the benchmark's task, and
    the tracker's stored-bytes peak after the first."""
    with open(os.path.join(E2E, "workloads.json")) as f:
        task = json.load(f)["task"]
    dataset = SyntheticImageDataset(
        num_classes=task["num_classes"], image_size=task["image_size"], signal=task["signal"], seed=3
    )
    net = build_scaled_model(
        task["model"],
        num_classes=task["num_classes"],
        image_size=task["image_size"],
        batch=task["batch_size"],
        rng=np.random.default_rng(task["weight_seed"]),
    )
    losses, step0 = [], None
    config = SessionConfig.from_json(os.path.join(E2E, "train_sz.json"))
    with build_session(net, config) as session:
        for images, labels in batches(dataset, task["batch_size"], steps, seed=3):
            losses.append(session.train_step(images, labels).loss)
            if step0 is None:
                step0 = session.tracker.peak_stored_bytes
    return losses, step0


def test_train_sz_trains_bit_identically_and_stores_less(monkeypatch):
    chosen, stored = _train_sz(10)
    monkeypatch.setattr(SZCompressor, "_bits", lambda self, codes, outliers: 0.0)  # Lorenzo always
    forced, stored_forced = _train_sz(10)
    assert chosen == forced and all(np.isfinite(chosen))
    assert stored <= 1.02 * STEP0_STORED_BYTES
    assert stored_forced > 1.3 * stored


@pytest.mark.parametrize("lorenzo_ndim", [1, 2, 3])
def test_sparse_noise_goes_unpredicted_and_a_smooth_field_keeps_lorenzo(lorenzo_ndim):
    rng = np.random.default_rng(0)
    relu = np.maximum(rng.standard_normal((4, 8, 16, 16)), 0).astype(np.float32)
    smooth = np.cumsum(np.cumsum(rng.standard_normal((4, 8, 16, 16)), axis=-1), axis=-2)
    codec = SZCompressor(0.02, lorenzo_ndim=lorenzo_ndim)
    assert codec.compress(relu).lorenzo_ndim == 0
    assert codec.compress(smooth.astype(np.float32)).lorenzo_ndim == lorenzo_ndim
