"""The data batch is saved by reference, and R is counted only when read.

A training step marks the layer it feeds the data batch
(``needs_input_grad`` false) for its forward and backward.  Its input is
the caller's batch, not an intermediate activation, so the compressing
context saves a reference to it: no blob, no tracker row, no Eq. 9
bound.  Every other conv packs as before.

The nonzero ratio R a pack records is read only by the controller, on
the iterations it collects: packs count it on those iterations alone,
and the bounds equal those of a run that counts on every pack.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.api import SessionConfig, build_session
from repro.core import CompressingContext, PackedActivation
from repro.models import build_scaled_model
from repro.nn import Conv2D, SyntheticImageDataset, batches, iter_layers

E2E = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks", "e2e", "configs")


def task():
    with open(os.path.join(E2E, "workloads.json")) as f:
        return json.load(f)["task"]


def benchmark_session(workload):
    """A session of one of the benchmark's workloads on its task, with
    the task's weights (the same for every call)."""
    t = task()
    net = build_scaled_model(
        t["model"],
        num_classes=t["num_classes"],
        image_size=t["image_size"],
        batch=t["batch_size"],
        rng=np.random.default_rng(t["weight_seed"]),
    )
    return build_session(net, SessionConfig.from_json(os.path.join(E2E, f"{workload}.json")))


def benchmark_batches(steps):
    t = task()
    dataset = SyntheticImageDataset(
        num_classes=t["num_classes"], image_size=t["image_size"], signal=t["signal"], seed=3
    )
    return batches(dataset, t["batch_size"], steps, seed=3)


def convs(session):
    return [layer for layer in iter_layers(session.network) if isinstance(layer, Conv2D)]


def first_step_weight_grad(session, images, labels):
    """The batch-fed conv's weight gradient after the first step's
    backward, and what that conv held as its saved input when its
    backward began."""
    first = convs(session)[0]
    seen = {}
    backward = first.backward

    def recording(dout):
        seen["saved"] = first._saved["x"]
        return backward(dout)

    first.backward = recording
    session.trainer.post_backward_hooks.append(
        lambda trainer, record: seen.setdefault("grad", first.weight.grad.copy())
    )
    session.train_step(images, labels)
    return seen


def test_the_batch_fed_conv_saves_the_batch_and_its_weight_gradient_is_exact():
    """At iteration 0 the compressed session's batch-fed conv computes the
    raw session's weight gradient bit for bit: a conv's ``dx`` never reads
    its saved input, so ``dout`` is the same, and its saved input is the
    batch itself."""
    images, labels = next(iter(benchmark_batches(1)))
    with benchmark_session("train_raw") as raw:
        raw_seen = first_step_weight_grad(raw, images, labels)
    packed = []
    with benchmark_session("train_sz") as sz:
        ctx = sz.compressed.ctx
        pack = ctx.pack

        def spying(layer, key, arr):
            handle = pack(layer, key, arr)
            packed.append((layer, arr.copy(), handle))
            return handle

        ctx.pack = spying
        sz_seen = first_step_weight_grad(sz, images, labels)
        first, *rest = convs(sz)
        assert first.name not in sz.tracker.per_layer
        assert set(sz.tracker.per_layer) == {c.name for c in rest}
    assert raw_seen["saved"] is images and sz_seen["saved"] is images
    np.testing.assert_array_equal(sz_seen["grad"], raw_seen["grad"])
    assert [layer for layer, *_ in packed] == [first, *rest]
    (_, _, kept), *compressed = packed
    assert kept is images
    for layer, arr, handle in compressed:
        assert isinstance(handle, PackedActivation)
        eb = handle.compressed.error_bound
        err = np.abs(ctx.compressor.decompress(handle.compressed) - arr).max()
        assert 0 < eb and err <= eb * (1 + 1e-6) + float(np.spacing(np.float32(np.abs(arr).max())))


@pytest.mark.parametrize("workload", ["train_sz", "train_ooc"])
def test_controller_bounds_cover_exactly_the_layers_that_pack(workload):
    """``error_bounds``, each collect step's ``mean_error_bound`` and the
    per-layer ratios list the tracker's rows: no bound for the conv fed
    the data batch."""
    with benchmark_session(workload) as s:
        records = [s.train_step(x, y) for x, y in benchmark_batches(11)]
        rows = {r.layer_name for r in s.tracker.summary()}
        assert set(s.error_bounds) == set(s.compression_ratios) == rows
        assert convs(s)[0].name not in rows and len(rows) == len(convs(s)) - 1
        mean = np.mean(list(s.error_bounds.values()))
        assert records[10].extras["mean_error_bound"] == pytest.approx(mean, rel=1e-12)


def counted_iterations(session, steps):
    """Run *steps* steps; return, per iteration, whether each of its
    packs counted R."""
    ctx = session.compressed.ctx
    finalize, counted = ctx._finalize_pack, {}

    def spying(handle, payload):
        counted.setdefault(session.trainer.iteration, []).append(payload[2] is not None)
        finalize(handle, payload)

    ctx._finalize_pack = spying
    for x, y in benchmark_batches(steps):
        session.train_step(x, y)
    return counted


def test_r_is_counted_only_on_collect_iterations_and_moves_no_bound(monkeypatch):
    """``train_sz`` collects at the warm-up (0, 1) and every ``W`` = 10:
    packs count R then and only then, and the bounds after 25 steps
    equal those of a run that counts on every pack."""
    with benchmark_session("train_sz") as s:
        counted = counted_iterations(s, 25)
        bounds, losses = s.error_bounds, s.history.losses
    assert sorted(counted) == list(range(25))
    assert all(len(flags) == 5 for flags in counted.values())
    assert {i for i, flags in counted.items() if all(flags)} == {0, 1, 10, 20}
    assert {i for i, flags in counted.items() if any(flags)} == {0, 1, 10, 20}

    # test-only seam: a class-level property that swallows the framework's writes
    monkeypatch.setattr(
        CompressingContext,
        "count_nonzero",
        property(lambda self: True, lambda self, value: None),
        raising=False,
    )
    with benchmark_session("train_sz") as s:
        forced = counted_iterations(s, 25)
        assert all(all(flags) for flags in forced.values())
        assert s.error_bounds == bounds
        np.testing.assert_array_equal(s.history.losses, losses)


def test_a_direct_forward_still_packs_the_first_conv():
    """Outside a training step the flag is at its default, so a forward
    pass packs every conv, the first included."""
    images, _ = next(iter(benchmark_batches(1)))
    with benchmark_session("train_sz") as s:
        s.network.forward(images)
        first = convs(s)[0]
        assert isinstance(first._saved["x"], PackedActivation)
        assert first.name in s.tracker.per_layer
        s.network.clear_saved()
