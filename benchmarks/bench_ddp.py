"""Data-parallel gradient exchange: step latency and compression ratio.

Two records per run:

* **Step latency** at world sizes 1/2/4 (same global batch, same net) —
  the process-star exchange's overhead trajectory.  Wall-clock, so
  recorded ungated.
* **Gradient compression ratio** of the bounded-lossy uplink and the
  bit-exact broadcast — deterministic for a fixed codec/config, so
  gated against the committed baseline.

``REPRO_BENCH_QUICK=1`` shrinks the iteration count for CI.
"""

import time

import numpy as np

from _common import QUICK, metric, write_bench_json, write_report
from repro.api import CodecSpec, SessionConfig, build_session
from repro.api.config import DistributedSpec, ProfilerSpec
from repro.models.specs import ConvS, FlattenS, LinearS, MaxPoolS, ReLUS, build_network
from repro.nn import SyntheticImageDataset, batches

ITERS = 3 if QUICK else 10
BATCH = 8
IMAGE = 12
WORLD_SIZES = (1, 2, 4)
GRAD_CODEC = CodecSpec("szlike", {"error_bound": 1e-3, "mode": "abs"})


def make_net(seed=42):
    specs = [
        ConvS(8, 3, padding=1), ReLUS(), MaxPoolS(2),
        ConvS(16, 3, padding=1), ReLUS(),
        FlattenS(), LinearS(8),
    ]
    return build_network(specs, (BATCH, 3, IMAGE, IMAGE), rng=seed)


def data():
    dataset = SyntheticImageDataset(
        num_classes=8, image_size=IMAGE, signal=0.6, seed=7
    )
    return batches(dataset, BATCH, ITERS, seed=1)


def run_world(world_size):
    cfg = SessionConfig(
        compress_activations=False,
        profiler=ProfilerSpec(enabled=True),
        distributed=DistributedSpec(world_size=world_size, grad_codec=GRAD_CODEC)
        if world_size > 1
        else DistributedSpec(),
    )
    net = make_net()
    session = build_session(net, cfg)
    t0 = time.perf_counter()
    session.train(data())
    wall = time.perf_counter() - t0
    stats = session.grad_exchange_stats if world_size > 1 else None
    session.close()
    snap = session.profiler.snapshot() if session.profiler is not None else {}
    return {
        "step_ms": 1e3 * wall / ITERS,
        "stats": stats,
        "snapshot": snap,
        "losses": list(session.history.losses),
    }


def measured_exchange_ms(snapshot):
    """Mean rank-side blocking time per exchange (send + wait + recv)."""
    rec = snapshot.get("grad-exchange")
    if not rec or not rec["calls"]:
        return 0.0
    return 1e3 * rec["seconds"] / rec["calls"]


def reduce_ms(snapshot, steps):
    """Coordinator reduce per step, measured directly (``grad-reduce``)."""
    return 1e3 * snapshot.get("grad-reduce", {}).get("seconds", 0.0) / steps


def test_ddp_report(benchmark):
    results = benchmark.pedantic(
        lambda: {w: run_world(w) for w in WORLD_SIZES},
        rounds=1,
        iterations=1,
    )

    rows = [
        "Data-parallel exchange — step latency / compression",
        f"(net: 2-conv stack, batch {BATCH}, {ITERS} iters, "
        "grad codec szlike abs 1e-3)",
        f"{'world':>5s} {'step ms':>9s} {'uplink x':>9s} {'downlink x':>11s} "
        f"{'wire ms':>8s}",
        "(wire ms = rank exchange wait minus coordinator reduce: pipe "
        "transfer + inter-rank skew)",
    ]
    metrics = {}
    for w in WORLD_SIZES:
        r = results[w]
        metrics[f"step_latency_ms_ws{w}"] = metric(
            r["step_ms"], "ms", higher_is_better=False
        )
        if w == 1:
            rows.append(f"{w:>5d} {r['step_ms']:>9.2f} {'-':>9s} {'-':>11s} {'-':>8s}")
            continue
        stats = r["stats"]
        up_ratio = stats["per_rank"][0]["ratio"]
        down_ratio = stats["downlink"]["ratio"]
        uplink_bytes = stats["per_rank"][0]["compressed_bytes"] / stats["steps"]
        snap = r["snapshot"]
        wire = max(measured_exchange_ms(snap) - reduce_ms(snap, stats["steps"]), 0.0)
        # deterministic for a fixed codec/data stream: a stable gate
        metrics[f"grad_uplink_ratio_ws{w}"] = metric(up_ratio, "x", gate=True, tolerance=0.15)
        metrics[f"uplink_bytes_per_step_ws{w}"] = metric(uplink_bytes, "B")
        metrics[f"grad_downlink_ratio_ws{w}"] = metric(down_ratio, "x")
        rows.append(
            f"{w:>5d} {r['step_ms']:>9.2f} {up_ratio:>8.2f}x {down_ratio:>10.2f}x {wire:>8.3f}"
        )

    # the exchange must not change what is learned: same data, same net,
    # losses agree with the single-worker run within the grad bound
    drift = max(
        abs(a - b) for a, b in zip(results[1]["losses"], results[2]["losses"])
    )
    rows.append(f"max |loss(ws2) - loss(ws1)| over {ITERS} iters: {drift:.2e}")
    assert drift < 0.05, "bounded-lossy exchange drifted beyond the bound"
    assert np.isfinite(results[4]["losses"][-1])

    write_report("ddp", rows)
    write_bench_json(
        "ddp",
        metrics,
        context={
            "iters": ITERS,
            "batch": BATCH,
            "world_sizes": list(WORLD_SIZES),
            "grad_codec": GRAD_CODEC.to_dict(),
        },
    )
