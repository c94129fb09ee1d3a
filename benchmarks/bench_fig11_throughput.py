"""Figure 11: ResNet-50 training throughput (images/s) vs batch size N,
single V100 and 4-node x 4-GPU, baseline vs our framework.

Alongside the analytic simulator sweep, a *measured* run trains a small
compressed stack for real and reports its images/s.
"""

import numpy as np

from _common import (
    QUICK,
    RUN_BATCH,
    RUN_MODEL,
    group_summary_doc,
    metric,
    timed_run,
    write_bench_json,
    write_report,
)
from repro.simulator import BASELINE, TrainingSimulator, V100, our_policy

BATCHES = [8, 16, 32, 64, 128, 256]

#: measured run: the shared _common scale
MEASURED_ITERS = 2 if QUICK else 4


def sweep_all():
    base = TrainingSimulator("resnet50", V100, policy=BASELINE)
    ours = TrainingSimulator("resnet50", V100, policy=our_policy(11.0))
    out = {}
    for workers, tag in ((1, "1 GPU"), (16, "4 nodes x 4 GPUs")):
        out[tag] = {
            "base": {b: base.simulate(b, workers=workers) for b in BATCHES},
            "ours": {b: ours.simulate(b, workers=workers) for b in BATCHES},
        }
    out["max_batch"] = (base.max_batch(), ours.max_batch())
    return out


def test_fig11_report(benchmark):
    data = benchmark.pedantic(sweep_all, rounds=1, iterations=1)
    rows = ["Figure 11 — ResNet-50 throughput vs batch size (simulated V100)"]
    for tag in ("1 GPU", "4 nodes x 4 GPUs"):
        rows.append(f"-- {tag} --")
        rows.append(f"{'N':>5s} {'baseline img/s':>15s} {'ours img/s':>12s} {'fits (base/ours)':>17s}")
        for b in BATCHES:
            rb = data[tag]["base"][b]
            ro = data[tag]["ours"][b]
            rows.append(
                f"{b:>5d} {rb.images_per_s:>15.0f} {ro.images_per_s:>12.0f} "
                f"{str(rb.fits):>8s}/{str(ro.fits):<8s}"
            )
    mb_b, mb_o = data["max_batch"]
    rows += [
        f"max batch per GPU: baseline {mb_b}, ours {mb_o} ({mb_o / mb_b:.2f}x headroom)",
        "paper shape: throughput rises with N for both cases; the framework",
        "extends the feasible batch range — matched.",
    ]

    # -- measured: the compressed stack at CPU scale -----------------------
    dt, losses, sess = timed_run(iters=MEASURED_ITERS)
    ips = RUN_BATCH * MEASURED_ITERS / dt
    rows += [
        f"-- measured ({RUN_MODEL} scaled, batch {RUN_BATCH}) --",
        f"img/s: {ips:.1f}",
    ]
    write_report("fig11_throughput", rows)
    write_bench_json(
        "fig11_throughput",
        {
            # Simulator numbers are analytic and deterministic: a tight
            # gate that catches accidental cost-model changes.
            "sim_1gpu_batch64_img_per_s": metric(
                data["1 GPU"]["ours"][64].images_per_s, "img/s", gate=True, tolerance=0.01
            ),
            "sim_max_batch_headroom": metric(
                mb_o / mb_b, "x", gate=True, tolerance=0.01
            ),
            "measured_sync_img_per_s": metric(
                # Quick-mode measurement is ~2 tiny iterations: wide band.
                ips, "img/s", gate=True, tolerance=0.25 if not QUICK else 0.60
            ),
        },
        context={
            "model": RUN_MODEL,
            "batch": RUN_BATCH,
            "iters": MEASURED_ITERS,
            "memory_groups": group_summary_doc(sess.tracker),
        },
    )
    assert ips > 0 and np.isfinite(losses).all()

    one = data["1 GPU"]["base"]
    assert one[256].images_per_s > one[8].images_per_s  # rising curve
    multi = data["4 nodes x 4 GPUs"]["base"]
    assert multi[256].images_per_s > multi[8].images_per_s
    assert mb_o > 1.5 * mb_b
