"""Pipelined training: overlap compression with compute, for real.

The paper's performance claim is that activation compression costs
almost no wall-clock time because it is *overlapped* with training.
This example runs the same compressed training twice — once with the
synchronous engine (compress inline with every pack/unpack) and once
with the async engine (pack jobs run on a worker pool while the next
layer's forward computes; outstanding handles are prefetched in reverse
order ahead of backward) — and shows that the async run produces the
*bit-identical* losses and tracker numbers, only faster on multi-core
hosts.

    python examples/pipelined_training.py
"""

import os
import time

import numpy as np

from repro.api import (
    AdaptiveSpec,
    CodecSpec,
    EngineSpec,
    OptimizerSpec,
    SessionConfig,
    build_session,
)
from repro.models import build_scaled_model
from repro.nn import SyntheticImageDataset, batches

ITERATIONS = int(os.environ.get("REPRO_EXAMPLE_ITERS", "20"))
BATCH = 16


def run(engine):
    dataset = SyntheticImageDataset(num_classes=8, image_size=32, signal=0.4, seed=7)
    net = build_scaled_model("vgg16", num_classes=8, image_size=32, rng=42)
    cfg = SessionConfig(
        codec=CodecSpec("szlike", {"entropy": "zlib", "zero_filter": True}),
        engine=engine,
        adaptive=AdaptiveSpec(W=10, warmup_iterations=3),
        optimizer=OptimizerSpec(lr=0.01, momentum=0.9, weight_decay=5e-4),
    )
    with build_session(net, cfg) as session:
        t0 = time.perf_counter()
        session.train(batches(dataset, BATCH, ITERATIONS, seed=1))
        elapsed = time.perf_counter() - t0
    return elapsed, session


def main():
    print(f"training vgg16 (scaled) for {ITERATIONS} iterations (batch {BATCH})...\n")
    t_sync, sess_sync = run(EngineSpec(kind="sync"))
    print(f"sync engine : {t_sync:.2f}s "
          f"({sess_sync.tracker.overall_ratio:.1f}x activation reduction)")

    t_async, sess_async = run(EngineSpec(kind="async", workers=2, prefetch_depth=2))
    print(f"async engine: {t_async:.2f}s "
          f"({sess_async.tracker.overall_ratio:.1f}x activation reduction)")

    assert np.array_equal(sess_sync.history.losses, sess_async.history.losses), \
        "engines must match bit-for-bit"
    assert sess_sync.tracker.iteration_ratios == sess_async.tracker.iteration_ratios
    print("\nlosses and tracker numbers are bit-identical across engines")
    print(f"overlap speedup: {t_sync / t_async:.2f}x "
          f"(single-core hosts will show ~1.0x)")
    engine = sess_async.engine
    print(f"engine stats: {engine.packs_overlapped}/{engine.packs_submitted} packs "
          f"overlapped forward compute, "
          f"{engine.prefetch_hits}/{engine.prefetches_scheduled} unpacks served "
          "by reverse-order prefetch")


if __name__ == "__main__":
    main()
