"""Mixed per-layer compression policies from one committed JSON config.

The front door in action: ``configs/mixed_policy_vgg.json`` declares a
session where different VGG-16 layer groups get different treatment —

* ``l0``/``l2`` (early convs): a *fixed* tight error bound (5e-4) with
  a codebook-caching SZ codec,
* ``l5``/``l7`` (middle convs): sparsity-aware lossless compression,
* ``l10``/``l12`` (late convs): batch-chunked parallel SZ with a
  loosened adaptive clamp (eb_max=0.05),
* everything else: the session default (adaptive SZ + Huffman),

all packed into a byte arena under an 8 MB budget.  The same dict also
round-trips through
``SessionConfig.to_json``/``from_json`` unchanged, so committing the
file pins the run.

    python examples/mixed_policy_session.py

Environment: ``REPRO_EXAMPLE_ITERS`` overrides the iteration count
(CI smoke runs use 2).
"""

import os

from repro.api import SessionConfig, build_session
from repro.models import build_scaled_model
from repro.nn import SyntheticImageDataset, batches

CONFIG = os.path.join(os.path.dirname(__file__), "configs", "mixed_policy_vgg.json")
ITERATIONS = int(os.environ.get("REPRO_EXAMPLE_ITERS", "30"))
BATCH = 8


def main():
    cfg = SessionConfig.from_json(CONFIG)
    print(f"loaded {os.path.basename(CONFIG)}: "
          f"{len(cfg.rules)} policy rules, "
          f"arena budget {cfg.storage.budget_bytes >> 20} MB")

    net = build_scaled_model("vgg16", num_classes=8, image_size=16, rng=42)
    dataset = SyntheticImageDataset(num_classes=8, image_size=16, signal=0.4, seed=7)

    with build_session(net, cfg) as session:
        print(f"training VGG-16 (scaled) for {ITERATIONS} iterations (batch {BATCH})...")
        session.train(batches(dataset, BATCH, ITERATIONS, seed=1))

        print(f"\noverall activation compression: {session.tracker.overall_ratio:.1f}x")
        print("\nper-rule accounting (MemoryTracker.group_summary):")
        for rec in session.tracker.group_summary():
            print(f"  {rec.layer_name:14s} {rec.packs:4d} packs   "
                  f"{rec.raw_bytes / 1e6:7.1f} MB raw -> "
                  f"{rec.stored_bytes / 1e6:7.1f} MB stored   ({rec.ratio:4.1f}x)")

        print("\nper-layer error bounds (rule-pinned layers stay fixed):")
        table = session.policy_table
        for name, eb in sorted(session.error_bounds.items()):
            print(f"  {name:6s} [{table.group_of(name):14s}] eb = {eb:9.3e}")


if __name__ == "__main__":
    main()
