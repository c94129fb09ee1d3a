"""Quickstart: train a small CNN with adaptive activation compression.

Runs the same workload twice — plain baseline training and training
through the declarative front door (:func:`repro.api.build_session`) —
and reports accuracy plus the activation-memory reduction the
compressor delivered.

The whole framework is one config object::

    from repro.api import SessionConfig, AdaptiveSpec, build_session

    cfg = SessionConfig(adaptive=AdaptiveSpec(W=20, warmup_iterations=3))
    with build_session(network, cfg) as session:
        session.train(batches(dataset, 32, iterations, seed=1))
        print(session.tracker.overall_ratio)

``cfg.to_json(path)`` commits the exact run to a file;
``SessionConfig.from_json(path)`` reproduces it bit-for-bit.

    python examples/quickstart.py

Environment: ``REPRO_EXAMPLE_ITERS`` overrides the iteration count
(CI smoke runs use 2).
"""

import os

from repro.api import AdaptiveSpec, SessionConfig, build_session
from repro.models import build_scaled_model
from repro.nn import SGD, SyntheticImageDataset, Trainer, batches

ITERATIONS = int(os.environ.get("REPRO_EXAMPLE_ITERS", "80"))
BATCH = 32


def main():
    dataset = SyntheticImageDataset(num_classes=8, image_size=32, signal=0.4, seed=7)
    eval_x, eval_y = dataset.fixed_eval_set(384)

    print(f"training scaled AlexNet for {ITERATIONS} iterations (batch {BATCH})...")
    base_net = build_scaled_model("alexnet", num_classes=8, image_size=32, rng=42)
    base_trainer = Trainer(base_net, SGD(base_net.parameters(), lr=0.01, momentum=0.9,
                                         weight_decay=5e-4))
    base_trainer.train(batches(dataset, BATCH, ITERATIONS, seed=1))
    base_acc = base_trainer.evaluate(eval_x, eval_y)

    # W is scaled down from the paper's 1000 because we run 80
    # iterations, not 200k; everything else is the paper's defaults.
    cfg = SessionConfig(adaptive=AdaptiveSpec(W=20, warmup_iterations=3))
    cfg.optimizer.weight_decay = 5e-4
    net = build_scaled_model("alexnet", num_classes=8, image_size=32, rng=42)
    with build_session(net, cfg) as session:
        session.train(batches(dataset, BATCH, ITERATIONS, seed=1))
        comp_acc = session.evaluate(eval_x, eval_y)

        print(f"\nbaseline   accuracy: {base_acc:.3f}")
        print(f"compressed accuracy: {comp_acc:.3f}")
        print(f"activation memory reduction: {session.tracker.overall_ratio:.1f}x")
        print("\nper-layer adaptive error bounds (Eq. 9):")
        for name, eb in sorted(session.error_bounds.items()):
            ratio = session.compression_ratios.get(name, float("nan"))
            print(f"  {name:24s} eb = {eb:9.3e}   ratio = {ratio:5.1f}x")


if __name__ == "__main__":
    main()
