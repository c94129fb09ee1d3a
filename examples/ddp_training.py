"""Data-parallel training with compressed gradient exchange.

Builds a 2-rank session straight from the committed
``examples/configs/ddp_vgg.json`` — the whole distributed setup is the
``distributed`` section of the one config file::

    "distributed": {
        "world_size": 2,
        "grad_codec": {"options": {"error_bound": 0.001, "mode": "abs"}},
        "rank_arena_budget": 4194304
    }

``build_session`` spawns the rank processes behind the usual Session
surface: each rank owns a full single-worker stack (arena, param store,
adaptive controller) and ships its bounded-lossy-compressed gradients
to the coordinator every step; every rank applies the same bit-exact
reduced broadcast, so rank weights stay bit-identical — which this
script verifies, along with the exchange's compression ledger and the
error-feedback residual trajectory.

    python examples/ddp_training.py

Environment: ``REPRO_EXAMPLE_ITERS`` overrides the iteration count
(CI smoke runs use 2).
"""

import os

import numpy as np

from repro.api import SessionConfig, build_session
from repro.models import build_scaled_model
from repro.nn import SyntheticImageDataset, batches

ITERATIONS = int(os.environ.get("REPRO_EXAMPLE_ITERS", "20"))
BATCH = 16
CONFIG = os.path.join(os.path.dirname(__file__), "configs", "ddp_vgg.json")


def main():
    dataset = SyntheticImageDataset(num_classes=8, image_size=16, signal=0.5, seed=7)
    eval_x, eval_y = dataset.fixed_eval_set(128)

    net = build_scaled_model("vgg16", num_classes=8, image_size=16, rng=42)
    print(f"2-rank data-parallel training from {os.path.basename(CONFIG)} "
          f"({ITERATIONS} iterations, global batch {BATCH})...")
    with build_session(net, SessionConfig.from_json(CONFIG)) as session:
        session.train(batches(dataset, BATCH, ITERATIONS, seed=1))
        acc = session.evaluate(eval_x, eval_y)

        # every rank applied the same broadcast bytes every step
        w0, w1 = session.rank_weights(0), session.rank_weights(1)
        identical = all(np.array_equal(a, b) for a, b in zip(w0, w1))

        stats = session.grad_exchange_stats
        print(f"\nfinal loss: {session.history.losses[-1]:.3f}  "
              f"eval accuracy: {acc:.3f}")
        print(f"rank weights bit-identical: {identical}")
        for rank, rec in enumerate(stats["per_rank"]):
            norms = rec["residual_norms"]
            print(f"rank {rank}: uplink compression {rec['ratio']:.2f}x, "
                  f"EF residual RMS {norms[0]:.2e} -> {norms[-1]:.2e}")
        print(f"broadcast (lossless) compression: "
              f"{stats['downlink']['ratio']:.2f}x")

    # the trained weights live in the coordinator's network after close
    print(f"captured config reproduces the run: "
          f"{session.capture().to_dict() == session.config.to_dict()}")


if __name__ == "__main__":
    main()
