"""Out-of-core training: compressed activations in a budgeted byte arena.

Trains the quickstart CNN with the paper's adaptive compression, but
holds every packed activation as a *serialized byte string* in a
:class:`ByteArena` with a deliberately tight in-memory budget — overflow
spills to disk and is read back when backpropagation needs it.  The
memory tracker therefore reports physically real bytes (the exact
serialized lengths), not accounting estimates, and the run demonstrates
the chunked parallel codec on the pack/unpack hot path.

Every pack, spill and read-back runs inline on the training thread
(README, "Execution model").

    python examples/arena_out_of_core.py
"""

import os

from repro.api import (
    AdaptiveSpec,
    CodecSpec,
    OptimizerSpec,
    SessionConfig,
    StorageSpec,
    build_session,
)
from repro.models import build_scaled_model
from repro.nn import SyntheticImageDataset, batches

ITERATIONS = int(os.environ.get("REPRO_EXAMPLE_ITERS", "40"))
BATCH = 32
BUDGET = 96 << 10  # 96 KiB in-memory arena: small enough to force spills


def main():
    dataset = SyntheticImageDataset(num_classes=8, image_size=32, signal=0.4, seed=7)
    net = build_scaled_model("alexnet", num_classes=8, image_size=32, rng=42)
    cfg = SessionConfig(
        codec=CodecSpec("chunked", {
            "inner": "szlike", "entropy": "zlib", "zero_filter": True,
            "workers": 4, "min_chunk_nbytes": 1 << 18,
        }),
        storage=StorageSpec(activations="arena", budget_bytes=BUDGET),
        adaptive=AdaptiveSpec(W=10, warmup_iterations=3),
        optimizer=OptimizerSpec(lr=0.01, momentum=0.9, weight_decay=5e-4),
    )

    print(f"training with a {BUDGET >> 10} KiB arena budget "
          f"for {ITERATIONS} iterations (batch {BATCH})...")
    with build_session(net, cfg) as session:
        session.train(batches(dataset, BATCH, ITERATIONS, seed=1))
        arena = session.compressed.ctx.storage
        assert len(arena) == 0, "all packed activations released"

    print(f"\nfinal loss: {session.history.losses[-1]:.3f}")
    print(f"activation memory reduction: {session.tracker.overall_ratio:.1f}x "
          "(physical serialized bytes)")
    print(f"arena peak in-memory: {arena.peak_in_memory_nbytes >> 10} KiB "
          f"(budget {BUDGET >> 10} KiB)")
    print(f"arena peak incl. disk: {arena.peak_total_nbytes >> 10} KiB")
    print(f"arena spills: {arena.spill_count} activations written to disk "
          f"({arena.spill_count / ITERATIONS:.1f} per step), each read back "
          "when backpropagation reached its layer")


if __name__ == "__main__":
    main()
