"""Full out-of-core training: activations AND parameters beyond memory.

The previous demos made *activations* physically out-of-core
(``arena_out_of_core.py``); this one completes the picture.  A
VGG-scale model trains with:

* compressed activations in a budgeted :class:`ByteArena` (spill-to-disk
  overflow, read back when backward reaches the layer), and
* weights + SGD momentum in a :class:`ParamStore` whose arena budget is
  deliberately **smaller than the model's parameter footprint** — so the
  full training state can never be resident at once.  Weights are
  materialized just-in-time around each layer's forward/backward/update.

The result is bit-identical to resident training (the ParamStore
round-trip is lossless by construction) — the only cost is wall clock.

    python examples/full_out_of_core.py
"""

import os

from repro.api import (
    AdaptiveSpec,
    OptimizerSpec,
    SessionConfig,
    StorageSpec,
    build_session,
)
from repro.models import build_scaled_model
from repro.nn import SyntheticImageDataset, batches

ITERATIONS = int(os.environ.get("REPRO_EXAMPLE_ITERS", "20"))
BATCH = 16
ACT_BUDGET = 64 << 10  # 64 KiB for packed activations
PARAM_BUDGET = 64 << 10  # in-memory ceiling for weights + momentum


def main():
    dataset = SyntheticImageDataset(num_classes=8, image_size=32, signal=0.4, seed=7)
    net = build_scaled_model("vgg16", num_classes=8, image_size=32, rng=42)

    param_bytes = sum(p.size * 4 for p in net.parameters())
    state_bytes = 2 * param_bytes  # weights + momentum slots
    assert PARAM_BUDGET < param_bytes, "demo wants a budget below the footprint"

    cfg = SessionConfig(
        storage=StorageSpec(
            activations="arena", budget_bytes=ACT_BUDGET,
            params="arena", param_budget_bytes=PARAM_BUDGET,
        ),
        adaptive=AdaptiveSpec(W=10, warmup_iterations=3),
        optimizer=OptimizerSpec(lr=0.01, momentum=0.9, weight_decay=5e-4),
    )
    with build_session(net, cfg) as session:
        store = session.param_store
        print(
            f"model: vgg16-scaled, {param_bytes >> 10} KiB of weights "
            f"({state_bytes >> 10} KiB with momentum) under a "
            f"{PARAM_BUDGET >> 10} KiB parameter budget; "
            f"{ACT_BUDGET >> 10} KiB activation budget"
        )
        print(f"training {ITERATIONS} iterations (batch {BATCH})...")
        session.train(batches(dataset, BATCH, ITERATIONS, seed=1))

        arena = store.storage
        print(f"\nfinal loss: {session.history.losses[-1]:.3f}")
        print(
            f"activation memory reduction: {session.tracker.overall_ratio:.1f}x "
            "(physical serialized bytes)"
        )
        largest = max(p.size * 4 for p in net.parameters())
        print(
            f"param arena: peak in-memory {arena.peak_in_memory_nbytes >> 10} KiB "
            f"(FIFO budget {PARAM_BUDGET >> 10} KiB + largest entry "
            f"{largest >> 10} KiB transient), {arena.spill_count} spills"
        )
        assert arena.peak_in_memory_nbytes <= PARAM_BUDGET + largest
        print(
            f"param store: peak materialized {store.peak_materialized_nbytes >> 10} KiB "
            f"of {state_bytes >> 10} KiB total state "
            f"({store.fetch_count} fetches, {store.writeback_count} write-backs)"
        )
        act_arena = session.compressed.ctx.storage
        print(
            f"activation arena: {act_arena.spill_count} spills "
            f"({act_arena.spill_count / ITERATIONS:.1f} per step)"
        )
        peak_resident = store.peak_materialized_nbytes + arena.peak_in_memory_nbytes
        print(
            f"peak resident training state: {peak_resident >> 10} KiB "
            f"vs {state_bytes >> 10} KiB resident baseline "
            f"({state_bytes / peak_resident:.1f}x reduction)"
        )
        assert store.peak_materialized_nbytes < param_bytes
    # close() restored resident weights
    assert len(arena) == 0, "all parameter entries released"


if __name__ == "__main__":
    main()
