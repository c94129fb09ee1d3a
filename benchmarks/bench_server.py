"""Multi-tenant session server: N tenants x M steps over one pool.

Measures the server subsystem end to end: a fleet of training tenants
(plus one uncompressed inference tenant) admitted from declarative
specs, stepped round-robin by the shared scheduler while their arenas
compete inside ONE :class:`~repro.core.arena.ArenaPool` budget sized
*below* the sum of tenant budgets, and their codecs share one codebook
table.

Records per run:

* **Step latency p50/p99** (enqueue -> done, across every tenant step)
  and fleet throughput — wall-clock, gated only with a wide band (CI
  compares per-runner cached baselines; absolute speed is
  machine-dependent).
* **Deterministic counters** — steps executed, tenants admitted, the
  admission rejection for the oversubscribing extra tenant, and
  cross-tenant codebook adoptions.  ``workers=1`` makes the drain order
  (and therefore every counter) deterministic, so these gate tightly.
* **Pool pressure** — resident/spilled bytes and forced cross-tenant
  spills under the shared budget (context, ungated: byte-level spill
  timing shifts with codec output sizes).

Finally asserts the determinism contract the server's sharing story
rests on: every training tenant's hosted losses are bit-identical to
the same spec run standalone through ``build_session``.

``REPRO_BENCH_QUICK=1`` shrinks the fleet and step count for CI.
"""

import time

import numpy as np

from _common import QUICK, latency_metrics, metric, write_bench_json, write_report
from repro.server import AdmissionError, SessionServer, load_server_config, run_standalone

STEPS = 4 if QUICK else 12
IMAGE = 12 if QUICK else 16
MODELS = ("alexnet", "alexnet", "alexnet") if QUICK else ("alexnet", "vgg16", "resnet18")
#: per-tenant declared arena budget; the pool is sized to half the sum
#: so the fleet *must* share (declared 3x, admitted under overcommit)
TENANT_BUDGET = 1 << 20


def fleet_config():
    tenants = [
        {
            "name": f"train-{i}-{model}",
            "kind": "train",
            "model": model,
            "image_size": IMAGE,
            "batch_size": 4,
            "seed": 100 + i,
            "session": {"storage": {"activations": "arena", "budget_bytes": TENANT_BUDGET}},
        }
        for i, model in enumerate(MODELS)
    ]
    tenants.append(
        {
            "name": "infer-0",
            "kind": "infer",
            "model": "alexnet",
            "image_size": IMAGE,
            "batch_size": 8,
            "seed": 200,
            "session": {"compress_activations": False},
        }
    )
    return {
        "server": {
            # Half the declared train budgets: tenants must share.
            "pool_budget_bytes": (len(MODELS) * TENANT_BUDGET) // 2,
            "overcommit": float(len(MODELS)),
            "admission": "reject",
            "workers": 1,
            "max_batch_requests": 1,
            "queue_depth": 4 * STEPS + 8,
        },
        "tenants": tenants,
    }


def run_fleet():
    import json

    spec, tenants = load_server_config(json.dumps(fleet_config()))
    with SessionServer(spec) as server:
        for t in tenants:
            server.admit(t)
        # One tenant past the overcommit line: must be rejected (the
        # admission counter below gates this deterministically).
        rejected = 0
        try:
            server.admit(
                {
                    "name": "over-budget",
                    "model": "alexnet",
                    "image_size": IMAGE,
                    "batch_size": 4,
                    "seed": 999,
                    "session": {
                        "storage": {
                            "activations": "arena",
                            "budget_bytes": len(MODELS) * TENANT_BUDGET,
                        }
                    },
                }
            )
        except AdmissionError:
            rejected = 1

        # Round-robin submission at step granularity (what server.run
        # does), but holding the tickets so the fleet-wide latency
        # sample set comes from the real enqueue->done times.
        names = [t.name for t in tenants]
        t0 = time.perf_counter()
        tickets = {n: [] for n in names}
        for _ in range(STEPS):
            for n in names:
                tickets[n].extend(server.submit(n, 1))
        results = {n: [tk.wait() for tk in ts] for n, ts in tickets.items()}
        wall = time.perf_counter() - t0
        latencies = [tk.latency_seconds for ts in tickets.values() for tk in ts]
        stats = server.stats()
    return tenants, results, stats, wall, rejected, latencies


def test_server_report(benchmark):
    out = benchmark.pedantic(run_fleet, rounds=1, iterations=1)
    tenants, results, stats, wall, rejected, latencies = out

    total_steps = sum(len(r) for r in results.values())
    for name, row in stats["tenants"].items():
        for key in ("latency_p50_ms", "latency_p99_ms"):
            assert key in row, f"{name}: scheduler recorded no latencies"

    adoptions = 0
    for row in stats["tenants"].values():
        cache = row.get("codebook_cache") or {}
        adoptions += sum((cache.get("adoptions_from") or {}).values())

    pool = stats["pool"]
    rows = [
        f"fleet: {len(tenants)} tenants x {STEPS} steps (workers=1), "
        f"pool {pool['budget_bytes']} B vs {pool['declared_bytes']} B declared",
        f"wall: {wall:.2f}s  ({total_steps / wall:.2f} steps/s)",
        f"pool: in-mem {pool['in_memory_nbytes']} B, spilled {pool['spilled_nbytes']} B, "
        f"forced spills {pool['forced_spill_count']} ({pool['forced_spill_bytes']} B)",
        f"codebook adoptions across tenants: {adoptions}",
        f"admission: {stats['admission']['admitted']} admitted, "
        f"{stats['admission']['rejected']} rejected",
    ]
    for name in sorted(stats["tenants"]):
        row = stats["tenants"][name]
        rows.append(
            f"  {name:18s} steps={row['steps_done']:3d} "
            f"p50={row['latency_p50_ms']:8.1f}ms p99={row['latency_p99_ms']:8.1f}ms"
        )

    # Determinism contract: hosted == standalone, bit for bit.
    for t in tenants:
        if t.kind != "train":
            continue
        hosted = [r["loss"] for r in results[t.name]]
        alone = [r["loss"] for r in run_standalone(t, STEPS)]
        assert hosted == alone, f"{t.name}: hosted losses diverged from standalone"
        assert np.isfinite(hosted[-1])
    rows.append("hosted training losses are bit-identical to standalone sessions")

    metrics = {
        # wall-clock: wide bands (per-runner CI baselines make them useful)
        **latency_metrics(latencies, prefix="step_latency", gate=True, tolerance=1.5),
        "steps_per_second": metric(total_steps / wall, "steps/s"),
        # deterministic with workers=1: tight gates
        "steps_executed": metric(total_steps, "steps", gate=True, tolerance=0.0),
        "tenants_admitted": metric(
            stats["admission"]["admitted"], "tenants", gate=True, tolerance=0.0
        ),
        "admission_rejected": metric(rejected, "tenants", gate=True, tolerance=0.0),
        "codebook_adoptions": metric(adoptions, "books", gate=True, tolerance=0.5),
        # pool pressure: recorded for the trajectory, ungated
        "pool_forced_spills": metric(pool["forced_spill_count"], "spills"),
        "pool_spilled_bytes": metric(pool["spilled_nbytes"], "B"),
    }

    write_report("server", rows)
    write_bench_json(
        "server",
        metrics,
        context={
            "steps": STEPS,
            "models": list(MODELS),
            "image_size": IMAGE,
            "tenant_budget_bytes": TENANT_BUDGET,
            "pool": pool,
            "admission": {
                k: v for k, v in stats["admission"].items() if k != "decisions"
            },
        },
    )
