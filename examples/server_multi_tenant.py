"""Multi-tenant session server: one memory budget, many sessions.

Hosts the committed fleet ``configs/server_tenants.json`` — three
training tenants (alexnet / vgg16 / resnet18, each with its own codec
and arena budget) plus one uncompressed inference tenant — over ONE
shared 4 MB :class:`~repro.core.arena.ArenaPool` budget, although the
tenants *declare* 8 MB between them.  The pool's fair cross-tenant
spill keeps every tenant inside the shared budget; the shared codebook
table lets later tenants adopt the Huffman books earlier tenants
built; and the step scheduler interleaves everyone's steps round-robin
over a small worker pool.

The punchline is the determinism contract: after N concurrent steps,
every training tenant's losses are bit-identical to running the same
spec standalone through ``build_session`` — sharing moves bytes and
amortizes codebook builds, but never changes results.

    python examples/server_multi_tenant.py
"""

import os

from repro.server import SessionServer, load_server_config, run_standalone, serve

STEPS = int(os.environ.get("REPRO_EXAMPLE_ITERS", "10"))
FLEET = os.path.join(os.path.dirname(__file__), "configs", "server_tenants.json")


def main():
    spec, tenants = load_server_config(FLEET)
    declared = sum(t.declared_bytes for t in tenants)
    print(
        f"fleet: {len(tenants)} tenants declaring {declared >> 20} MB over a "
        f"{spec.pool_budget_bytes >> 20} MB pool (overcommit {spec.overcommit}x)\n"
    )

    with SessionServer(spec) as server:
        for t in tenants:
            handle = server.admit(t)
            print(f"  admit {t.name:15s} [{t.kind}] -> {handle.state}")

        # The HTTP endpoint runs alongside; poke it like an operator would.
        with serve(server) as endpoint:
            print(f"\nmetrics endpoint: {endpoint.url}/stats")
            results = server.run(steps=STEPS)

        stats = server.stats()
        pool = stats["pool"]
        print(f"\nafter {STEPS} steps/tenant:")
        print(
            f"  pool: {pool['in_memory_nbytes']} bytes resident of "
            f"{pool['budget_bytes']} budget, {pool['spilled_nbytes']} spilled, "
            f"{pool['forced_spill_count']} cross-tenant forced spills"
        )
        for name, row in stats["tenants"].items():
            line = f"  {name:15s} steps={row['steps_done']}"
            if "latency_p50_ms" in row:
                line += (
                    f" p50={row['latency_p50_ms']:.1f}ms"
                    f" p99={row['latency_p99_ms']:.1f}ms"
                )
            cache = row.get("codebook_cache") or {}
            if cache.get("adoptions_from"):
                line += f" adopted-from={cache['adoptions_from']}"
            print(line)

        # Determinism: hosted == standalone, bit for bit.
        for t in tenants:
            if t.kind != "train":
                continue
            hosted = [r["loss"] for r in results[t.name]]
            alone = [r["loss"] for r in run_standalone(t, STEPS)]
            assert hosted == alone, f"{t.name}: hosted diverged from standalone"
        print("\ntraining tenants are bit-identical to standalone sessions")


if __name__ == "__main__":
    main()
