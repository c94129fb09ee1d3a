"""Shared helpers for the benchmark harness.

Every ``bench_*`` module regenerates one table or figure from the paper's
evaluation section and writes its rows to ``benchmarks/out/<name>.txt``
(stdout is captured by pytest unless ``-s`` is passed, so the files are
the durable record; EXPERIMENTS.md summarizes them).

Performance-bearing benchmarks additionally emit a machine-readable
``benchmarks/out/BENCH_<name>.json`` via :func:`write_bench_json` — the
record ``benchmarks/check_regression.py`` compares against a baseline so
CI can fail on throughput regressions instead of throwing the numbers
away.
"""

import json
import os
import platform
from typing import Dict, Iterable, Optional

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

#: schema version for the BENCH_*.json documents
BENCH_SCHEMA = 1


def write_report(name: str, lines: Iterable[str]) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}.txt")
    text = "\n".join(lines) + "\n"
    with open(path, "w") as f:
        f.write(text)
    print(text)
    return path


def metric(
    value: float,
    unit: str = "",
    higher_is_better: bool = True,
    gate: bool = False,
    tolerance: Optional[float] = None,
) -> dict:
    """One benchmark metric.

    ``gate=True`` marks it for the regression check; *tolerance* (a
    fraction, e.g. ``0.25`` = fail beyond a 25% regression) overrides the
    checker's default band.  Dimensionless, machine-relative metrics
    (speedups, deterministic compression ratios) make stable gates; raw
    wall-clock values are usually recorded ungated for the trajectory.
    """
    doc = {
        "value": float(value),
        "unit": unit,
        "higher_is_better": bool(higher_is_better),
        "gate": bool(gate),
    }
    if tolerance is not None:
        doc["tolerance"] = float(tolerance)
    return doc


def write_bench_json(name: str, metrics: Dict[str, dict], context: Optional[dict] = None) -> str:
    """Write ``benchmarks/out/BENCH_<name>.json`` for the regression gate."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"BENCH_{name}.json")
    doc = {
        "schema": BENCH_SCHEMA,
        "name": name,
        "quick": QUICK,
        "python": platform.python_version(),
        "metrics": metrics,
        "context": context or {},
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile (no interpolation, so a deterministic
    sample set gates deterministically); 0.0 on an empty sample set."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = int(round(pct / 100.0 * (len(ordered) - 1)))
    return float(ordered[max(0, min(len(ordered) - 1, rank))])


def latency_metrics(
    samples_seconds,
    prefix: str = "step_latency",
    gate: bool = False,
    tolerance: Optional[float] = None,
) -> Dict[str, dict]:
    """p50/p99 latency metrics (milliseconds) from per-operation samples.

    The shared shape for recording tail latency in a bench JSON:
    ``{<prefix>_p50_ms, <prefix>_p99_ms}``, lower-is-better.  Wall-clock
    latencies make noisy gates — gate them only with a wide *tolerance*
    band, and prefer deterministic counts for the tight gates.
    """
    out = {}
    for pct, key in ((50.0, "p50"), (99.0, "p99")):
        out[f"{prefix}_{key}_ms"] = metric(
            1e3 * percentile(samples_seconds, pct),
            unit="ms",
            higher_is_better=False,
            gate=gate,
            tolerance=tolerance,
        )
    return out


def group_summary_doc(tracker) -> list:
    """Per-policy-group memory accounting rows for a bench JSON context.

    Serializes ``MemoryTracker.group_summary()`` — one row per policy
    label with raw/stored bytes, pack count, and achieved ratio — so the
    regression record shows *where* the bytes went, not just the total.
    Sessions without policy rules have no groups: returns ``[]``.
    """
    rows = []
    for rec in tracker.group_summary():
        rows.append(
            {
                "group": rec.layer_name,
                "raw_bytes": int(rec.raw_bytes),
                "stored_bytes": int(rec.stored_bytes),
                "packs": int(rec.packs),
                "ratio": float(rec.ratio),
            }
        )
    return rows


def smooth_activation(rng, shape, sigma=1.5, relu=True):
    """Realistic conv activation sample: band-limited field (+ ReLU)."""
    import numpy as np
    from scipy.ndimage import gaussian_filter

    x = rng.standard_normal(shape)
    x = gaussian_filter(x, sigma=(0,) * (len(shape) - 2) + (sigma, sigma))
    x /= x.std() + 1e-12
    if relu:
        x = np.maximum(x, 0)
    return x.astype(np.float32)


#: CI-scale smoke mode shared by every benchmark that honors it
QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))

#: shared scale for the measured training runs (QUICK: CI smoke) —
#: bench_overhead and bench_fig11 must measure the same configuration
RUN_MODEL = "alexnet" if QUICK else "vgg16"
RUN_IMAGE = 16 if QUICK else 32
RUN_BATCH = 4 if QUICK else 16


#: the committed declarative setup every measured run starts from —
#: codec, adaptive knobs, and optimizer pinned in one reviewable file
RUN_CONFIG = os.path.join(os.path.dirname(__file__), "configs", "session.json")


def timed_run(model=RUN_MODEL, image_size=RUN_IMAGE, batch=RUN_BATCH, iters=6,
              param_budget=None):
    """One compressed-training run of the committed session config.

    Returns ``(seconds, losses, session)`` where *session* exposes the
    compressed-training internals (``tracker``, ``param_store``).  The
    setup is ``configs/session.json`` loaded through the :mod:`repro.api`
    front door, so the benchmarked workload is reproducible from a
    reviewable file.  Deterministically seeded: a run whose parameters
    live out-of-core must produce losses and tracker numbers
    bit-identical to the resident run.  ``param_budget`` (bytes) moves
    weights and optimizer slots into an arena-backed ``ParamStore`` with
    that in-memory budget — the full out-of-core regime.
    """
    import time

    from repro.api import SessionConfig, build_session
    from repro.models import build_scaled_model
    from repro.nn import SyntheticImageDataset, batches

    cfg = SessionConfig.from_json(RUN_CONFIG)
    if param_budget is not None:
        cfg.storage.params = "arena"
        cfg.storage.param_budget_bytes = param_budget

    net = build_scaled_model(model, num_classes=8, image_size=image_size, rng=42)
    session = build_session(net, cfg)
    dataset = SyntheticImageDataset(num_classes=8, image_size=image_size, signal=0.4, seed=7)
    t0 = time.perf_counter()
    session.train(batches(dataset, batch, iters, seed=1))
    elapsed = time.perf_counter() - t0
    session.close()
    return elapsed, session.history.losses, session
