#!/usr/bin/env python3
"""The end-to-end benchmark: five closed-loop training workloads.

    python3 benchmarks/e2e/run.py --workload all            # every metric, every check
    python3 benchmarks/e2e/run.py --workload train_sz --seed 3 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --workload train_ooc --trace 1   # per-layer + trace.json

Each workload runs in fresh ``worker.py`` processes, one after another:
the extra set-up samples first, then the measured run.  ``BENCHMARK.json``
lists the three single-process workloads, which are gated; ``ddp2`` and
``server_hosted`` run by name and under ``all``, ungated.  ``--trace 0``
reports the seven end-to-end metrics.  ``--trace 1`` runs the workload
twice at a quarter of the steps — untraced, then with the benchmark's
wrappers and the program's stage profiler on — and reports the
per-layer metrics; the ratio of the two step medians is the tracing
overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when a check failed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(ROOT, "benchmarks", "out", "e2e")

sys.path.insert(0, HERE)
from metrics import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS  # noqa: E402


def worker_env(tmp: str) -> dict:
    """BLAS pinned to one thread before numpy loads; temporary files
    (arena spill directories, codebook segments) inside the checkout."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = tmp
    env["PYTHONWARNINGS"] = "ignore::DeprecationWarning"
    return env


def run_worker(args, workload: str, out_name: str, *extra: str) -> dict:
    """One fresh worker process; returns its result file's content."""
    out_dir = os.path.join(OUT, workload)
    out_path = os.path.join(out_dir, out_name)
    tmp = os.path.join(out_dir, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--out", out_path, *extra,
    ]  # fmt: skip
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, env=worker_env(tmp), cwd=ROOT, timeout=170)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    with open(out_path) as f:
        return json.load(f)


def run_workload(args, workload: str, setup_samples: int) -> dict:
    """All processes of one workload, strictly one after another."""
    if not args.trace:
        setups = [
            run_worker(args, workload, f"setup{i}.json", "--phase", "setup")["end_to_end"][
                "setup_s"
            ]["value"]
            for i in range(setup_samples - 1)
        ]
        result = run_worker(args, workload, "untraced.json")
        setups.append(result["end_to_end"]["setup_s"]["value"])
        # the fastest of the fresh processes: the host only ever adds time
        result["end_to_end"]["setup_s"].update(value=min(setups), samples=len(setups))
        result["details"]["setup_samples_s"] = setups
        return result

    # per-layer: the same workload at a quarter of the steps, twice
    plain = run_worker(args, workload, "quarter_untraced.json", "--quarter", "--timing-only")
    traced = run_worker(args, workload, "quarter_traced.json", "--quarter", "--trace", "1")
    pl = traced["per_layer"]
    ms = sorted(plain["step_ms"])
    if ms:
        q = statistics.quantiles(ms, n=20, method="inclusive") if len(ms) > 1 else ms * 19
        pl["step.p25_ms"], pl["step.p90_ms"], pl["step.min_ms"] = q[4], q[17], ms[0]
        pl["step.boundary_extra_ms"] = plain["per_layer"].get("step.boundary_extra_ms", 0.0)
        p50 = [r["end_to_end"].get("step_ms_p50", {}).get("value") for r in (traced, plain)]
        if all(p50):
            pl["trace.overhead_x"] = p50[0] / p50[1]
    # both runs must be clean; the end-to-end view of a traced
    # invocation is the untraced quarter run's
    traced["end_to_end"] = plain["end_to_end"]
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["checks"].update({f"untraced_{k}": v for k, v in plain["checks"].items()})
    traced["correct"] = traced["correct"] and plain["correct"]
    if pl.get("trace.unaccounted_frac", 0.0) > 0.10:
        print(
            f"warning: {workload}: {pl['trace.unaccounted_frac']:.1%} of step time is in no span",
            file=sys.stderr,
        )
    return traced


def final_metrics(result: dict, trace: bool) -> dict:
    """Exactly the metrics BENCHMARK.json lists for this mode."""
    if trace:
        return {
            name: {"value": float(result["per_layer"].get(name, 0.0)), "unit": unit}
            for name, unit, _ in PER_LAYER
        }
    return {
        name: {"value": result["end_to_end"][name]["value"], "unit": unit}
        for name, unit, _, _ in END_TO_END
    }


def print_summary(workload: str, result: dict, trace: bool) -> None:
    ctx = result["context"]
    print(
        f"\n== {workload}  seed={result['seed']}  [{ctx['host_label']}, kernels="
        f"{ctx.get('kernel_backend')}, load {ctx['loadavg_1m_at_start']:.2f}"
        f"{', NOISY HOST' if ctx['noisy_host'] else ''}]"
    )
    print(f"   attempted={result['attempted']}  failed={result['failed']}")
    if trace:
        for name, unit, better in PER_LAYER:
            print(f"   {name:42s} {result['per_layer'].get(name, 0.0):16.6g} {unit:6s} ({better} is better)")
    else:
        for name, unit, better, bound in END_TO_END:
            m = result["end_to_end"].get(name)
            value = f"{m['value']:14.4f}" if m else "       missing"
            n = m["samples"] if m else 0
            print(f"   {name:22s} {value} {unit:6s} bound {bound:.2f}  n={n:<4d} ({better} is better)")
        whole = result["details"].get("whole_window")
        if whole:
            print(
                "   whole window, ungated: step_ms_p50 {step_ms_p50:.4f}  images_per_s {images_per_s:.4f}"
                "  cpu_ms_per_step {cpu_ms_per_step:.4f}  n={ops}".format(**whole)
            )
    for name, ok in sorted(result["checks"].items()):
        print(f"   check {name:48s} {'ok' if ok else 'FAILED'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", default="all", help="'all', or names from %s separated by commas" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1, help="drives data, batch order and tenant seeds")
    ap.add_argument("--seconds", type=float, default=float(RUN_SECONDS), help="nominal window; step counts scale up with it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="3 timed steps per workload")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "configs", "workloads.json")) as f:
        book = json.load(f)

    # byte-compile before any clock starts, so no run pays for it
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src"), HERE], check=True
    )

    t0 = time.perf_counter()
    results = {}
    for name in names:
        samples = book["workloads"][name]["setup_samples"]
        results[name] = run_workload(args, name, min(samples, 2) if args.smoke else samples)
        print_summary(name, results[name], bool(args.trace))

    cross = {}
    if "train_sz" in results and "train_ooc" in results and not args.trace:
        sz, ooc = results["train_sz"]["losses"], results["train_ooc"]["losses"]
        n = min(len(sz), len(ooc))  # the two windows need not be equally long
        cross["train_ooc_losses_equal_train_sz"] = n > 0 and sz[:n] == ooc[:n]
    if "train_sz" in results and "train_raw" in results and not args.trace:
        ratio = (
            results["train_sz"]["end_to_end"]["step_ms_p50"]["value"]
            / results["train_raw"]["end_to_end"]["step_ms_p50"]["value"]
        )
        print(f"\noverhead_vs_raw_x = {ratio:.3f}  (train_sz/step_ms_p50 over train_raw/step_ms_p50, ungated)")
    for name, ok in cross.items():
        print(f"cross-check {name}: {'ok' if ok else 'FAILED'}")
    print(f"total {time.perf_counter() - t0:.1f} s")

    correct = all(r["correct"] for r in results.values()) and all(cross.values())
    summary = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "correct": correct,
        "cross_checks": cross,
        "workloads": results,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "result.json"), "w") as f:
        json.dump(summary, f, indent=1)

    if len(names) == 1:
        metrics = final_metrics(results[names[0]], bool(args.trace))
    else:
        metrics = {
            f"{w}/{k}": v for w in names for k, v in final_metrics(results[w], bool(args.trace)).items()
        }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
