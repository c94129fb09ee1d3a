"""Benchmark regression gate: compare BENCH_*.json against a baseline.

The quick-mode benchmarks emit machine-readable metric documents
(``benchmarks/out/BENCH_<name>.json``, see ``_common.write_bench_json``).
This tool compares every *gated* metric against the matching baseline
document and fails (exit 1) when a metric regresses beyond its tolerance
band — by default 25% for throughput-class metrics, per-metric overrides
via the ``tolerance`` field.

Baselines live in two places:

* ``benchmarks/baselines/`` (committed): reference numbers from the
  development container.  Deterministic metrics (compression ratios,
  exact counters) are portable and tightly gated; wall-clock
  metrics carry wide bands because absolute speed is machine-dependent.
* a CI cache directory (``--baseline-dir``): CI seeds it with
  ``--update-baseline`` on the first run per runner class, then compares
  subsequent runs against numbers measured on the *same* hardware — the
  meaningful regression signal.

Gate semantics (which metrics are gated, their tolerance bands) are
taken from the *baseline* document, so an edit to the emitter cannot
silently disarm the guard judging it.  Quick-mode and full-mode numbers
are never compared against each other (the committed baselines are
quick-mode — produce comparable output with ``REPRO_BENCH_QUICK=1``);
such mismatches are skipped with a note, or fail under ``--strict``.

Usage::

    REPRO_BENCH_QUICK=1 python -m pytest benchmarks/bench_overhead.py ...
    python benchmarks/check_regression.py                 # compare
    python benchmarks/check_regression.py --update-baseline
    python benchmarks/check_regression.py --baseline-dir .bench-baseline
"""

import argparse
import json
import os
import shutil
import sys
from typing import List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT_DIR = os.path.join(HERE, "out")
DEFAULT_BASELINE_DIR = os.path.join(HERE, "baselines")
DEFAULT_TOLERANCE = 0.25


def load_docs(directory: str) -> dict:
    docs = {}
    if not os.path.isdir(directory):
        return docs
    for fname in sorted(os.listdir(directory)):
        if fname.startswith("BENCH_") and fname.endswith(".json"):
            with open(os.path.join(directory, fname)) as f:
                doc = json.load(f)
            docs[doc.get("name", fname)] = doc
    return docs


def compare(current: dict, baseline: dict, default_tol: float) -> Tuple[List[str], List[str]]:
    """Returns (failures, lines) for one benchmark document pair."""
    failures: List[str] = []
    lines: List[str] = []
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    # A gated metric that silently disappears is exactly the kind of
    # unmeasured regression the gate exists to catch.
    for key in sorted(set(base_metrics) - set(cur_metrics)):
        if base_metrics[key].get("gate", False):
            lines.append(f"    {key:32s} {'MISSING':>12s}  (gated in baseline) REGRESSION")
            failures.append(f"{current['name']}.{key}: gated metric vanished from output")
        else:
            lines.append(f"    {key:32s} {'missing':>12s}  (ungated in baseline)")
    for key, m in sorted(cur_metrics.items()):
        value = m["value"]
        base = base_metrics.get(key)
        if base is None:
            lines.append(f"    {key:32s} {value:>12.4g}  (new metric, no baseline)")
            continue
        ref = base["value"]
        # Gate semantics come from the BASELINE document: a commit that
        # flips gate=False or loosens tolerance in the emitter cannot
        # silently disarm the guard it is being judged by.
        if not base.get("gate", m.get("gate", False)):
            lines.append(f"    {key:32s} {value:>12.4g}  vs {ref:.4g} (ungated)")
            continue
        tol = base.get("tolerance", m.get("tolerance", default_tol))
        if base.get("higher_is_better", m.get("higher_is_better", True)):
            ok = ref == 0 or value >= ref * (1.0 - tol)
            direction = "-"
        else:
            ok = ref == 0 or value <= ref * (1.0 + tol)
            direction = "+"
        delta = (value / ref - 1.0) if ref else 0.0
        status = "ok" if ok else "REGRESSION"
        if not m.get("gate", False):
            status += " (gate downgraded in current emitter)"
        lines.append(
            f"    {key:32s} {value:>12.4g}  vs {ref:.4g} "
            f"({delta:+.1%}, band {direction}{tol:.0%}) {status}"
        )
        if not ok:
            failures.append(f"{current['name']}.{key}: {value:.4g} vs baseline {ref:.4g} ({delta:+.1%})")
    return failures, lines


def update_baseline(out_dir: str, baseline_dir: str) -> int:
    os.makedirs(baseline_dir, exist_ok=True)
    count = 0
    for fname in sorted(os.listdir(out_dir)):
        if fname.startswith("BENCH_") and fname.endswith(".json"):
            shutil.copyfile(os.path.join(out_dir, fname), os.path.join(baseline_dir, fname))
            count += 1
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default=DEFAULT_OUT_DIR,
                        help="directory with the freshly produced BENCH_*.json")
    parser.add_argument("--baseline-dir", default=DEFAULT_BASELINE_DIR,
                        help="directory with baseline BENCH_*.json documents")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="default regression band for gated metrics (fraction)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="copy current results into --baseline-dir and exit")
    parser.add_argument("--strict", action="store_true",
                        help="also fail when a benchmark has no baseline document")
    args = parser.parse_args(argv)

    if args.update_baseline:
        n = update_baseline(args.out_dir, args.baseline_dir)
        print(f"baseline updated: {n} document(s) -> {args.baseline_dir}")
        return 0 if n else 1

    current = load_docs(args.out_dir)
    baseline = load_docs(args.baseline_dir)
    if not current:
        print(f"no BENCH_*.json found in {args.out_dir}; run the quick benchmarks first")
        return 1

    failures: List[str] = []
    missing: List[str] = []
    for name, doc in current.items():
        base = baseline.get(name)
        print(f"{name} (quick={doc.get('quick')}):")
        if base is None:
            print("    no baseline document — skipped")
            missing.append(name)
            continue
        if base.get("quick") != doc.get("quick"):
            print("    baseline/current quick-mode mismatch — skipped")
            missing.append(name)
            continue
        fails, lines = compare(doc, base, args.tolerance)
        print("\n".join(lines))
        failures.extend(fails)

    print()
    if failures:
        print(f"REGRESSIONS ({len(failures)}):")
        for f in failures:
            print(f"  {f}")
        return 1
    if missing and args.strict:
        print(f"missing baselines for: {', '.join(missing)} (--strict)")
        return 1
    print(f"regression gate green ({len(current)} benchmark(s) checked"
          f"{', ' + str(len(missing)) + ' without baseline' if missing else ''})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
