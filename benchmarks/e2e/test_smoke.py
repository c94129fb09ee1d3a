"""Smoke test of the end-to-end benchmark (``python -m pytest benchmarks/e2e -q``).

Two ``--smoke`` invocations (3 timed steps per workload): a traced one
over all five workloads for the per-layer metrics and ``trace.json``,
and an untraced one, the path the driver runs, over the three gated
workloads, which also cross-check each other.
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(ROOT, "benchmarks", "out", "e2e")
sys.path.insert(0, HERE)

from metrics import END_TO_END, GATED, PER_LAYER, WORKLOADS, on_path  # noqa: E402
from spans import check_nesting  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_smoke(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT, "result.json")) as f:
        return last, json.load(f), proc.stdout


@pytest.fixture(scope="module")
def smoke():
    return run_smoke("--workload", "all", "--trace", "1")[:2]


def test_untraced_invocation_reports_the_end_to_end_metrics():
    names = list(GATED)
    last, result, stdout = run_smoke("--workload", ",".join(names), "--trace", "0")
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {f"{w}/{name}" for w in names for name, *_ in END_TO_END}
    for key, m in last["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, key
    assert result["cross_checks"] == {"train_ooc_losses_equal_train_sz": True}
    assert "overhead_vs_raw_x" in stdout
    setup = result["workloads"]["train_raw"]["end_to_end"]["setup_s"]
    samples = result["workloads"]["train_raw"]["details"]["setup_samples_s"]
    assert setup["samples"] == len(samples) == 2 and setup["value"] == min(samples)
    assert result["workloads"]["train_sz"]["checks"]["losses_track_train_raw"]


def test_last_line_has_every_per_layer_metric(smoke):
    last, _ = smoke
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = {f"{w}/{name}" for w in WORKLOADS for name, _, _ in PER_LAYER}
    assert set(last["metrics"]) == expected
    assert all(math.isfinite(m["value"]) for m in last["metrics"].values())


def test_every_end_to_end_cell_is_positive(smoke):
    _, result = smoke
    assert list(result["workloads"]) == list(WORKLOADS)
    for workload, res in result["workloads"].items():
        assert res["correct"], (workload, res["checks"])
        for name, unit, _, _ in END_TO_END:
            cell = res["end_to_end"][name]
            assert cell["unit"] == unit
            assert math.isfinite(cell["value"]) and cell["value"] > 0, (workload, name, cell)


def test_per_layer_metrics_follow_the_path_table(smoke):
    _, result = smoke
    for workload, res in result["workloads"].items():
        emitted = res["per_layer"]
        for name, _, _ in PER_LAYER:
            if on_path(name, workload):
                assert name in emitted, (workload, name)
                assert math.isfinite(emitted[name]), (workload, name)
            else:
                assert emitted.get(name, 0.0) == 0.0, (workload, name)
        for name in ("trace.overhead_x", "step.min_ms", "api.build_ms"):
            assert emitted[name] > 0, (workload, name)
    layers = result["workloads"]
    assert layers["train_ooc"]["per_layer"]["core.arena.spills_per_step"] > 0
    assert layers["train_ooc"]["per_layer"]["core.param_store.fetches_per_step"] > 0
    assert layers["ddp2"]["per_layer"]["distributed.uplink_bytes_per_step"] > 0
    assert layers["server_hosted"]["per_layer"]["server.forced_spills"] > 0
    assert layers["train_sz"]["per_layer"]["compression.max_err_over_bound"] <= 1.0 + 1e-5


def test_names_are_well_formed():
    names = [n for n, *_ in END_TO_END] + [n for n, *_ in PER_LAYER] + list(WORKLOADS)
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    assert GATED == WORKLOADS[:3] == ("train_raw", "train_sz", "train_ooc")
    assert (len(WORKLOADS), len(END_TO_END)) == (5, 7)


def test_trace_spans_nest(smoke):
    for workload in WORKLOADS:
        with open(os.path.join(OUT, workload, "trace.json")) as f:
            trace = json.load(f)
        spans = trace["spans"]
        assert spans and trace["layer_stage_table"]
        assert check_nesting(spans) == []
        steps = [s["step"] for s in spans if s["name"] == "step"]
        assert len(steps) == len(set(steps)) >= 3


def test_benchmark_reads_no_private_attribute():
    """The benchmark measures from outside: no ``obj._name`` except on
    ``self``, and nothing underscore-named imported from ``repro``."""
    private_access = re.compile(r"(?<![A-Za-z0-9_])(?!self\b)[A-Za-z_][A-Za-z0-9_]*\)?\._[A-Za-z]")
    private_import = re.compile(r"from\s+repro\S*\s+import\s+.*\b_[A-Za-z]")
    for fname in sorted(os.listdir(HERE)):
        if not fname.endswith(".py") or fname == os.path.basename(__file__):
            continue
        with open(os.path.join(HERE, fname)) as f:
            for lineno, line in enumerate(f, 1):
                code = line.split("#", 1)[0]
                assert not private_access.search(code), f"{fname}:{lineno}: {line.strip()}"
                assert not private_import.search(code), f"{fname}:{lineno}: {line.strip()}"
