"""Names, units and bounds of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root is the one place they are
written down; later issues cite the names verbatim.
"""

from __future__ import annotations

import json
import os

__all__ = ["END_TO_END", "GATED", "ON_PATH", "PER_LAYER", "RUN_SECONDS", "WORKLOADS", "on_path"]

_HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(os.path.dirname(_HERE)), "BENCHMARK.json")) as _f:
    _BENCH = json.load(_f)
with open(os.path.join(_HERE, "configs", "workloads.json")) as _f:
    _BOOK = json.load(_f)

#: the workloads ``BENCHMARK.json`` lists: single-process, gated
GATED = tuple(w["name"] for w in _BENCH["workloads"])

#: every workload the runner knows, the gated ones first.  ``ddp2`` and
#: ``server_hosted`` run by name and under ``--workload all`` but are
#: not gated: three processes or four threads on this two-core host do
#: not repeat within any permitted bound (README, "Which workloads are
#: gated")
WORKLOADS = tuple(_BOOK["workloads"])

#: the window the committed step counts are sized for; they scale with
#: ``--seconds`` over this
RUN_SECONDS = _BENCH["run_seconds"]

#: (name, unit, better, bound): bound is the relative worsening of the
#: parent's median that counts as a regression
END_TO_END = tuple((m["name"], m["unit"], m["better"], m["bound"]) for m in _BENCH["end_to_end"])

#: (name, unit, better), ungated.  A layer that is off a workload's path
#: reports 0 there: that it does no work is the measurement.
PER_LAYER = tuple((m["name"], m["unit"], m["better"]) for m in _BENCH["per_layer"])

#: metric-name prefix -> workloads on which that layer does work, most
#: specific prefix first.  Elsewhere the prediction is a flat 0.
ON_PATH = (
    ("nn.data_ms", WORKLOADS),
    ("nn.", ("train_raw", "train_sz", "train_ooc", "server_hosted")),
    ("compression.max_err_over_bound", ("train_sz", "train_ooc", "server_hosted")),
    ("compression.codebook.", ("train_sz", "train_ooc", "server_hosted")),
    ("compression.", ("train_sz", "train_ooc", "ddp2", "server_hosted")),
    ("kernels.", ("train_sz", "train_ooc", "server_hosted")),
    ("core.engine.", ("train_ooc",)),
    ("core.arena.", ("train_ooc", "server_hosted")),
    ("core.param_store.", ("train_ooc",)),
    ("core.", ("train_sz", "train_ooc", "server_hosted")),
    ("distributed.", ("ddp2",)),
    ("server.", ("server_hosted",)),
    ("", WORKLOADS),
)


def on_path(metric: str, workload: str) -> bool:
    """Does *workload* exercise the layer *metric* belongs to?"""
    return workload in next(w for prefix, w in ON_PATH if metric.startswith(prefix))
