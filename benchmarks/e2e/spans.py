"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer of the system: name, start, end,
the span that caused it, the step it belongs to, and the thread/pid it
ran on.  Spans are appended to a list while the run lasts and written
out once, when it ends (``trace.json``).  Nothing here imports
``repro``: the recorder only sees what the benchmark's wrappers around
public methods show it.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["SpanRecorder", "self_times", "layer_stage_table", "check_nesting"]


class SpanRecorder:
    """Collects spans from any thread; parents are tracked per thread."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self,
        name: str,
        *,
        step: Optional[int] = None,
        layer: Optional[str] = None,
        parent: Optional[int] = None,
    ) -> Iterator[Optional[dict]]:
        """Time one region.  *step* and *layer* default to the enclosing
        span's; *parent* overrides the per-thread parent (used to hang a
        hosted step under the ticket a client thread is waiting on)."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        top = stack[-1] if stack else None
        rec = {
            "id": 0,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": parent if parent is not None else (top["id"] if top else None),
            "step": step if step is not None else (top["step"] if top else None),
            "layer": layer if layer is not None else (top["layer"] if top else None),
            "thread": threading.get_ident(),
            "pid": self._pid,
        }
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def current_id(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1]["id"] if stack else None


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the part its same-thread children cover.

    A child on another thread (a hosted step under a client's ticket, a
    codec job on an engine worker) runs beside its parent, not inside
    it, so it is not subtracted."""
    by_id = {s["id"]: s for s in spans}
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        p = by_id.get(s["parent"])
        if p is not None and p["thread"] == s["thread"]:
            out[p["id"]] -= s["end"] - s["start"]
    return out


def layer_stage_table(spans: List[dict]) -> List[dict]:
    """The per-network-layer x stage table: self time and calls of every
    (layer, span name) pair, widest first."""
    selfs = self_times(spans)
    acc: Dict[tuple, list] = defaultdict(lambda: [0.0, 0])
    for s in spans:
        row = acc[(s["layer"] or "-", s["name"])]
        row[0] += selfs[s["id"]]
        row[1] += 1
    return [
        {"layer": layer, "stage": name, "self_ms": 1e3 * sec, "calls": calls}
        for (layer, name), (sec, calls) in sorted(acc.items(), key=lambda kv: -kv[1][0])
    ]


def check_nesting(spans: List[dict]) -> List[str]:
    """Problems with the span tree (empty = well formed): a same-thread
    child must lie inside its parent, a child shares its parent's step
    id, and every step id belongs to exactly one ``step`` span."""
    by_id = {s["id"]: s for s in spans}
    problems: List[str] = []
    step_spans: Dict[int, int] = defaultdict(int)
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} ({s['name']}) ends before it starts")
        if s["name"] == "step":
            step_spans[s["step"]] += 1
        p = by_id.get(s["parent"])
        if s["parent"] is not None and p is None:
            problems.append(f"span {s['id']} ({s['name']}) has unknown parent {s['parent']}")
        if p is None:
            continue
        if p["step"] is not None and s["step"] != p["step"]:
            problems.append(f"span {s['id']} ({s['name']}) left its parent's step")
        if p["thread"] == s["thread"] and not (
            p["start"] <= s["start"] and s["end"] <= p["end"]
        ):
            problems.append(f"span {s['id']} ({s['name']}) is not inside parent {p['id']}")
    for step, n in step_spans.items():
        if n != 1:
            problems.append(f"step id {step} has {n} step spans")
    return problems
