"""One workload, one fresh process.

``run.py`` starts this file once per sample (``--phase setup`` for the
extra set-up samples, ``--phase full`` for the measured run).  The
process drives the system only through its front doors —
``SessionConfig.from_json`` + ``build_session`` and
``load_server_config`` + ``SessionServer`` — times the calls from
outside, checks the outputs, and writes one JSON result file.

Order of a full run: set-up (clocked: ``import repro``, data + model,
session or server + admission, the first warm-up steps) -> ``gc.collect``
-> the timed window, a closed loop (the trainer issues step *i+1* when
step *i* has returned; each hosted tenant has one ticket outstanding)
-> counters read -> correctness checks, all outside the window.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import statistics
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np
import scipy  # noqa: F401  -- imported before the set-up clock starts, like numpy

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, "configs")
sys.path.insert(0, HERE)
from layers import (  # noqa: E402  -- neither module imports repro before the set-up clock
    CodecProbe,
    instrument_session,
    kernel_throughputs,
    session_arenas,
    session_codec,
    span_ms_per_step,
)
from metrics import RUN_SECONDS  # noqa: E402
from spans import SpanRecorder, check_nesting, layer_stage_table, self_times  # noqa: E402

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: a compressed run's loss may leave the raw run's on the same inputs by
#: this share over the first steps, where the loss falls from ~4 to
#: ln 8 and so follows the gradients (0.3% at most over eight seeds at
#: HEAD; later the two runs drift apart as any two trajectories do)
TRACK_STEPS, TRACK_TOL = 8, 0.02


# ---------------------------------------------------------------------------
# Process accounting, read from /proc so that rank processes count too
# ---------------------------------------------------------------------------


def _live_pids() -> List[int]:
    return [os.getpid()] + [p.pid for p in multiprocessing.active_children() if p.pid]


def pid_cpu_seconds(pid: int) -> float:
    """user+sys CPU seconds of one process (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def cpu_seconds_by_pid() -> Dict[int, float]:
    """user+sys CPU seconds of this process and each live child."""
    return {pid: pid_cpu_seconds(pid) for pid in _live_pids()}


def peak_rss_mib() -> float:
    """Sum of VmHWM over this process and its live children."""
    total_kib = 0
    for pid in _live_pids():
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024.0


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


class Window:
    """Wall-clock and CPU stamps at the start of the timed window and at
    the end of every operation in it.

    This host has two speeds: user code runs either at its normal pace
    or 1.4-1.7x slower, for periods of half a second to minutes (a
    neighbour on the same core; CPU time inflates with wall time, so it
    is not descheduling), and during a spell a 30 s window may hold only
    a handful of undisturbed steps.  Whole-window medians and means of
    identical code then differ by up to a half from run to run, so the three
    gated timing metrics estimate the *undisturbed* window instead:
    rounds are ranked by wall time and the three fastest stand for the
    rest.  A round is one step, or one ticket of each hosted tenant, so
    the mix inside a round is fixed.  Rounds in which the program
    re-assessed its error bounds are ranked among themselves and enter
    the two mean-based metrics at their own weight, so what such a step
    costs stays in them.  The whole-window values and every stamp are
    kept beside them, ungated.
    """

    #: the rounds of a class that stand for all of it
    KEEP = 3

    def __init__(self) -> None:
        self.children = [p.pid for p in multiprocessing.active_children() if p.pid]
        self.stamps: List[tuple] = []
        self.values_ms: List[float] = []
        self.images: List[int] = []
        self.boundary: List[bool] = []
        self._lock = threading.Lock()

    def _cpu(self) -> float:
        return time.process_time() + sum(map(pid_cpu_seconds, self.children))

    def start(self) -> None:
        self.stamps.append((time.perf_counter(), self._cpu()))

    def done(self, value_ms: float, images: int, boundary: bool = False) -> None:
        """One operation finished now (any thread)."""
        with self._lock:
            self.stamps.append((time.perf_counter(), self._cpu()))
            self.values_ms.append(value_ms)
            self.images.append(images)
            self.boundary.append(boundary)

    def timing(self, out: "Outcome", group: int = 1) -> None:
        """Round *r* is operations ``r*group .. (r+1)*group - 1`` and
        lasts from the stamp before its first operation to the stamp of
        its last."""
        rounds = len(self.values_ms) // group
        if rounds == 0:
            return
        ops = rounds * group
        wall = [self.stamps[(r + 1) * group][0] - self.stamps[r * group][0] for r in range(rounds)]
        cpu = [self.stamps[(r + 1) * group][1] - self.stamps[r * group][1] for r in range(rounds)]

        def fastest(members: List[int]) -> List[int]:
            return sorted(sorted(members, key=wall.__getitem__)[: self.KEEP])

        quiet = fastest(list(range(rounds)))
        quiet_ops = [i for r in quiet for i in range(r * group, (r + 1) * group)]
        boundary = [any(self.boundary[r * group : (r + 1) * group]) for r in range(rounds)]
        classes = [[r for r in range(rounds) if boundary[r] == flag] for flag in (False, True)]
        kept = [(members, fastest(members)) for members in classes if members]
        # each class at its own weight: its rounds times its undisturbed mean
        est_wall = sum(len(m) * statistics.fmean(wall[r] for r in q) for m, q in kept)
        est_cpu = sum(len(m) * statistics.fmean(cpu[r] for r in q) for m, q in kept)
        mean_ops = group * sum(len(q) for _, q in kept)
        e2e = out.end_to_end
        e2e["step_ms_p50"] = metric(
            statistics.median(self.values_ms[i] for i in quiet_ops), "ms", len(quiet_ops)
        )
        e2e["images_per_s"] = metric(sum(self.images[:ops]) / est_wall, "img/s", mean_ops)
        e2e["cpu_ms_per_step"] = metric(1e3 * est_cpu / ops, "ms", mean_ops)
        out.details["fastest_rounds"] = {"pooled": quiet, "by_class": [q for _, q in kept]}
        whole_wall = self.stamps[ops][0] - self.stamps[0][0]
        out.details["whole_window"] = {
            "ops": ops,
            "wall_s": whole_wall,
            "step_ms_p50": statistics.median(self.values_ms[:ops]),
            "images_per_s": sum(self.images[:ops]) / whole_wall,
            "cpu_ms_per_step": 1e3 * (self.stamps[ops][1] - self.stamps[0][1]) / ops,
        }
        out.details["stamps_wall_cpu_s"] = self.stamps


# ---------------------------------------------------------------------------
# Workload definition
# ---------------------------------------------------------------------------


def load_plan(args) -> dict:
    """The workload's committed definition plus this run's step counts."""
    with open(os.path.join(CONFIGS, "workloads.json")) as f:
        book = json.load(f)
    wl = dict(book["workloads"][args.workload])
    if args.smoke:
        steps = book["smoke_steps"]
    else:
        # the committed counts are the floor; a longer run scales them up
        steps = max(wl["steps"], round(wl["steps"] * args.seconds / RUN_SECONDS))
        if args.quarter:
            # ... but far enough to cross one adaptive boundary, or
            # step.boundary_extra_ms has nothing to measure
            steps = max(2, steps // 4, adaptive_interval(wl) - book["warmup_steps"] + 1)
    wl.update(task=book["task"], warmup=book["warmup_steps"], timed_steps=steps)
    return wl


def adaptive_interval(wl: dict) -> int:
    """The largest ``adaptive.W`` among the workload's compressed
    sessions, read from its committed config (0 when none adapts)."""
    with open(os.path.join(CONFIGS, wl.get("session") or wl["fleet"])) as f:
        cfg = json.load(f)
    sessions = [t.get("session", {}) for t in cfg["tenants"]] if "fleet" in wl else [cfg]
    return max(
        (s["adaptive"]["W"] for s in sessions if s.get("compress_activations", True) and "adaptive" in s),
        default=0,
    )


def config_json(path: str, trace: bool) -> str:
    """A committed SessionConfig file as JSON text; the traced run turns
    the program's own stage profiler on."""
    with open(os.path.join(CONFIGS, path)) as f:
        cfg = json.load(f)
    if trace:
        cfg["profiler"] = {"enabled": True}
    return json.dumps(cfg)


def fleet_json(path: str, seed: int, trace: bool) -> str:
    with open(os.path.join(CONFIGS, path)) as f:
        fleet = json.load(f)
    for tenant in fleet["tenants"]:
        tenant["seed"] += 100 * seed
        if trace:
            tenant.setdefault("session", {})["profiler"] = {"enabled": True}
    return json.dumps(fleet)


def build_task(task: dict, seed: int):
    """The workload's dataset for *seed* and its freshly initialised
    network.  The initial weights are the same for every seed: they are
    the program's state, not its input, and ``act_mem_reduction_x``
    follows them (3.7% between ten initialisations, 0.3% between ten
    data seeds on one)."""
    from repro.models.registry import build_scaled_model
    from repro.nn.data import SyntheticImageDataset

    dataset = SyntheticImageDataset(
        num_classes=task["num_classes"],
        image_size=task["image_size"],
        signal=task["signal"],
        seed=1234 + seed,
    )
    network = build_scaled_model(
        task["model"],
        num_classes=task["num_classes"],
        image_size=task["image_size"],
        batch=task["batch_size"],
        rng=np.random.default_rng(task["weight_seed"]),
    )
    return dataset, network


class Outcome:
    """What one run accumulates: operations, checks, metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, bool] = {}
        self.details: Dict[str, object] = {}
        self.end_to_end: Dict[str, dict] = {}
        self.per_layer: Dict[str, float] = {}
        self.losses: List[float] = []
        self.step_ms: List[float] = []
        self.context: Dict[str, object] = {}

    def check(self, name: str, ok: bool, detail: object = None) -> None:
        self.checks[name] = bool(ok)
        if detail is not None:
            self.details[name] = detail


def snapshot_diff(after: dict, before: dict) -> Dict[str, Dict[str, float]]:
    """Per-stage (seconds, calls, hidden_seconds) accumulated between two
    ``StageProfiler.snapshot()`` calls."""
    out = {}
    for name, rec in after.items():
        b = before.get(name, {})
        out[name] = {
            k: rec.get(k, 0.0) - b.get(k, 0.0) for k in ("seconds", "calls", "hidden_seconds")
        }
    return out


def stage_ms(stages: dict, name: str, steps: int) -> float:
    return 1e3 * stages.get(name, {}).get("seconds", 0.0) / max(steps, 1)


def codec_metrics(out: Outcome, probes: list, stages: dict, steps: int, cache_stats: list) -> None:
    """compression.* from the codec wrappers, the profiler's stage totals
    and the codebook caches' public statistics."""
    pl = out.per_layer
    enc_calls = sum(p.encode_calls for p in probes)
    dec_calls = sum(p.decode_calls for p in probes)
    raw_in = sum(p.raw_bytes_in for p in probes)
    stored = sum(p.stored_bytes_out for p in probes)
    decoded = sum(p.raw_bytes_decoded for p in probes)
    pl["compression.encode_calls"] = enc_calls / max(steps, 1)
    pl["compression.decode_calls"] = dec_calls / max(steps, 1)
    if stored:
        pl["compression.ratio_x"] = raw_in / stored
    enc_ms, dec_ms = pl.get("compression.encode_ms", 0.0), pl.get("compression.decode_ms", 0.0)
    if enc_ms:
        pl["compression.encode_mb_s"] = raw_in / 1e6 / (enc_ms * steps / 1e3)
    if dec_ms:
        pl["compression.decode_mb_s"] = decoded / 1e6 / (dec_ms * steps / 1e3)
    pl["compression.stage.quantize_ms"] = stage_ms(stages, "quantize", steps)
    pl["compression.stage.predict_ms"] = stage_ms(stages, "predict", steps)
    pl["compression.stage.entropy_encode_ms"] = stage_ms(stages, "encode", steps)
    pl["compression.stage.entropy_decode_ms"] = stage_ms(stages, "decode", steps)
    hits = sum(after["hits"] - before["hits"] for before, after in cache_stats)
    builds = sum(
        sum(after[k] - before[k] for k in after if k == "builds" or k.startswith("rebuilds_"))
        for before, after in cache_stats
    )
    if hits + builds:
        pl["compression.codebook.hit_ratio"] = hits / (hits + builds)
    pl["compression.codebook.builds_per_step"] = builds / max(steps, 1)


def codebook_cache_stats(codec) -> Optional[dict]:
    cache = getattr(codec, "codebook_cache", None)
    return cache.stats() if cache is not None else None


def verify_and_sample(out: Outcome, probes: list, one_more_step) -> None:
    """After the window: one extra step with every compressed tensor
    decoded again and compared with its input (bound check), which also
    captures the activation the kernel micro-benchmark runs on."""
    if not probes:
        return
    for p in probes:
        p.verify = True
    one_more_step()
    for p in probes:
        p.verify = False
    worst = max(p.max_err_over_bound for p in probes)
    checked = sum(p.checked for p in probes)
    out.per_layer["compression.max_err_over_bound"] = worst
    rel = [r for p in probes for r in p.rel_ebs]
    if rel:
        out.per_layer["core.adaptive.mean_rel_eb"] = float(np.mean(rel))
    # float32 reconstruction rounds at most half an ulp past the bound
    out.check(
        "decoded_within_bound",
        checked > 0 and worst <= 1.0 + 1e-5,
        {"checked": checked, "max_err_over_bound": worst},
    )


def kernel_metrics(out: Outcome, codec, probes: list) -> None:
    from repro.kernels import kernel_stats

    sample = next((p.sample for p in probes if p.sample is not None), None)
    if sample is not None:
        out.per_layer.update(kernel_throughputs(codec, *sample))
    stats = kernel_stats()
    out.per_layer["kernels.fallbacks"] = stats["auto_fallbacks"] + stats["runtime_fallbacks"]


def write_trace(args, rec, out: Outcome) -> None:
    problems = check_nesting(rec.spans)
    out.check("spans_nest", not problems, problems[:5] or None)
    t0 = min((s["start"] for s in rec.spans), default=0.0)
    spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in rec.spans]
    path = os.path.join(os.path.dirname(args.out), "trace.json")
    with open(path, "w") as f:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "clock": "seconds since the first span (time.perf_counter)",
                "layer_stage_table": layer_stage_table(rec.spans),
                "spans": spans,
            },
            f,
        )
    out.details["trace_file"] = os.path.relpath(path)
    out.details["trace_spans"] = len(spans)


def step_span_accounting(out: Outcome, rec, steps: int) -> None:
    """nn.* / compression.* / core.* span times and the unaccounted share
    of the step spans."""
    ms = span_ms_per_step(rec.spans, steps)
    pl = out.per_layer
    pl["nn.forward_ms"] = ms.get("nn.forward", 0.0)
    pl["nn.backward_ms"] = ms.get("nn.backward", 0.0)
    pl["nn.optimizer_ms"] = ms.get("nn.optimizer", 0.0)
    pl["compression.encode_ms"] = ms.get("compression.encode", 0.0)
    pl["compression.decode_ms"] = ms.get("compression.decode", 0.0)
    pl["core.arena.put_ms"] = ms.get("core.arena.put", 0.0)
    pl["core.arena.get_ms"] = ms.get("core.arena.get", 0.0)
    pl["core.param_store.fetch_ms"] = ms.get("core.param_store.fetch", 0.0)
    pl["core.param_store.writeback_ms"] = ms.get("core.param_store.writeback", 0.0)
    selfs = self_times(rec.spans)
    step_spans = [s for s in rec.spans if s["name"] == "step"]
    wall = sum(s["end"] - s["start"] for s in step_spans)
    if wall > 0:
        pl["trace.unaccounted_frac"] = sum(selfs[s["id"]] for s in step_spans) / wall
    out.details["span_ms_per_step"] = ms


# ---------------------------------------------------------------------------
# Single-session workloads: train_raw, train_sz, train_ooc, ddp2
# ---------------------------------------------------------------------------


def run_session_workload(args, plan: dict, out: Outcome) -> None:
    trace = bool(args.trace)
    task = plan["task"]
    warmup, steps = plan["warmup"], plan["timed_steps"]

    t_setup = time.perf_counter()
    from repro.api import SessionConfig, build_session
    from repro.nn.data import batches

    t_import = time.perf_counter()
    text = config_json(plan["session"], trace)
    t0 = time.perf_counter()
    cfg = SessionConfig.from_json(text)
    parse_s = time.perf_counter() - t0
    dataset, network = build_task(task, args.seed)
    stream = batches(dataset, task["batch_size"], warmup + steps + 1, seed=args.seed)
    t0 = time.perf_counter()
    session = build_session(network, cfg)
    build_s = time.perf_counter() - t0
    distributed = cfg.distributed.world_size > 1

    rec = probe = None
    arena_probes: list = []
    if trace:
        rec = SpanRecorder()
        if not distributed:
            probe, arena_probes = instrument_session(session, rec)

    def one_step(index: Optional[int]):
        """Fetch a batch, run a step; a step that raises or returns a
        non-finite loss is a failed operation."""
        out.attempted += 1
        if rec is not None and index is not None:
            with rec.span("nn.data", step=index):
                images, labels = next(stream)
            t_data = time.perf_counter()
            with rec.span("step", step=index):
                record = session.train_step(images, labels)
        else:
            images, labels = next(stream)
            t_data = time.perf_counter()
            record = session.train_step(images, labels)
        t_done = time.perf_counter()
        if not math.isfinite(record.loss):
            out.failed += 1
        return record, t_data, t_done

    try:
        for _ in range(warmup):
            record, _, _ = one_step(None)
            out.losses.append(record.loss)
        setup_s = time.perf_counter() - t_setup
        out.end_to_end["setup_s"] = metric(setup_s, "s", 1)
        out.context["import_s"] = t_import - t_setup
        out.per_layer["api.config_parse_ms"] = 1e3 * parse_s
        out.per_layer["api.build_ms"] = 1e3 * build_s
        if args.phase == "setup":
            return

        codec = None if distributed else session_codec(session)
        before = _counters(session, codec)
        if rec is not None:
            rec.enabled = True
        gc.collect()
        data_s: List[float] = []
        boundary: List[bool] = []
        window = Window()
        cpu0 = cpu_seconds_by_pid()
        window.start()
        for i in range(steps):
            t_iter = time.perf_counter()
            try:
                record, t_data, t_done = one_step(i)
            except Exception as exc:  # a raised step is a failed operation; the run ends
                out.failed += 1
                out.details["step_error"] = f"{type(exc).__name__}: {exc}"
                break
            boundary.append("mean_error_bound" in record.extras)
            window.done(1e3 * (t_done - t_data), task["batch_size"], boundary[-1])
            data_s.append(t_data - t_iter)
            out.losses.append(record.loss)
        cpu1 = cpu_seconds_by_pid()
        rss = peak_rss_mib()
        if rec is not None:
            rec.enabled = False
        after = _counters(session, codec)
        out.step_ms = window.values_ms
        done = len(out.step_ms)

        # -- end-to-end metrics (the window only) ---------------------------
        window.timing(out)
        tracker = session.tracker
        reduction = (
            tracker.peak_raw_bytes / tracker.peak_stored_bytes
            if tracker is not None and tracker.peak_stored_bytes
            else 1.0  # activations are stored raw: no reduction, truthfully
        )
        timed_losses = out.losses[warmup:]
        e2e = out.end_to_end
        if done:
            e2e["loss_last10"] = metric(
                float(np.mean(timed_losses[-10:])), "nats", len(timed_losses[-10:])
            )
        e2e["peak_rss_mb"] = metric(rss, "MiB", 1)
        e2e["act_mem_reduction_x"] = metric(reduction, "x", 1)
        out.check("loss_finite", done == steps and all(map(math.isfinite, out.losses)))
        out.details["timed_steps"] = done

        # -- per-layer metrics ---------------------------------------------
        pl = out.per_layer
        pl["nn.data_ms"] = 1e3 * float(np.mean(data_s)) if data_s else 0.0
        # a boundary step against its two neighbours, so that a slow spell
        # of the host cancels
        extras = [
            out.step_ms[i] - float(np.mean([out.step_ms[j] for j in (i - 1, i + 1) if 0 <= j < done]))
            for i in range(done)
            if boundary[i] and done > 1
        ]
        if extras:
            pl["step.boundary_extra_ms"] = float(np.mean(extras))
        if tracker is not None:
            pl["core.tracker.peak_raw_bytes"] = tracker.peak_raw_bytes
            pl["core.tracker.peak_stored_bytes"] = tracker.peak_stored_bytes
        spilled = sum(p.spilled_bytes for p in arena_probes)
        _engine_arena_store_metrics(out, before, after, done, spilled)
        probes = [probe] if probe is not None else []
        if rec is not None and not distributed:
            step_span_accounting(out, rec, done)
            stages = snapshot_diff(after["profiler"], before["profiler"])
            cache = [(before["cache"], after["cache"])] if after["cache"] else []
            codec_metrics(out, probes, stages, done, cache)
            pl["core.engine.wait_ms"] = stage_ms(stages, "engine-wait", done)
            _hidden_fraction(out, rec, stages)

        # -- checks and post-window work -----------------------------------
        if distributed:
            w0, w1 = session.rank_weights(0), session.rank_weights(1)
            out.check(
                "rank_weights_equal",
                len(w0) == len(w1) and all(np.array_equal(a, b) for a, b in zip(w0, w1)),
            )
            _distributed_metrics(out, session, cpu0, cpu1, done, trace)
            session = None  # closed by _distributed_metrics (profiles merge on close)
        elif codec is not None:
            if probe is None:
                probes = [CodecProbe(codec, SpanRecorder())]
            verify_and_sample(out, probes, lambda: one_step(None))
            if trace:
                kernel_metrics(out, codec, probes)
        if not args.timing_only:
            _reference_checks(args, plan, out)
        if session is not None and session.engine is not None and after["arena"]:
            out.check("arena_spilled", after["arena"]["spills"] > 0, after["arena"])
        out.context["kernel_backend"] = (
            session.kernel_stats["selected_backend"] if session is not None else None
        )
        if rec is not None:
            write_trace(args, rec, out)
    finally:
        if session is not None:
            session.close()


def _counters(session, codec) -> dict:
    """Public counters read before and after the window."""
    profiler = session.profiler
    arenas = session_arenas(session)
    engine = session.engine
    store = session.param_store if session.trainer is not None else None
    return {
        "profiler": profiler.snapshot() if profiler is not None else {},
        "cache": codebook_cache_stats(codec) if codec is not None else None,
        "arena": {
            "spills": sum(a.spill_count for a in arenas),
            "peak_in_memory": sum(a.peak_in_memory_nbytes for a in arenas),
        }
        if arenas
        else None,
        "engine": {
            "packs": getattr(engine, "packs_submitted", 0),
            "prefetch_hits": getattr(engine, "prefetch_hits", 0),
        },
        "store": {
            "fetches": store.fetch_count,
            "writebacks": store.writeback_count,
            "skipped": store.writeback_skipped,
            "stored_bytes": store.stored_nbytes,
        }
        if store is not None
        else None,
    }


def _engine_arena_store_metrics(out: Outcome, before, after, steps: int, spilled: int) -> None:
    pl = out.per_layer
    n = max(steps, 1)
    packs = after["engine"]["packs"] - before["engine"]["packs"]
    hits = after["engine"]["prefetch_hits"] - before["engine"]["prefetch_hits"]
    pl["core.engine.pack_jobs_per_step"] = packs / n
    if packs:
        pl["core.engine.unpack_hit_ratio"] = hits / packs
    if after["arena"]:
        pl["core.arena.spills_per_step"] = (
            after["arena"]["spills"] - before["arena"]["spills"]
        ) / n
        pl["core.arena.peak_in_memory_bytes"] = after["arena"]["peak_in_memory"]
        pl["core.arena.spilled_bytes_per_step"] = spilled / n
    if after["store"]:
        a, b = after["store"], before["store"]
        writebacks = a["writebacks"] - b["writebacks"]
        skipped = a["skipped"] - b["skipped"]
        pl["core.param_store.fetches_per_step"] = (a["fetches"] - b["fetches"]) / n
        if writebacks + skipped:
            pl["core.param_store.writeback_skip_ratio"] = skipped / (writebacks + skipped)
        pl["core.param_store.stored_bytes"] = a["stored_bytes"]


def _hidden_fraction(out: Outcome, rec, stages: dict) -> None:
    """Codec seconds that ran beside the training thread and did not make
    it wait, as a share of all codec seconds."""
    step_threads = {s["thread"] for s in rec.spans if s["name"] == "step"}
    codec_spans = [s for s in rec.spans if s["name"].startswith("compression.")]
    total = sum(s["end"] - s["start"] for s in codec_spans)
    beside = sum(s["end"] - s["start"] for s in codec_spans if s["thread"] not in step_threads)
    waited = stages.get("engine-wait", {}).get("seconds", 0.0)
    if total > 0:
        out.per_layer["core.engine.hidden_frac"] = max(0.0, beside - waited) / total


def _distributed_metrics(out: Outcome, session, cpu0, cpu1, steps: int, trace: bool) -> None:
    """distributed.* from the exchange ledger, per-pid CPU and, after
    ``close()``, the merged rank stage profiles."""
    pl = out.per_layer
    n = max(steps, 1)
    ledger = session.grad_exchange_stats
    world = ledger["world_size"]
    total_steps = max(ledger["steps"], 1)
    up_raw = sum(r["raw_bytes"] for r in ledger["per_rank"])
    up_sent = sum(r["compressed_bytes"] for r in ledger["per_rank"])
    pl["distributed.uplink_bytes_per_step"] = up_sent / total_steps
    pl["distributed.downlink_bytes_per_step"] = (
        world * ledger["downlink"]["compressed_bytes"] / total_steps
    )
    if up_sent:
        pl["distributed.grad_ratio_x"] = up_raw / up_sent
    # computed from the protocol, not counted: step, grads, reduced, record per rank
    pl["distributed.messages_per_step"] = 4 * world
    me = os.getpid()
    rank_cpu = [cpu1[p] - cpu0.get(p, 0.0) for p in cpu1 if p != me]
    pl["distributed.coordinator_cpu_ms"] = 1e3 * (cpu1[me] - cpu0[me]) / n
    if rank_cpu:
        pl["distributed.rank_cpu_ms"] = 1e3 * float(np.mean(rank_cpu)) / n
    coordinator = session.profiler.snapshot() if trace else {}
    session.close()
    if not trace:
        return
    # the rank profiles cover warm-up steps too: average over all of them
    stages = session.profiler.snapshot()
    # a coordinator step is accounted for while a rank is inside its own
    # step; the rest is pipe transfer and pickling
    coordinator_s = coordinator["step"]["seconds"]
    rank_s = (stages["step"]["seconds"] - coordinator_s) / world
    pl["trace.unaccounted_frac"] = max(0.0, 1.0 - rank_s / coordinator_s)
    for stage, name in (
        ("grad-pack", "grad_pack_ms"),
        ("grad-exchange", "grad_exchange_wait_ms"),
        ("grad-unpack", "grad_unpack_ms"),
    ):
        pl[f"distributed.{name}"] = stage_ms(stages, stage, total_steps) / world  # per rank
    pl["distributed.coordinator_reduce_ms"] = stage_ms(stages, "grad-reduce", total_steps)
    # codec busy time of all processes, from stage totals (the gradient
    # codec lives in the rank processes, out of a wrapper's reach)
    encode_s = sum(stages.get(k, {}).get("seconds", 0.0) for k in ("quantize", "predict", "encode"))
    decode_s = stages.get("decode", {}).get("seconds", 0.0)
    pl["compression.encode_ms"] = 1e3 * encode_s / total_steps
    pl["compression.decode_ms"] = 1e3 * decode_s / total_steps
    pl["compression.encode_calls"] = stages.get("quantize", {}).get("calls", 0) / total_steps
    pl["compression.decode_calls"] = stages.get("decode", {}).get("calls", 0) / total_steps
    if encode_s:
        pl["compression.encode_mb_s"] = up_raw / 1e6 / encode_s
    if decode_s:
        # every uplink tensor is decoded twice: by its rank (error
        # feedback) and by the coordinator (reduce)
        pl["compression.decode_mb_s"] = 2 * up_raw / 1e6 / decode_s
    pl["compression.ratio_x"] = pl.get("distributed.grad_ratio_x", 0.0)
    for stage, name in (
        ("quantize", "quantize_ms"),
        ("predict", "predict_ms"),
        ("encode", "entropy_encode_ms"),
        ("decode", "entropy_decode_ms"),
    ):
        pl[f"compression.stage.{name}"] = stage_ms(stages, stage, total_steps)
    out.details["rank_stage_seconds"] = {k: v["seconds"] for k, v in stages.items()}


def _reference_checks(args, plan: dict, out: Outcome) -> None:
    """The first losses against those of another committed config on the
    same inputs: equal bit for bit where the arithmetic is the same
    (``run.py`` compares the whole runs when it has both), and within
    ``TRACK_TOL`` of the raw trajectory where activations are lossy."""
    from repro.api import SessionConfig, build_session
    from repro.nn.data import batches

    task = plan["task"]
    for key, n in (("bit_identical_to", 5), ("tracks", TRACK_STEPS)):
        if key not in plan:
            continue
        n = min(n, len(out.losses))
        dataset, network = build_task(task, args.seed)
        cfg = SessionConfig.from_json(config_json(plan[key], False))
        with build_session(network, cfg) as session:
            reference = [
                session.train_step(*batch).loss
                for batch in batches(dataset, task["batch_size"], n, seed=args.seed)
            ]
        other = plan[key].split(".")[0]
        if key == "tracks":
            worst = max(abs(a - b) / b for a, b in zip(out.losses, reference))
            out.check(f"losses_track_{other}", worst <= TRACK_TOL, {"compared": n, "max_rel_dev": worst})
        else:
            out.check(f"losses_bit_identical_to_{other}", reference == out.losses[:n], {"compared": n})


# ---------------------------------------------------------------------------
# server_hosted
# ---------------------------------------------------------------------------


def run_server_workload(args, plan: dict, out: Outcome) -> None:
    trace = bool(args.trace)
    warmup, steps = plan["warmup"], plan["timed_steps"]

    t_setup = time.perf_counter()
    from repro.server import (
        AdmissionError,
        SessionServer,
        load_server_config,
        run_standalone,
    )

    t_import = time.perf_counter()
    text = fleet_json(plan["fleet"], args.seed, trace)
    t0 = time.perf_counter()
    spec, tenant_specs = load_server_config(text)
    parse_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    server = SessionServer(spec)
    try:
        tenants = []
        for tspec in tenant_specs:
            out.attempted += 1
            try:
                tenants.append(server.admit(tspec))
            except AdmissionError as exc:  # every tenant here should fit
                out.failed += 1
                out.details["admission_error"] = str(exc)
        build_s = time.perf_counter() - t0
        names = [t.name for t in tenants]
        trainers = [t for t in tenants if t.spec.kind == "train"]

        rec = None
        probes: list = []
        ticket_of: Dict[str, tuple] = {}
        if trace:
            rec = SpanRecorder()
            for tenant in tenants:
                probe, _ = instrument_session(tenant.session, rec)
                if probe is not None:
                    probes.append(probe)
                _wrap_hosted_step(tenant, rec, ticket_of)

        results: Dict[str, List[dict]] = {n: [] for n in names}
        warm = server.run(warmup, names)
        for name in names:
            out.attempted += warmup
            results[name].extend(warm[name])
        setup_s = time.perf_counter() - t_setup
        out.end_to_end["setup_s"] = metric(setup_s, "s", 1)
        out.context["import_s"] = t_import - t_setup
        out.per_layer["api.config_parse_ms"] = 1e3 * parse_s
        out.per_layer["api.build_ms"] = 1e3 * build_s
        if args.phase == "setup":
            return

        tickets: Dict[str, list] = {n: [] for n in names}
        batch_of = {t.name: t.spec.batch_size for t in tenants}
        errors: List[str] = []
        window = Window()
        step_ids = iter(range(len(names) * steps))
        id_lock = threading.Lock()

        def client(name: str) -> None:
            """One trainer: a closed loop with one step outstanding."""
            for _ in range(steps):
                with id_lock:
                    sid = next(step_ids)
                try:
                    if rec is not None:
                        with rec.span("server.ticket", step=sid, layer=name) as span:
                            if span is not None:
                                ticket_of[name] = (span["id"], sid)
                            (ticket,) = server.submit(name, 1)
                            results[name].append(ticket.wait())
                    else:
                        (ticket,) = server.submit(name, 1)
                        results[name].append(ticket.wait())
                    window.done(1e3 * ticket.latency_seconds, batch_of[name])
                    tickets[name].append(ticket)
                except Exception as exc:  # refused (QueueFullError) or raised: failed
                    errors.append(f"{name}: {type(exc).__name__}: {exc}")
                    return

        before_stats = server.stats()
        caches_before = _tenant_cache_stats(before_stats, trainers)
        profiles_before = before_stats["profiler_merged"]
        if rec is not None:
            rec.enabled = True
        gc.collect()
        threads = [threading.Thread(target=client, args=(n,), name=f"client-{n}") for n in names]
        window.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rss = peak_rss_mib()
        if rec is not None:
            rec.enabled = False
        after_stats = server.stats()

        done = sum(len(v) for v in tickets.values())
        out.attempted += len(names) * steps
        out.failed += len(names) * steps - done
        if errors:
            out.details["ticket_errors"] = errors[:5]
        window.timing(out, group=len(names))
        # the one accessor for the hosted memory headline: sum of raw
        # peaks over sum of stored peaks across the train tenants
        raw = sum(t.session.tracker.peak_raw_bytes for t in trainers)
        stored = sum(t.session.tracker.peak_stored_bytes for t in trainers)
        last10 = [
            float(np.mean([r["loss"] for r in results[t.name][warmup:][-10:]])) for t in trainers
        ]
        all_losses = [r["loss"] for t in trainers for r in results[t.name]]
        e2e = out.end_to_end
        if done:
            e2e["loss_last10"] = metric(
                float(np.mean(last10)), "nats", len(trainers) * min(10, steps)
            )
        e2e["peak_rss_mb"] = metric(rss, "MiB", 1)
        e2e["act_mem_reduction_x"] = metric(raw / stored if stored else 1.0, "x", len(trainers))
        out.step_ms = window.values_ms
        out.losses = all_losses
        out.check(
            "loss_finite", done == len(names) * steps and all(map(math.isfinite, all_losses))
        )
        out.details["timed_steps"] = done
        window_s = out.details["whole_window"]["wall_s"] if done else float("inf")

        pool0, pool1 = before_stats["pool"], after_stats["pool"]
        forced = pool1["forced_spill_count"] - pool0["forced_spill_count"]
        out.check("pool_forced_spills", forced > 0, {"forced_spills": forced})
        pl = out.per_layer
        pl["server.queue_wait_ms_p50"] = statistics.median(
            [1e3 * t.queue_seconds for ts in tickets.values() for t in ts] or [0.0]
        )
        pl["server.steps_per_s"] = done / window_s
        pl["server.forced_spills"] = forced
        pl["server.forced_spill_bytes"] = pool1["forced_spill_bytes"] - pool0["forced_spill_bytes"]
        pl["server.admission_rejected"] = after_stats["admission"]["rejected"] + sum(
            row.get("rejected", 0) for row in after_stats["tenants"].values()
        )
        caches_after = _tenant_cache_stats(after_stats, trainers)
        pl["server.codebook_adoptions"] = sum(c["shared_adoptions"] for c in caches_after)
        pl["core.tracker.peak_raw_bytes"] = raw
        pl["core.tracker.peak_stored_bytes"] = stored
        arenas = [t.arena for t in tenants if t.arena is not None]
        per_tenant = pool1["tenants"]
        pl["core.arena.spills_per_step"] = (
            sum(per_tenant[t.name]["spill_count"] for t in trainers)
            - sum(pool0["tenants"][t.name]["spill_count"] for t in trainers)
        ) / max(done, 1)
        pl["core.arena.spilled_bytes_per_step"] = pl["server.forced_spill_bytes"] / max(done, 1)
        pl["core.arena.peak_in_memory_bytes"] = sum(a.peak_in_memory_nbytes for a in arenas)
        service = {n: [1e3 * t.run_seconds for t in ts] for n, ts in tickets.items()}
        if rec is not None:
            step_span_accounting(out, rec, done)
            step_wall = sum(s["end"] - s["start"] for s in rec.spans if s["name"] == "step")
            # a tenant's batch is drawn inside its ticket, before the step
            pl["nn.data_ms"] = (sum(map(sum, service.values())) - 1e3 * step_wall) / max(done, 1)
            stages = snapshot_diff(after_stats["profiler_merged"], profiles_before)
            codec_metrics(out, probes, stages, done, list(zip(caches_before, caches_after)))

        # -- checks and post-window work -----------------------------------
        reference_s: Dict[str, float] = {}
        for tenant in [] if args.timing_only else trainers:
            t0 = time.perf_counter()
            reference = run_standalone(tenant.spec, min(5, warmup + steps))
            reference_s[tenant.name] = time.perf_counter() - t0
            hosted = [r["loss"] for r in results[tenant.name][: len(reference)]]
            out.check(
                f"hosted_equals_standalone_{tenant.name}",
                hosted == [r["loss"] for r in reference],
            )
        if trace and trainers and not args.timing_only:
            # standalone cost of steps 3..5 of the larger trainer, by
            # difference of two runs (set-up cancels); hosted service
            # time of the same tenant over it
            tenant = trainers[0]
            t0 = time.perf_counter()
            run_standalone(tenant.spec, 2)
            short_s = time.perf_counter() - t0
            standalone_ms = 1e3 * (reference_s[tenant.name] - short_s) / 3
            pl["server.hosted_over_standalone_x"] = (
                statistics.median(service[tenant.name]) / standalone_ms
                if standalone_ms > 0 and service[tenant.name]
                else 0.0  # the two reference runs were too noisy to subtract
            )
        if not probes:
            probes = [CodecProbe(session_codec(t.session), SpanRecorder()) for t in trainers]
        verify_and_sample(out, probes, lambda: server.run(1, [t.name for t in trainers]))
        if trace:
            kernel_metrics(out, session_codec(trainers[0].session), probes)
            write_trace(args, rec, out)
        out.context["kernel_backend"] = trainers[0].session.kernel_stats["selected_backend"]
    finally:
        server.close()


def _tenant_cache_stats(stats: dict, trainers: list) -> List[dict]:
    return [stats["tenants"][t.name]["codebook_cache"] for t in trainers]


def _wrap_hosted_step(tenant, rec, ticket_of: Dict[str, tuple]) -> None:
    """A hosted step is the tenant session's public ``train_step`` /
    ``evaluate``, called by the scheduler worker; its span hangs under
    the ticket the tenant's client thread is waiting on."""
    session = tenant.session
    attr = "train_step" if tenant.spec.kind == "train" else "evaluate"
    orig = getattr(session, attr)
    name = tenant.name

    def hosted_step(*a, **kw):
        parent, sid = ticket_of.get(name, (None, None))
        with rec.span("step", step=sid, parent=parent, layer=name):
            return orig(*a, **kw)

    setattr(session, attr, hosted_step)


# ---------------------------------------------------------------------------


def host_context() -> dict:
    import importlib.util
    import platform

    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    numba = importlib.util.find_spec("numba") is not None
    return {
        "host_label": f"{nproc}-core, {'numba' if numba else 'numba-less'}",
        "nproc": nproc,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": load1,
        "noisy_host": load1 > 0.75 * nproc,
        "numba_importable": numba,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--quarter", action="store_true", help="a quarter of the steps")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument(
        "--timing-only", action="store_true", help="skip the checks that need a reference run"
    )
    ap.add_argument("--phase", choices=("setup", "full"), default="full")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    out = Outcome()
    plan = load_plan(args)
    if plan.get("one_cpu"):
        # every thread the session starts inherits this; see README,
        # "Which workloads are gated"
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    out.context = host_context()
    runner = run_server_workload if "fleet" in plan else run_session_workload
    runner(args, plan, out)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "phase": args.phase,
        "correct": out.failed == 0 and all(out.checks.values()),
        "attempted": out.attempted,
        "failed": out.failed,
        "end_to_end": out.end_to_end,
        "per_layer": out.per_layer,
        "checks": out.checks,
        "details": out.details,
        "losses": out.losses,
        "step_ms": out.step_ms,
        "context": out.context,
    }
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
