"""Compression engines: execution strategies for the saved-tensor path.

The paper's headline performance claim is that compression *overlaps*
training: packing layer *i*'s activation runs concurrently with layer
*i+1*'s forward compute, and spilled activations are prefetched ahead of
the backward pass, so the memory savings come at near-zero wall-clock
cost.  This module factors that scheduling decision out of the saved-tensor
context (:mod:`repro.core.activation_store`) into a pluggable strategy
object:

* :class:`SyncEngine` — compress/decompress inline on the caller's
  thread.  This is the historical behaviour, bit-for-bit.
* :class:`AsyncEngine` — ``pack`` submits the compression job to a
  worker pool and returns immediately with a future-backed handle, so
  compression overlaps the next layer's forward; the forward pack order
  is recorded and outstanding handles are prefetched (arena bytes read
  back, deserialized, and decompressed) in *reverse* order ahead of the
  backward pass.

Exactness contract: for deterministic codecs (every registry codec) the
async engine produces **bit-identical reconstructions** and **byte-exact
tracker numbers** versus the sync engine.  Two ordering rules enforce
this:

1. Pack jobs are *finalized* (arena write + tracker charge) strictly in
   submission order, on the submitting thread — never from a worker —
   so ``record_pack`` sequences are identical across engines.
2. Before any handle is materialized or discarded, every outstanding
   pack is finalized (:meth:`AsyncEngine.flush`).  Within a training
   iteration all packs happen during forward and all releases during
   backward, so the interleaving of tracker operations — and therefore
   every live/peak counter — matches the sync engine exactly.

Engines are bound to exactly one context (:meth:`CompressionEngine.bind`)
and assume pack/unpack/discard are driven from a single training thread;
only the pure compression/serialization work runs on pool workers.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Deque, List, Optional, Union

from repro.utils import profiler

__all__ = ["CompressionEngine", "SyncEngine", "AsyncEngine", "resolve_engine"]


class CompressionEngine:
    """Strategy interface between a compression context and its codec work.

    The owning context (a ``CompressingContext``) calls
    :meth:`submit_pack` / :meth:`obtain` / :meth:`ensure_packed` /
    :meth:`forget`; the engine decides *where and when* the pure codec
    work runs and calls back into the context's ``_finalize_pack`` /
    ``_materialize`` hooks for the stateful parts (arena writes, tracker
    accounting), which always execute on the caller's thread.
    """

    name = "base"

    def __init__(self) -> None:
        self._ctx: Optional[Any] = None

    def bind(self, ctx: Any) -> "CompressionEngine":
        """Attach to the owning context (one engine per context)."""
        if self._ctx is not None and self._ctx is not ctx:
            raise RuntimeError(
                "engine is already bound to another context; "
                "construct one engine per context"
            )
        self._ctx = ctx
        return self

    # -- strategy interface ------------------------------------------------
    def submit_pack(self, handle: Any, job: Callable[[], tuple]) -> None:
        """Run *job* (pure compression work) and finalize *handle* with
        its payload, now or later depending on the strategy."""
        raise NotImplementedError

    def obtain(self, handle: Any):
        """Return the decompressed array for a packed *handle*."""
        raise NotImplementedError

    def ensure_packed(self, handle: Any) -> None:
        """Block until *handle* has been finalized (tracker charged)."""

    def forget(self, handle: Any) -> None:
        """Notification that *handle* was released (drop prefetch state)."""

    def flush(self) -> None:
        """Finalize every outstanding pack submission."""

    @property
    def idle(self) -> bool:
        """True when no submitted work is outstanding — every pack is
        finalized and no speculative unpack is in flight.  The gradient
        exchange asserts this after the post-backward flush: gradients
        must never be shipped while activation packs are still settling
        accounts.  Inline strategies are idle by construction."""
        return True

    def close(self) -> None:
        """Finalize or cancel outstanding work and release pool threads."""

    def __enter__(self) -> "CompressionEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SyncEngine(CompressionEngine):
    """Inline execution: pack and unpack run on the caller's thread.

    This is the reference behaviour — the async engine's contract is
    defined as "indistinguishable from :class:`SyncEngine` except for
    wall-clock time".
    """

    name = "sync"

    def submit_pack(self, handle: Any, job: Callable[[], tuple]) -> None:
        self._ctx._finalize_pack(handle, job())

    def obtain(self, handle: Any):
        return self._ctx._materialize(handle)


class AsyncEngine(CompressionEngine):
    """Overlapped execution: pooled packing plus reverse-order prefetch.

    Parameters
    ----------
    workers:
        Worker-thread count shared by pack jobs and prefetch jobs.  The
        codec stages (zlib, vectorized NumPy) release the GIL, so threads
        overlap with the training thread's compute.
    prefetch_depth:
        How many not-yet-consumed handles ahead of the current unpack
        (in reverse pack order — the backward consumption order) to
        materialize speculatively.  A second window of the same size
        beyond that is *staged*: the spilled bytes of those handles are
        read back into arena memory (:meth:`ByteArena.prefetch`) so the
        decompress jobs that follow find them at memory speed.  ``0``
        disables both.  ``"auto"`` derives the depth each backward pass
        from observed latencies instead of a fixed window: the depth is
        the ratio of the average prefetch-job (decompress + arena read)
        time to the average backward-step gap between consecutive
        unpacks — i.e. *how many layers of backward compute one
        materialization spans* — clamped to ``[1, max_auto_depth]``.
        Slow codecs over fast layers prefetch deeper; fast codecs stop
        wasting pool slots on work the inline path would win anyway.
    unpack_depth:
        Decouples the *speculative decompress* window (double-buffered
        unpack: layer i−1's saved activation decompressed on the pool
        — decode tables hydrated on the worker — while layer i's
        backward computes) from the byte-staging window.  ``None``
        (default) keeps the historical coupling: both windows follow
        ``prefetch_depth``.  An int ``>= 0`` fixes the decompress
        window independently (``0`` = never decompress speculatively,
        byte staging still follows ``prefetch_depth``); ``"auto"``
        sizes it from the same latency model as adaptive prefetch.
    unpack_budget_bytes:
        Decode-ahead budget: cap on the summed raw (decompressed) bytes
        of in-flight speculative decompress jobs.  Scheduling-only — an
        over-budget window defers jobs to the inline path (counted in
        ``unpack_budget_deferrals``), never changes results.  The first
        job is always admitted so progress cannot stall.  ``None``
        disables the bound.
    max_auto_depth:
        Clamp for the adaptive depth (with ``prefetch_depth="auto"``
        and/or ``unpack_depth="auto"``).
    max_pending:
        Backpressure bound on the pack queue (default ``4 * workers``).
        Every queued job closure keeps its raw activation alive, so an
        unbounded queue behind a slow codec would quietly approach the
        uncompressed memory baseline; once the bound is hit,
        ``submit_pack`` blocks finalizing the oldest job first.

    Determinism caveat: prefetch calls ``decompress`` from worker
    threads, so codecs whose decompression draws from shared RNG state
    (``SZCompressor(emulate_zero_drift=True)``, an ablation-only mode)
    lose replay determinism; every registry codec is deterministic and
    therefore bit-identical to :class:`SyncEngine`.
    """

    name = "async"

    def __init__(
        self,
        workers: int = 2,
        prefetch_depth: Union[int, str] = 2,
        max_pending: Optional[int] = None,
        max_auto_depth: int = 8,
        unpack_depth: Union[int, str, None] = None,
        unpack_budget_bytes: Optional[int] = 64 << 20,
    ) -> None:
        super().__init__()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.adaptive_prefetch = prefetch_depth == "auto"
        if self.adaptive_prefetch:
            prefetch_depth = 1  # starting point until latencies arrive
        elif isinstance(prefetch_depth, str):
            raise ValueError(
                f"prefetch_depth must be an int >= 0 or 'auto', got {prefetch_depth!r}"
            )
        elif prefetch_depth < 0:
            raise ValueError(f"prefetch_depth must be >= 0, got {prefetch_depth}")
        self.adaptive_unpack = unpack_depth == "auto"
        if unpack_depth is not None and not self.adaptive_unpack:
            if isinstance(unpack_depth, str):
                raise ValueError(
                    f"unpack_depth must be an int >= 0, 'auto', or None, "
                    f"got {unpack_depth!r}"
                )
            if unpack_depth < 0:
                raise ValueError(f"unpack_depth must be >= 0, got {unpack_depth}")
            unpack_depth = int(unpack_depth)
        if unpack_budget_bytes is not None and unpack_budget_bytes < 1:
            raise ValueError(
                f"unpack_budget_bytes must be >= 1 or None, got {unpack_budget_bytes}"
            )
        if max_auto_depth < 1:
            raise ValueError(f"max_auto_depth must be >= 1, got {max_auto_depth}")
        if max_pending is None:
            max_pending = 4 * int(workers)
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.workers = int(workers)
        self.prefetch_depth = int(prefetch_depth)
        #: the configured spec (None = follow prefetch_depth, int, "auto")
        self.unpack_depth = unpack_depth
        self.unpack_budget_bytes = unpack_budget_bytes
        self.max_pending = int(max_pending)
        self.max_auto_depth = int(max_auto_depth)
        #: current adaptive decompress window (only with unpack_depth="auto")
        self._unpack_depth_now = 1
        #: raw bytes of in-flight, not-yet-consumed speculative decompress
        #: jobs (training-thread state: charged at submit, released when
        #: the future is consumed or dropped)
        self._unpack_inflight_bytes = 0
        # -- adaptive-depth latency model (EMAs, guarded by a lock: job
        # -- durations are reported from worker threads) ------------------
        self._ema_lock = threading.Lock()
        self._gap_ema: Optional[float] = None  # backward step between unpacks
        self._job_ema: Optional[float] = None  # one materialization's cost
        self._last_obtain_end: Optional[float] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        #: handles submitted but not yet finalized, in submission order
        self._pending: Deque[Any] = deque()
        #: finalized-or-pending handles not yet released, in pack order —
        #: the forward record the reverse-order prefetcher walks.
        #: Released handles are tombstoned (None) for O(1) removal and
        #: the list is compacted when mostly dead.
        self._live: List[Any] = []
        self._dead = 0
        self._closed = False
        # -- statistics ---------------------------------------------------
        self.packs_submitted = 0
        #: packs whose job had already completed on a worker by the time
        #: the training thread needed the result (true overlap wins)
        self.packs_overlapped = 0
        self.prefetches_scheduled = 0
        #: obtains served from a completed prefetch (no inline decompress)
        self.prefetch_hits = 0
        #: staging requests for upcoming layers' spilled *parameter* bytes
        #: (contexts with an attached ParamStore only)
        self.param_stages_scheduled = 0
        #: forward-side next-bind-window weight staging requests
        self.forward_param_stages = 0
        #: speculative decompress jobs cancelled before running at close()
        self.unpacks_cancelled = 0
        #: decompress jobs deferred to the inline path by the decode-ahead
        #: budget (bytes staged instead, so the miss still starts warm)
        self.unpack_budget_deferrals = 0
        #: latest depth the adaptive controller settled on (mirrors
        #: ``prefetch_depth`` for fixed-depth engines)
        self.last_effective_depth = self.prefetch_depth
        #: latest speculative-decompress window actually used
        self.last_effective_unpack_depth = 0
        from repro.core.sanitizer import maybe_instrument

        maybe_instrument(self, "engine")

    # -- internals ---------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="compression-engine"
            )
        return self._pool

    # -- adaptive prefetch depth -------------------------------------------
    def _update_ema(self, attr: str, value: float, alpha: float = 0.25) -> None:
        with self._ema_lock:
            prev = getattr(self, attr)
            setattr(self, attr, value if prev is None else prev + alpha * (value - prev))

    def _auto_depth(self, current: int) -> int:
        """ceil(materialize time / backward gap), clamped — deep enough
        that a materialization started now completes before the training
        thread consumes it, no deeper.  Returns *current* until both
        latency estimates exist."""
        with self._ema_lock:
            gap, job = self._gap_ema, self._job_ema
        if gap is not None and job is not None and gap > 0:
            return max(1, min(-int(-job // gap), self.max_auto_depth))
        return current

    def _effective_depth(self) -> int:
        """Prefetch window for this point in the backward pass.

        Fixed engines return their configured depth; adaptive engines
        size the window from the latency model (:meth:`_auto_depth`).
        """
        if not self.adaptive_prefetch:
            return self.prefetch_depth
        self.prefetch_depth = self._auto_depth(self.prefetch_depth)
        self.last_effective_depth = self.prefetch_depth
        return self.prefetch_depth

    def _effective_unpack_depth(self) -> int:
        """Speculative-decompress window for this point in the backward
        pass: the configured ``unpack_depth``, the adaptive estimate,
        or — with ``unpack_depth=None`` — the prefetch window (the
        historical coupled behaviour)."""
        if self.unpack_depth is None:
            depth = self._effective_depth()
        elif self.adaptive_unpack:
            self._unpack_depth_now = self._auto_depth(self._unpack_depth_now)
            depth = self._unpack_depth_now
        else:
            depth = self.unpack_depth
        self.last_effective_unpack_depth = depth
        return depth

    def _finalize_next(self) -> None:
        handle = self._pending.popleft()
        fut = handle._pack_future
        handle._pack_future = None
        if fut.done():
            self.packs_overlapped += 1
        try:
            # .result() propagates codec errors on the training thread (at
            # a later point than the sync engine would have raised them).
            if fut.done():
                payload = fut.result()
            else:
                with profiler.stage("engine-wait"):
                    payload = fut.result()
            self._ctx._finalize_pack(handle, payload)
        except BaseException:
            # The handle was never charged to the tracker; mark it
            # released so the error-path cleanup (clear_saved -> discard)
            # cannot credit bytes that were never recorded, and drop it
            # from the live-order record (the discard's forget would
            # otherwise early-return on the released flag).
            handle.released = True
            self.forget(handle)
            raise

    def _drain_completed(self) -> None:
        while self._pending and self._pending[0]._pack_future.done():
            self._finalize_next()

    @staticmethod
    def _hydrate_codebooks(ct: Any) -> None:
        """Build the dense Huffman decode tables on the worker thread.

        The tables are cached on the codebook object, so hydrating here
        moves their (one-off per codebook) construction off the critical
        path — for cached canonical books shared across iterations, every
        later decode of the same book finds them warm.  Building is
        idempotent, so a racing decode on another thread is harmless.
        """
        books = []
        for attr in ("codebook", "shared_codebook"):
            book = getattr(ct, attr, None)
            if book is not None:
                books.append(book)
        for chunk in getattr(ct, "chunks", None) or ():
            book = getattr(chunk, "codebook", None)
            if book is not None:
                books.append(book)
        for book in books:
            build = getattr(book, "decode_tables", None)
            if callable(build):
                try:
                    build()
                except Exception:
                    pass  # decode will surface any real problem inline

    def _prefetch_job(self, handle: Any):
        """Worker-side speculative materialization; never raises.

        Returns ``(ct, out)`` or ``None`` when the handle raced a discard
        or shutdown — the consumer falls back to the inline path.  The
        job duration feeds the adaptive-depth latency model.
        """
        try:
            with profiler.stage("unpack-ahead", hidden=True):
                t0 = time.perf_counter()
                ct = handle.compressed
                if ct is None:
                    # get() consumes the staged copy when the stage-ahead
                    # window already read the spill file back into memory.
                    ct = self._ctx._loads(self._ctx.storage.get(handle.arena_key))
                self._hydrate_codebooks(ct)
                # The layer name rides along so policy-table contexts can
                # dispatch to the codec that packed this layer.
                out = self._ctx._decompress(ct, handle.layer_name)
            if self.adaptive_prefetch or self.adaptive_unpack:
                self._update_ema("_job_ema", time.perf_counter() - t0)
            return ct, out
        except Exception:
            return None

    # -- decode-ahead budget (training-thread state, no lock needed) -------
    def _charge_unpack(self, handle: Any) -> bool:
        """Admit *handle* to the decode-ahead budget, or refuse.

        The first in-flight job is always admitted (progress guarantee);
        beyond that, admission requires the summed raw bytes to stay
        within ``unpack_budget_bytes``.
        """
        budget = self.unpack_budget_bytes
        if (
            budget is not None
            and self._unpack_inflight_bytes
            and self._unpack_inflight_bytes + handle.raw_nbytes > budget
        ):
            return False
        self._unpack_inflight_bytes += handle.raw_nbytes
        handle._unpack_charged = True
        return True

    def _uncharge_unpack(self, handle: Any) -> None:
        if handle._unpack_charged:
            handle._unpack_charged = False
            self._unpack_inflight_bytes -= handle.raw_nbytes

    def _compact_live(self) -> None:
        self._live = [h for h in self._live if h is not None]
        for pos, h in enumerate(self._live):
            h._live_pos = pos
        self._dead = 0

    def _schedule_prefetch(self, current: Any) -> None:
        udepth = self._effective_unpack_depth()
        sdepth = self._effective_depth()
        if udepth <= 0 and sdepth <= 0:
            return
        pos = current._live_pos
        if pos is None or pos >= len(self._live) or self._live[pos] is not current:
            return
        # Backward consumes in reverse pack order: after `current`, the
        # next expected handles are the ones packed just before it.  The
        # first window (udepth) gets speculative decompress jobs, subject
        # to the decode-ahead budget; the window beyond it (sdepth) gets
        # its spilled bytes staged back into arena memory so those
        # decompress jobs will start from memory, not disk.
        stage_keys = []
        upcoming_layers = []
        seen = 0
        idx = pos - 1
        while idx >= 0 and seen < udepth + sdepth:
            handle = self._live[idx]
            idx -= 1
            if handle is None or handle.released:
                continue
            if handle.layer_name and handle.layer_name not in upcoming_layers:
                upcoming_layers.append(handle.layer_name)
            if seen < udepth and handle._prefetch_future is None:
                if self._charge_unpack(handle):
                    handle._prefetch_future = self._ensure_pool().submit(
                        self._prefetch_job, handle
                    )
                    self.prefetches_scheduled += 1
                else:
                    # Over budget: skip the decompress but still stage the
                    # bytes so the eventual inline path starts from memory.
                    self.unpack_budget_deferrals += 1
                    if handle.compressed is None and handle.arena_key is not None:
                        stage_keys.append(handle.arena_key)
            elif handle._prefetch_future is None and handle.compressed is None and handle.arena_key is not None:
                stage_keys.append(handle.arena_key)
            seen += 1
        if stage_keys and self._ctx.storage is not None:
            self._ensure_pool().submit(self._ctx.storage.prefetch, stage_keys)
        # Out-of-core parameters ride the same reverse-order window: the
        # layers whose backward runs next need their weights rebound, so
        # stage their spilled parameter/slot bytes alongside the spilled
        # activations (ParamStore.stage_layers is worker-thread safe).
        param_store = getattr(self._ctx, "param_store", None)
        if param_store is not None and upcoming_layers:
            self._ensure_pool().submit(param_store.stage_layers, upcoming_layers)
            self.param_stages_scheduled += 1

    # -- strategy interface ------------------------------------------------
    def submit_pack(self, handle: Any, job: Callable[[], tuple]) -> None:
        if self._closed:
            raise RuntimeError("engine is closed")
        # Opportunistically retire completed jobs so tracker charges land
        # as early as the ordering rule allows.
        self._drain_completed()
        # Backpressure: queued job closures pin their raw activations, so
        # block on the oldest job once the pipeline is max_pending deep.
        while len(self._pending) >= self.max_pending:
            self._finalize_next()
        handle._pack_future = self._ensure_pool().submit(job)
        self._pending.append(handle)
        handle._live_pos = len(self._live)
        self._live.append(handle)
        self.packs_submitted += 1
        # Forward-side weight double buffering: while this layer's pack
        # (and the next layer's forward compute) run, stage the *next*
        # bind window's spilled parameter bytes on the pool so the coming
        # rebind finds them in arena memory (ParamStore.stage_next_window
        # is worker-thread safe and a no-op without bind windows spilled).
        param_store = getattr(self._ctx, "param_store", None)
        if param_store is not None and handle.layer_name:
            stage = getattr(param_store, "stage_next_window", None)
            if stage is not None:
                self._ensure_pool().submit(stage, handle.layer_name)
                self.forward_param_stages += 1
        # A pack means the forward pass is running: the next unpack gap
        # belongs to a fresh backward pass.
        self._last_obtain_end = None

    def obtain(self, handle: Any):
        t0 = time.perf_counter()
        if (
            (self.adaptive_prefetch or self.adaptive_unpack)
            and self._last_obtain_end is not None
        ):
            # Gap between consecutive unpacks = one layer's backward
            # compute (the clock resets on pack, so forward time between
            # iterations never pollutes the estimate).
            self._update_ema("_gap_ema", t0 - self._last_obtain_end)
        self.flush()
        # Kick off the *next* handles' prefetch before blocking on this
        # one, so speculative work overlaps the current decompress.
        self._schedule_prefetch(handle)
        try:
            fut = handle._prefetch_future
            if fut is not None:
                handle._prefetch_future = None
                if fut.done():
                    res = fut.result()
                else:
                    with profiler.stage("engine-wait"):
                        res = fut.result()
                self._uncharge_unpack(handle)
                if res is not None:
                    ct, out = res
                    self.prefetch_hits += 1
                    if handle.compressed is None:
                        handle.compressed = ct
                    return out
            t1 = time.perf_counter()
            out = self._ctx._materialize(handle)
            if self.adaptive_prefetch or self.adaptive_unpack:
                # Inline materializations feed the same latency model, so
                # the depth estimate exists before the first prefetch hit.
                self._update_ema("_job_ema", time.perf_counter() - t1)
            return out
        finally:
            self._last_obtain_end = time.perf_counter()

    def ensure_packed(self, handle: Any) -> None:
        # Release barrier (ordering rule 2): the tracker must never see a
        # release while *any* pack is still uncharged, so the whole queue
        # drains — not just this handle's job.
        if self._pending:
            self.flush()

    def forget(self, handle: Any) -> None:
        pos = handle._live_pos
        if pos is not None and pos < len(self._live) and self._live[pos] is handle:
            self._live[pos] = None  # tombstone: O(1) removal
            handle._live_pos = None
            self._dead += 1
            if self._dead > 32 and 2 * self._dead > len(self._live):
                self._compact_live()
        # An in-flight prefetch for a discarded handle completes (or
        # fails) harmlessly on its worker; nobody consumes the future.
        handle._prefetch_future = None
        self._uncharge_unpack(handle)

    def flush(self) -> None:
        while self._pending:
            self._finalize_next()

    @property
    def idle(self) -> bool:
        """No pack awaiting finalization and no speculative decompress
        charged against the decode-ahead budget."""
        return not self._pending and self._unpack_inflight_bytes == 0

    def close(self) -> None:
        """Shut down mid-flight safely: cancel what can be cancelled,
        finalize what already ran (ignoring storage-closed errors), and
        release the pool.  Idempotent."""
        self._closed = True
        while self._pending:
            handle = self._pending.popleft()
            fut = handle._pack_future
            handle._pack_future = None
            if fut.cancel():
                # Never charged to the tracker — mark released so a late
                # discard (clear_saved/detach) cannot credit bytes that
                # were never recorded.
                handle.released = True
                continue
            try:
                self._ctx._finalize_pack(handle, fut.result())
            except Exception:
                # Mid-flight shutdown: the arena may already be closed or
                # the job itself failed; drop the handle, uncharged.
                handle.released = True
        # Cancel in-flight speculative decompress jobs: queued jobs are
        # dropped before running; a job already on a worker completes
        # harmlessly (nobody consumes its future) and the pool shutdown
        # below waits it out.
        for handle in self._live:
            if handle is None:
                continue
            fut = handle._prefetch_future
            if fut is not None:
                handle._prefetch_future = None
                if fut.cancel():
                    self.unpacks_cancelled += 1
                self._uncharge_unpack(handle)
        self._live.clear()
        self._dead = 0
        self._unpack_inflight_bytes = 0
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        return (
            f"AsyncEngine(workers={self.workers}, "
            f"prefetch_depth={self.prefetch_depth}, "
            f"unpack_depth={self.unpack_depth!r}, "
            f"pending={len(self._pending)}, live={len(self._live)})"
        )


def resolve_engine(engine: Optional[CompressionEngine], ctx: Any) -> CompressionEngine:
    """Bind *engine* (``None`` is a :class:`SyncEngine`) to *ctx*.
    Engines are named only in :class:`~repro.api.config.EngineSpec`."""
    if engine is None:
        engine = SyncEngine()
    elif not isinstance(engine, CompressionEngine):
        raise TypeError(
            f"engine must be a CompressionEngine or None, got {type(engine).__name__}"
        )
    return engine.bind(ctx)
