"""Per-layer measurement taken from outside the program.

The traced run replaces *public instance methods* of live objects the
front doors hand back (``layer.forward``, ``codec.compress``,
``arena.put``, ``store.fetch``, ...) with wrappers that record a span
and count bytes; nothing under ``src/`` is edited and no attribute whose
name starts with an underscore is read.  Together with the program's
own public counters (``StageProfiler`` stage totals, engine / arena /
param-store / codebook-cache statistics) the spans give the per-layer
metrics in :data:`metrics.PER_LAYER`.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack
from typing import Callable, Dict, List, Optional

import numpy as np

from spans import SpanRecorder, self_times

__all__ = ["ArenaProbe", "CodecProbe", "instrument_session", "kernel_throughputs", "span_ms_per_step"]


def wrap_method(obj, attr: str, rec: SpanRecorder, name: str, layer: Optional[str] = None):
    """Replace the public bound method ``obj.attr`` by a span-recording
    wrapper (an instance attribute, so only this object is affected)."""
    orig = getattr(obj, attr)

    def wrapper(*args, **kwargs):
        with rec.span(name, layer=layer):
            return orig(*args, **kwargs)

    setattr(obj, attr, wrapper)


class CodecProbe:
    """Wraps one codec's ``compress`` / ``decompress``: spans, bytes in
    and out, and (in *verify* mode) a round-trip check of every
    compressed tensor against its error bound."""

    def __init__(self, codec, rec: SpanRecorder):
        self.rec = rec
        self.verify = False
        self.raw_bytes_in = 0
        self.stored_bytes_out = 0
        self.raw_bytes_decoded = 0
        self.encode_calls = 0
        self.decode_calls = 0
        self.checked = 0
        self.max_err_over_bound = 0.0
        self.rel_ebs: List[float] = []
        #: (activation, error bound) of the largest tensor seen while
        #: verifying: the kernel micro-benchmark's input
        self.sample = None
        self._lock = threading.Lock()
        self._compress = codec.compress
        self._decompress = codec.decompress
        codec.compress = self.compress
        codec.decompress = self.decompress

    def compress(self, x, error_bound=None, **kwargs):
        with self.rec.span("compression.encode", layer=kwargs.get("cache_key")):
            ct = self._compress(x, error_bound=error_bound, **kwargs)
        if self.rec.enabled:  # count inside the traced window only
            with self._lock:
                self.encode_calls += 1
                self.raw_bytes_in += x.nbytes
                self.stored_bytes_out += ct.nbytes
        if self.verify:
            self._check(x, ct)
        return ct

    def decompress(self, ct):
        with self.rec.span("compression.decode"):
            out = self._decompress(ct)
        if self.rec.enabled:
            with self._lock:
                self.decode_calls += 1
                self.raw_bytes_decoded += out.nbytes
        return out

    def _check(self, x, ct) -> None:
        from repro.utils.profiler import StageProfiler, bind_to_thread

        # a disabled thread-bound profiler keeps this extra decode out of
        # the session's stage totals
        with bind_to_thread(StageProfiler(enabled=False)):
            out = self._decompress(ct)
        eb = float(ct.error_bound)
        err = float(np.max(np.abs(out.astype(np.float64) - x.astype(np.float64))))
        vrange = float(x.max() - x.min())
        with self._lock:
            self.checked += 1
            self.max_err_over_bound = max(self.max_err_over_bound, err / eb)
            if vrange > 0:
                self.rel_ebs.append(eb / vrange)
            if self.sample is None or x.nbytes > self.sample[0].nbytes:
                self.sample = (np.array(x, copy=True), eb)


class ArenaProbe:
    """Wraps one ``ByteArena``'s ``put`` / ``get`` with spans and adds up
    the bytes each ``put`` pushed out to disk."""

    def __init__(self, arena, rec: SpanRecorder):
        self.spilled_bytes = 0
        put = arena.put
        wrap_method(arena, "get", rec, "core.arena.get")

        def probed_put(data, group=None):
            before = arena.spilled_nbytes
            with rec.span("core.arena.put"):
                key = put(data, group=group)
            if rec.enabled:
                self.spilled_bytes += max(0, arena.spilled_nbytes - before)
            return key

        arena.put = probed_put


def session_codec(session):
    """The codec a compressed session packs activations with (None for
    raw and distributed sessions)."""
    compressed = getattr(session, "compressed", None)
    return compressed.ctx.compressor if compressed is not None else None


def session_arenas(session) -> list:
    """Every ``ByteArena`` the session stores bytes in."""
    arenas = []
    compressed = getattr(session, "compressed", None)
    if compressed is not None and compressed.ctx.storage is not None:
        arenas.append(compressed.ctx.storage)
    store = getattr(session, "param_store", None) if session.trainer is not None else None
    if store is not None:
        arenas.append(store.storage)
    return arenas


def instrument_session(session, rec: SpanRecorder) -> tuple:
    """Install span wrappers on one in-process session's layers; returns
    ``(codec probe or None, arena probes)``."""
    from repro.nn.network import iter_layers

    for layer in iter_layers(session.network):
        wrap_method(layer, "forward", rec, "nn.forward", layer=layer.name)
        wrap_method(layer, "backward", rec, "nn.backward", layer=layer.name)
    wrap_method(session.optimizer, "step", rec, "nn.optimizer")
    wrap_method(session.trainer.loss, "forward", rec, "nn.loss")
    arena_probes = [ArenaProbe(arena, rec) for arena in session_arenas(session)]
    store = session.param_store
    if store is not None:
        wrap_method(store, "fetch", rec, "core.param_store.fetch")
        wrap_method(store, "writeback", rec, "core.param_store.writeback")
    if session.compressed is not None:
        wrap_method(
            session.compressed.controller, "update_error_bounds", rec, "core.adaptive.update"
        )
    if session.engine is not None:
        # the training thread's time inside the engine (hand-off, waiting
        # for a worker) belongs to the engine, not to the layer that called
        for attr in ("submit_pack", "obtain", "flush"):
            wrap_method(session.engine, attr, rec, "core.engine")
    codec = session_codec(session)
    return (CodecProbe(codec, rec) if codec is not None else None), arena_probes


def span_ms_per_step(spans: List[dict], steps: int) -> Dict[str, float]:
    """Span name -> self time in ms per step, over all threads."""
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + selfs[s["id"]]
    return {name: 1e3 * sec / max(steps, 1) for name, sec in out.items()}


def _best_of(fn: Callable[[], object], repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def kernel_throughputs(codec, x: np.ndarray, eb: float) -> Dict[str, float]:
    """Direct timed calls of the five backend kernels on one captured
    activation, MB of the kernel's own input per second (best of 5)."""
    from repro.compression.szlike.huffman import DEFAULT_CHUNK, HuffmanCodebook, histogram
    from repro.kernels import get_backend
    from repro.utils.scratch import ScratchPool

    backend = get_backend(codec.kernel_backend_selected)
    radius, ndim = codec.radius, min(codec.lorenzo_ndim, x.ndim)
    pool = ScratchPool()
    with ExitStack() as stack:
        codes, outliers, _ = backend.quantize_encode(x, eb, radius, ndim, pool, stack)
        codes = np.array(codes, copy=True)
        outliers = np.array(outliers, dtype=np.int64, copy=True)
    codes32 = codes.astype(np.uint32)
    q = backend.quantize_decode(codes32, outliers, radius, x.shape, ndim)
    book = HuffmanCodebook.from_frequencies(histogram(codes, codec.dict_size))
    payload, total_bits, offsets = backend.huffman_pack_words(
        codes, book.lengths, book.codes, DEFAULT_CHUNK
    )
    tsym, tlen = book.decode_tables()

    def quantize_encode():
        with ExitStack() as stack:
            backend.quantize_encode(x, eb, radius, ndim, pool, stack)

    timed = {
        "kernels.quantize_encode_mb_s": (quantize_encode, x.nbytes),
        "kernels.quantize_decode_mb_s": (
            lambda: backend.quantize_decode(codes32, outliers, radius, x.shape, ndim),
            codes32.nbytes,
        ),
        "kernels.lorenzo_predict_mb_s": (lambda: backend.lorenzo_predict(q, ndim), q.nbytes),
        "kernels.huffman_pack_mb_s": (
            lambda: backend.huffman_pack_words(codes, book.lengths, book.codes, DEFAULT_CHUNK),
            codes.nbytes,
        ),
        "kernels.huffman_unpack_mb_s": (
            lambda: backend.huffman_unpack_window(
                payload, total_bits, int(codes.size), tsym, tlen, book.max_length,
                offsets.astype(np.int64), DEFAULT_CHUNK,
            ),
            len(payload),
        ),
    }
    return {name: nbytes / 1e6 / _best_of(fn) for name, (fn, nbytes) in timed.items()}
