"""Kernel backend registry: ``get_backend("numpy" | "numba" | "auto")``.

The five hot kernels of the SZ pipeline — ``quantize_encode``,
``quantize_decode``, ``lorenzo_predict``, ``huffman_pack_words``,
``huffman_unpack_window`` — are exposed behind a
:class:`KernelBackend` so the same codec contract runs on the NumPy
reference today and on compiled implementations when present.

Selection semantics:

* ``"numpy"`` — the reference backend, always available.
* ``"numba"`` — the ``@njit(cache=True)``-compiled loops; raises
  :class:`ValueError` when numba is unavailable or fails its probe.
* ``"auto"`` — probes numba once per process: import, compile, and a
  one-shot **warmup** that runs all five kernels on tiny inputs and
  verifies bit-identity against the reference (so JIT compilation never
  lands inside a profiled stage, and a miscompiled kernel can never be
  selected).  Any probe failure degrades to numpy — counted in
  :func:`kernel_stats`, never raised.

A selected numba backend additionally degrades *per call*: a kernel
that raises at runtime falls back to the reference implementation for
that call (``runtime_fallbacks`` in :func:`kernel_stats`).

The NumPy reference degrades *per tensor* instead: a tensor whose grid
indices are not provably ``int32``-exact takes the same code in
``int64`` at about twice the cost (``wide_grid_calls``).

All three are also logged on ``repro.kernels`` (the library configures
no handler or level): the first ``"auto"`` -> numpy fallback of a
process at INFO with the probe error, every runtime fallback at WARNING
with the kernel name, the first wide-grid call at INFO with the tensor's
shape, error bound and grid magnitude.
"""

from __future__ import annotations

import logging
import threading
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "KernelBackend",
    "KERNEL_BACKENDS",
    "get_backend",
    "available_backends",
    "kernel_stats",
]

#: every accepted ``kernel_backend`` spelling (config validation checks
#: membership only, so configs round-trip on numba-less hosts too)
KERNEL_BACKENDS = ("numpy", "numba", "auto")


@dataclass(frozen=True)
class KernelBackend:
    """Five hot-kernel callables plus the name they were selected as."""

    name: str
    quantize_encode: Callable = field(repr=False)
    quantize_decode: Callable = field(repr=False)
    lorenzo_predict: Callable = field(repr=False)
    huffman_pack_words: Callable = field(repr=False)
    huffman_unpack_window: Callable = field(repr=False)


def _numpy_backend() -> KernelBackend:
    from repro.kernels import numpy_backend as nb

    return KernelBackend(
        name="numpy",
        quantize_encode=nb._numpy_quantize_encode,
        quantize_decode=nb._numpy_quantize_decode,
        lorenzo_predict=nb._numpy_lorenzo_predict,
        huffman_pack_words=nb._numpy_huffman_pack_words,
        huffman_unpack_window=nb._numpy_huffman_unpack_window,
    )


_NUMPY = _numpy_backend()

_lock = threading.Lock()
#: probe state: None = not probed yet; (backend | None, error | None)
_probe: Optional[tuple] = None
_counters = {"auto_fallbacks": 0, "runtime_fallbacks": 0, "warmups": 0, "wide_grid_calls": 0}
_log = logging.getLogger("repro.kernels")


def _note_runtime_fallback(kernel: str) -> None:
    with _lock:
        _counters["runtime_fallbacks"] += 1
    _log.warning("compiled kernel %s raised; NumPy reference used for this call", kernel, exc_info=True)


def note_wide_grid(kernel: str, shape, error_bound, magnitude: float) -> None:
    """Count a reference-kernel call that needed ``int64`` grid indices."""
    with _lock:
        _counters["wide_grid_calls"] += 1
        first = _counters["wide_grid_calls"] == 1
    if first:
        _log.info(
            "%s took the wide (int64) grid path, about 2x the int32 cost: "
            "shape %s, error bound %s, grid magnitude %.3g (needs < 2^31)",
            kernel, tuple(shape), error_bound, magnitude,
        )


def warmup_backend(backend: KernelBackend, reference: KernelBackend = _NUMPY) -> None:
    """One-shot warmup: run all five kernels on tiny inputs, the two
    quantize kernels under 2-D Lorenzo and unpredicted (``ndim=0``, the
    codec's other candidate), and verify bit-identity against
    *reference*.  Raises on any mismatch."""
    from repro.utils.scratch import WORKSPACE

    rng = np.random.default_rng(0)
    x = (rng.standard_normal((2, 3, 5, 5)) * 3).astype(np.float32)
    x.reshape(-1)[::7] = 0.0
    eb, radius, ndim = 1e-2, 8, 2  # tiny radius => real outliers in play

    results = []
    for b in (backend, reference):
        with ExitStack() as stack:
            codes, outliers, flat = b.quantize_encode(x, eb, radius, ndim, WORKSPACE, stack)
            codes, outliers, flat = codes.copy(), outliers.copy(), flat.copy()
        q = b.quantize_decode(codes, outliers, radius, x.shape, ndim)
        with ExitStack() as stack:
            plain = [a.copy() for a in b.quantize_encode(x, eb, radius, 0, WORKSPACE, stack)]
        plain.append(b.quantize_decode(plain[0], plain[1], radius, x.shape, 0))
        pred = b.lorenzo_predict(q.astype(np.int64), ndim)
        lengths = np.zeros(2 * radius, dtype=np.uint8)
        lengths[: 2 * radius] = 4  # fixed-length book covers every code
        cw = np.arange(2 * radius, dtype=np.uint32)
        payload, total_bits, chunk_offsets = b.huffman_pack_words(codes, lengths, cw, 16)
        L = 4
        tsym = np.arange(1 << L, dtype=np.uint16)  # the dtypes decode_tables() builds
        tlen = np.full(1 << L, 4, dtype=np.uint8)
        syms = b.huffman_unpack_window(
            payload, total_bits, int(codes.size), tsym, tlen, L, chunk_offsets, 16
        )
        results.append((codes, outliers, flat, q, pred, payload, total_bits, syms, *plain))

    got, want = results
    for i, (g, w) in enumerate(zip(got, want)):
        if isinstance(g, bytes):
            same = g == w
        elif isinstance(g, int):
            same = g == w
        else:
            same = np.array_equal(np.asarray(g), np.asarray(w))
        if not same:
            raise ValueError(f"backend {backend.name!r} warmup mismatch (check {i})")
    with _lock:
        _counters["warmups"] += 1


def _probe_numba() -> tuple:
    """Import + compile + warm the numba backend once per process.

    Returns ``(backend | None, error_message | None)``; never raises.
    """
    global _probe
    with _lock:
        if _probe is not None:
            return _probe
    # Compile outside the lock (can take seconds); a racing second probe
    # just does redundant work and the first stored result wins.
    try:
        import numba  # noqa: F401 -- availability probe

        from repro.kernels import numba_backend

        loops = numba_backend.compile_kernels(numba.njit(cache=True))
        fns = numba_backend.make_kernel_functions(loops, _note_runtime_fallback)
        backend = KernelBackend(name="numba", **fns)
        warmup_backend(backend)
        result = (backend, None)
    except Exception as exc:  # degradation discipline: counted, never raised
        result = (None, f"{type(exc).__name__}: {exc}")
    with _lock:
        if _probe is None:
            _probe = result
        return _probe


def get_backend(name: str = "numpy") -> KernelBackend:
    """Resolve a backend by name (see module docstring for semantics)."""
    if name == "numpy":
        return _NUMPY
    if name == "numba":
        backend, error = _probe_numba()
        if backend is None:
            raise ValueError(
                f"kernel backend 'numba' is unavailable ({error}); "
                f"install numba or use 'auto'/'numpy'"
            )
        return backend
    if name == "auto":
        backend, error = _probe_numba()
        if backend is None:
            with _lock:
                _counters["auto_fallbacks"] += 1
                first = _counters["auto_fallbacks"] == 1
            if first:
                _log.info("kernel backend 'auto' degraded to numpy: %s", error)
            return _NUMPY
        return backend
    raise ValueError(
        f"kernel backend must be one of {KERNEL_BACKENDS}, got {name!r}"
    )


def available_backends() -> tuple:
    """Names of the backends that actually resolve on this host."""
    backend, _ = _probe_numba()
    return ("numpy", "numba") if backend is not None else ("numpy",)


def kernel_stats() -> dict:
    """Selection/degradation counters (surfaced in ``Session.kernel_stats``)."""
    with _lock:
        probed = _probe is not None
        backend, error = _probe if probed else (None, None)
        return {
            "numba_probed": probed,
            "numba_available": backend is not None,
            "probe_error": error,
            "auto_selects": "numba" if backend is not None else "numpy",
            **dict(_counters),
        }


def _reset_probe_for_tests() -> None:
    """Forget the probe result and zero the counters (test hook)."""
    global _probe
    with _lock:
        _probe = None
        for k in _counters:
            _counters[k] = 0
