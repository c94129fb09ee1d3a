"""Reusable scratch-buffer pool for hot-path array temporaries.

The SZ compress pipeline historically allocated three-plus full-size
temporaries per tensor per call (the float64 quantization grid, the
Lorenzo residuals, the shifted code array) — tens of megabytes of
allocator/page-fault traffic for every activation on every iteration.
:class:`ScratchPool` keeps those buffers alive between calls:

* ``take(shape, dtype)`` hands out a writable array view backed by a
  pooled flat buffer.  Buffers are keyed by dtype and matched by
  capacity (best fit), so one pooled buffer serves *every* layer shape
  of that dtype — the pool's footprint is bounded by the largest tensor,
  not the number of distinct shapes.  When a dtype bucket has nothing
  big enough, an oversized buffer of *another* dtype is served as a
  byte-capacity view instead of allocating fresh (the compiled kernel
  backends request different shapes/dtypes than the NumPy reference,
  which used to defeat the pool on every backend switch).
* The context-manager form returns the buffer on exit; concurrent takes
  (the server scheduler's worker threads step different tenants at once
  and share :data:`WORKSPACE`) are safe — each take pops a distinct
  buffer under the pool lock, or allocates fresh when the pool is empty.

:data:`WORKSPACE` is the one pool the library itself uses: the conv /
pool layers' temporaries and the codec's intermediates come from it, so
a step's scratch is the largest single set of them, not one set each.
"""

from __future__ import annotations

import math
import sys
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List

import numpy as np

__all__ = ["ScratchPool", "WORKSPACE"]

#: free buffers a pool retains per dtype; a return beyond the cap drops
#: the smallest free buffer, so the largest (most reusable) survive
MAX_PER_DTYPE = 8
#: ceiling on a pool's free bytes across all dtypes; a return that would
#: exceed it evicts smallest-first
MAX_TOTAL_BYTES = 256 << 20


class ScratchPool:
    """Thread-safe pool of reusable flat scratch buffers."""

    def __init__(self):
        self._free: Dict[np.dtype, List[np.ndarray]] = {}
        self._lock = threading.Lock()
        # -- statistics ----------------------------------------------------
        self.hits = 0
        self.misses = 0
        self.cross_dtype_hits = 0
        self.free_bytes = 0
        # Looked up, not imported: ``WORKSPACE`` is built while ``repro`` is
        # being imported, when ``repro.core`` (which imports ``repro.nn``,
        # which imports this module) cannot be imported yet.  A sanitizer
        # nobody has loaded cannot be enabled either; it picks that pool up
        # itself when it is (``sanitizer.enable``).
        sanitizer = sys.modules.get("repro.core.sanitizer")
        if sanitizer is not None:
            sanitizer.maybe_instrument(self, "scratch")

    def _borrow(self, size: int, dtype: np.dtype) -> np.ndarray:
        """Pop a free buffer with capacity for ``size`` ``dtype`` elements.

        The returned buffer keeps its *own* dtype — it may come from
        another dtype's bucket when that bucket holds the only adequate
        byte capacity; :meth:`take` reinterprets the bytes and
        :meth:`_give` files it back under its original dtype.
        """
        nbytes = size * dtype.itemsize
        with self._lock:
            bucket = self._free.get(dtype)
            if bucket:
                # Best fit: smallest free buffer with enough capacity.
                best = None
                for i, buf in enumerate(bucket):
                    if buf.size >= size and (best is None or buf.size < bucket[best].size):
                        best = i
                if best is not None:
                    buf = bucket.pop(best)
                    self.free_bytes -= buf.nbytes
                    self.hits += 1
                    return buf
            # Cross-dtype rescue: smallest free buffer of any other dtype
            # with enough *byte* capacity, rather than allocating fresh.
            best_pick = None
            for key, other in self._free.items():
                if key == dtype:
                    continue
                for i, buf in enumerate(other):
                    if buf.nbytes >= nbytes and (
                        best_pick is None or buf.nbytes < best_pick[2].nbytes
                    ):
                        best_pick = (key, i, buf)
            if best_pick is not None:
                key, i, raw = best_pick
                self._free[key].pop(i)
                self.free_bytes -= raw.nbytes
                self.hits += 1
                self.cross_dtype_hits += 1
                return raw
            self.misses += 1
        return np.empty(size, dtype=dtype)

    def _give(self, buf: np.ndarray) -> None:
        dtype = buf.dtype
        with self._lock:
            bucket = self._free.setdefault(dtype, [])
            bucket.append(buf)
            self.free_bytes += buf.nbytes
            bucket.sort(key=lambda b: b.size)
            while len(bucket) > MAX_PER_DTYPE or (self.free_bytes > MAX_TOTAL_BYTES and bucket):
                dropped = bucket.pop(0)  # smallest first
                self.free_bytes -= dropped.nbytes

    @contextmanager
    def take(self, shape, dtype) -> Iterator[np.ndarray]:
        """Yield a writable ``shape``/*dtype* array view (contents
        undefined); the backing buffer returns to the pool on exit."""
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        buf = self._borrow(size, dtype)
        try:
            if buf.dtype == dtype:
                yield buf[:size].reshape(shape)
            else:
                # Cross-dtype buffer: reinterpret the leading bytes.
                view = buf.view(np.uint8)[: size * dtype.itemsize].view(dtype)
                yield view.reshape(shape)
        finally:
            self._give(buf)

    def clear(self) -> None:
        """Drop every pooled buffer (frees the memory)."""
        with self._lock:
            self._free.clear()
            self.free_bytes = 0

    def __repr__(self) -> str:
        with self._lock:
            n = sum(len(b) for b in self._free.values())
            free_bytes = self.free_bytes
        return f"ScratchPool(free_buffers={n}, free_bytes={free_bytes})"


#: The process-wide pool.  Conv and pooling layers borrow here every array
#: that dies inside one ``forward`` / ``backward``, and the SZ codec its
#: quantize / predict / code intermediates: the two never hold buffers at
#: once on one thread (a layer packs what it saves after its borrows end,
#: and unpacks before it borrows), so one set of buffers serves both.
#: What a layer returns or saves is never pooled: those are the tensors
#: compression exists to free.
WORKSPACE = ScratchPool()
