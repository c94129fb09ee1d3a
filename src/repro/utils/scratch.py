"""Per-thread scratch stack for hot-path array temporaries.

Every array that dies inside one layer pass or one codec call is taken
from a :class:`ScratchPool`, so a training step reuses one area of
memory instead of allocating (and page-faulting) its temporaries anew:

* Each thread owns a LIFO stack over one byte slab.  ``take(shape,
  dtype)`` returns a context manager (a plain object, no generator) that
  hands out a writable ``dtype`` view at the top of the calling thread's
  stack on entry and pops it on exit.  Takes nest, and release in
  reverse order; a region released out of order is popped once
  everything above it is.
* A take that does not fit in the slab is served by a fresh allocation
  and counted as a miss.  The stack records how deep it went, and once
  the thread's stack is empty again the slab grows to that high-water,
  so after a warm-up pass every take is a hit and the slab is the
  largest set of temporaries the thread held at once.
* Threads never share a slab or a counter, so the server scheduler's
  threads stepping different tenants at once never alias and a take
  holds no lock: ``hits`` / ``misses`` sum the per-thread counts.

:data:`WORKSPACE` is the one pool the library itself uses: the conv /
pool layers' temporaries, the codec's intermediates and the adaptive
controller's statistics come from it, so a step's scratch is the largest
single set of them, not one set each.
"""

from __future__ import annotations

import math
import sys
import threading

import numpy as np

__all__ = ["ScratchPool", "WORKSPACE"]

#: every take starts on a multiple of this many bytes of the slab, so a
#: view of any dtype is aligned
ALIGN = 64


class _Stack(threading.local):
    """One thread's slab, its outstanding takes in take order, and its
    ``[hits, misses]``, which *counts* (one list per pool) also holds."""

    def __init__(self, counts: list):
        self.slab = np.empty(0, dtype=np.uint8)
        self.frames = []
        self.high_water = 0
        self.counts = [0, 0]
        counts.append(self.counts)


class _Take:
    """One ``with pool.take(shape, dtype) as view`` block: a frame of the
    entering thread's stack from ``__enter__`` until ``__exit__``.  The
    frame spans ``[start, end)`` of the stack; its bytes are ``_buf[_lo:
    _hi]``, the slab's on a hit and a fresh buffer's on a miss."""

    __slots__ = ("_pool", "_shape", "_dtype", "_stack", "_buf", "_lo", "_hi", "end", "live")

    def __init__(self, pool: "ScratchPool", shape, dtype):
        self._pool, self._shape, self._dtype = pool, shape, dtype

    def __enter__(self) -> np.ndarray:
        dtype = np.dtype(self._dtype)
        self._stack = st = self._pool._stack
        frames = st.frames
        start = -(-frames[-1].end // ALIGN) * ALIGN if frames else 0
        nbytes = math.prod(self._shape) * dtype.itemsize
        self.end = end = start + nbytes
        if end > st.high_water:
            st.high_water = end
        if end <= st.slab.size:
            self._buf, self._lo = st.slab, start
            st.counts[0] += 1
        else:
            self._buf, self._lo = np.empty(nbytes, dtype=np.uint8), 0
            st.counts[1] += 1
        self._hi = self._lo + nbytes
        self.live = True
        frames.append(self)
        return np.ndarray(self._shape, dtype, self._buf, self._lo)

    def __exit__(self, *exc) -> None:
        on_release = self._pool._on_release
        if on_release is not None:
            on_release(self._buf[self._lo : self._hi])
        self.live = False
        st = self._stack
        frames = st.frames
        while frames and not frames[-1].live:
            frames.pop()
        if not frames and st.high_water > st.slab.size:
            st.slab = np.empty(st.high_water, dtype=np.uint8)


class ScratchPool:
    """Per-thread LIFO stacks of scratch views over one slab each."""

    #: called with the raw bytes of every released take (the sanitizer
    #: poisons them); ``None`` costs nothing
    _on_release = None

    def __init__(self):
        self._counts = []
        self._stack = _Stack(self._counts)
        # Looked up, not imported: ``WORKSPACE`` is built while ``repro`` is
        # being imported, when ``repro.core`` (which imports ``repro.nn``,
        # which imports this module) cannot be imported yet.  A sanitizer
        # nobody has loaded cannot be enabled either; it picks that pool up
        # itself when it is (``sanitizer.enable``).
        sanitizer = sys.modules.get("repro.core.sanitizer")
        if sanitizer is not None:
            sanitizer.maybe_instrument(self, "scratch")

    @property
    def hits(self) -> int:
        """Takes served from a slab, over every thread."""
        return sum(counts[0] for counts in list(self._counts))

    @property
    def misses(self) -> int:
        """Takes served by a fresh allocation, over every thread."""
        return sum(counts[1] for counts in list(self._counts))

    @property
    def nbytes(self) -> int:
        """Bytes of the calling thread's slab: its stack's high-water once
        the stack has emptied after the deepest pass."""
        return self._stack.slab.nbytes

    def take(self, shape, dtype) -> _Take:
        """A context manager whose ``with`` block holds a writable
        ``shape``/*dtype* array view (contents undefined) at the top of
        the calling thread's stack; the view is popped on exit and must
        not be used after it."""
        return _Take(self, shape, dtype)

    def clear(self) -> None:
        """Drop the calling thread's slab and forget its high-water."""
        st = self._stack
        st.slab = np.empty(0, dtype=np.uint8)
        st.high_water = st.frames[-1].end if st.frames else 0


#: The process-wide pool.  Conv and pooling layers borrow here every array
#: that dies inside one ``forward`` / ``backward``, the SZ codec its
#: quantize / predict / code intermediates and the adaptive controller its
#: float64 statistics.  A layer packs what it saves after its takes end,
#: and a conv backward's slice-by-slice read of its saved input borrows
#: at most the ReLU recompute's one-slice mask on top of the layer's takes,
#: so the slab is sized by the largest layer's set.  What
#: a layer returns or saves is never pooled: those are the tensors
#: compression exists to free.
WORKSPACE = ScratchPool()
