"""Per-thread scratch stack for hot-path array temporaries.

Every array that dies inside one layer pass or one codec call is taken
from a :class:`ScratchPool`, so a training step reuses one area of
memory instead of allocating (and page-faulting) its temporaries anew:

* Each thread owns a LIFO stack over one byte slab.  ``take(shape,
  dtype)`` is a context manager: it hands out a writable ``dtype`` view
  at the top of the calling thread's stack, and leaving it pops the
  view.  Takes nest, and release in reverse order; a region released
  out of order is popped once everything above it is.
* A take that does not fit in the slab is served by a fresh allocation
  and counted as a miss.  The stack records how deep it went, and once
  the thread's stack is empty again the slab grows to that high-water,
  so after a warm-up pass every take is a hit and the slab is the
  largest set of temporaries the thread held at once.
* Threads never share a slab, so the server scheduler's threads stepping
  different tenants at once never alias (the one lock guards the hit /
  miss counters).

:data:`WORKSPACE` is the one pool the library itself uses: the conv /
pool layers' temporaries, the codec's intermediates and the adaptive
controller's statistics come from it, so a step's scratch is the largest
single set of them, not one set each.
"""

from __future__ import annotations

import math
import sys
import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = ["ScratchPool", "WORKSPACE"]

#: every take starts on a multiple of this many bytes of the slab, so a
#: view of any dtype is aligned
ALIGN = 64


class _Stack(threading.local):
    """One thread's slab and the ``[start, end, live]`` frame of each of
    its outstanding takes, in take order."""

    def __init__(self):
        self.slab = np.empty(0, dtype=np.uint8)
        self.frames = []
        self.high_water = 0


class ScratchPool:
    """Per-thread LIFO stacks of scratch views over one slab each."""

    #: called with the raw bytes of every released take (the sanitizer
    #: poisons them); ``None`` costs nothing
    _on_release = None

    def __init__(self):
        self._stack = _Stack()
        self._lock = threading.Lock()
        # -- statistics ----------------------------------------------------
        self.hits = 0
        self.misses = 0
        # Looked up, not imported: ``WORKSPACE`` is built while ``repro`` is
        # being imported, when ``repro.core`` (which imports ``repro.nn``,
        # which imports this module) cannot be imported yet.  A sanitizer
        # nobody has loaded cannot be enabled either; it picks that pool up
        # itself when it is (``sanitizer.enable``).
        sanitizer = sys.modules.get("repro.core.sanitizer")
        if sanitizer is not None:
            sanitizer.maybe_instrument(self, "scratch")

    @property
    def nbytes(self) -> int:
        """Bytes of the calling thread's slab: its stack's high-water once
        the stack has emptied after the deepest pass."""
        return self._stack.slab.nbytes

    @contextmanager
    def take(self, shape, dtype) -> Iterator[np.ndarray]:
        """Yield a writable ``shape``/*dtype* array view (contents
        undefined) at the top of the calling thread's stack; the view is
        popped on exit and must not be used after it."""
        dtype = np.dtype(dtype)
        st = self._stack
        start = -(-st.frames[-1][1] // ALIGN) * ALIGN if st.frames else 0
        end = start + math.prod(shape) * dtype.itemsize
        st.high_water = max(st.high_water, end)
        hit = end <= st.slab.size
        raw = st.slab[start:end] if hit else np.empty(end - start, dtype=np.uint8)
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        frame = [start, end, True]
        st.frames.append(frame)
        try:
            yield raw.view(dtype).reshape(shape)
        finally:
            if self._on_release is not None:
                self._on_release(raw)
            frame[2] = False
            while st.frames and not st.frames[-1][2]:
                st.frames.pop()
            if not st.frames and st.high_water > st.slab.size:
                st.slab = np.empty(st.high_water, dtype=np.uint8)

    def clear(self) -> None:
        """Drop the calling thread's slab and forget its high-water."""
        st = self._stack
        st.slab = np.empty(0, dtype=np.uint8)
        st.high_water = st.frames[-1][1] if st.frames else 0


#: The process-wide pool.  Conv and pooling layers borrow here every array
#: that dies inside one ``forward`` / ``backward``, the SZ codec its
#: quantize / predict / code intermediates and the adaptive controller its
#: float64 statistics.  A layer packs what it saves after its takes end,
#: and a conv backward's slice-by-slice read of its saved input borrows
#: only the ReLU recompute's one-slice mask on top of the layer's takes,
#: so the slab is sized by the largest layer's set.  What
#: a layer returns or saves is never pooled: those are the tensors
#: compression exists to free.
WORKSPACE = ScratchPool()
