"""The saved-tensor path's execution: codec work runs inline.

:class:`~repro.core.activation_store.CompressingContext` hands every
pack and unpack to its :class:`SyncEngine`, which runs the codec on the
calling (training) thread and calls back into the context for the
stateful half: the arena write and tracker charge on pack, the arena
read on unpack.  Nothing is queued, so nothing is ever outstanding and
no thread is started.

The engine is an object of its own so that its three calls
(``submit_pack`` / ``obtain`` / ``flush``) can be wrapped from outside
to attribute saved-tensor time, as the end-to-end benchmark's trace
does.  Overlapping the codec with compute on worker threads measured no
gain under the GIL and was removed (README, "Execution model").
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["SyncEngine"]


class SyncEngine:
    """Runs one context's pack and unpack work on the caller's thread."""

    def __init__(self, ctx: Any) -> None:
        self._ctx = ctx
        #: packs whose bytes went to the context's byte arena — the
        #: out-of-core path; in-process packs are not counted (the
        #: end-to-end benchmark reads it as ``core.engine.pack_jobs_per_step``)
        self.packs_submitted = 0

    def submit_pack(self, handle: Any, job: Callable[[], tuple]) -> None:
        """Run *job* (the pure compression work) and commit its payload
        to *handle*."""
        self._ctx._finalize_pack(handle, job())
        if handle.arena_key is not None:
            self.packs_submitted += 1

    def obtain(self, handle: Any):
        """Return the decompressed array for a packed *handle*."""
        return self._ctx._materialize(handle)

    def flush(self) -> None:
        """Nothing is ever outstanding: a no-op."""
