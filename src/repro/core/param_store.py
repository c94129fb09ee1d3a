"""Out-of-core parameter & optimizer state: arena-backed weights with
just-in-time materialization.

:class:`ParamStore` holds every layer's weights and their SGD velocity
as serialized byte strings in a budgeted
:class:`~repro.core.arena.ByteArena` — optionally lossless-compressed —
two entries per layer:

==============================  ======================================
entry                           holds
==============================  ======================================
``layer.name``                  the layer's parameters, flattened and
                                concatenated in ``parameters()`` order
``f"{layer.name}#velocity"``    the velocity of the layer's parameters
                                the optimizer owns, in the same order
==============================  ======================================

and materializes them only around the window that needs them:

* **forward / backward**: each layer's entry is fetched once and every
  ``Parameter.data`` becomes a view into it just before the layer runs;
  right after, each drops back to a zero-byte stub, so at most one
  layer's weights are resident at a time.
* **update**: the optimizer's slot backend (:class:`StoreSlots`) fetches
  the layer's velocity entry once, applies every pending parameter's
  in-place update through views, and writes the weights and the
  velocity back once.  Unless the :class:`~repro.nn.trainer.Trainer` has
  gradient transforms, it runs inside the layer's backward once ``dx``
  is computed, while the weights are still bound — bit-identical, and
  no third weight fetch; otherwise ``SGD.step`` opens the same layer
  window.

Weights and velocities are written only inside their layer's window; a
parameter's velocity slice is readable alone (``SGD.momentum_buffer``,
for the controller's Eq. 8 budget).  Serialization is bit-exact (raw
``tobytes()`` or a lossless codec), so training is bit-identical to
resident training.  The :class:`MemoryTracker` charges entries to its
*persistent* pool on adopt/write-back and credits them exactly once on
release.

Usage (what :func:`repro.api.build_session` does under
``storage.params="arena"``, with the session's tracker, after any other
wrapper of the layers' methods so the store's binding is outermost)::

    net = build_scaled_model("vgg16", image_size=32)
    opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
    store = ParamStore(budget_bytes=256 << 10)   # weights live out-of-core
    store.attach(net, opt)
    ...train...
    store.close()                # weights resident again, arena closed
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.compression.registry import Codec
from repro.compression.registry import dumps as _codec_dumps
from repro.compression.registry import loads as _codec_loads
from repro.core.arena import ByteArena
from repro.core.memory_tracker import MemoryTracker
from repro.nn.layers.base import Layer, Parameter
from repro.nn.network import iter_layers
from repro.nn.optim import SGD, SlotState

__all__ = ["ParamStore", "StoreSlots", "StoredEntry"]


@dataclass
class StoredEntry:
    """One array (a layer's weights or their velocity) living in the arena."""

    name: str
    shape: tuple
    dtype: str
    raw_nbytes: int
    stored_nbytes: int
    arena_key: int


class _Layout:
    """The parameters one flat entry concatenates, and where each sits."""

    def __init__(self, name: str, params: Sequence[Parameter]):
        self.name = name
        self.params = list(params)
        self._at: Dict[int, slice] = {}
        start = 0
        for p in self.params:
            self._at[id(p)] = slice(start, start + p.size)
            start += p.size

    @staticmethod
    def join(arrays) -> np.ndarray:
        return np.concatenate([np.asarray(a).reshape(-1) for a in arrays])

    def view(self, flat: np.ndarray, p: Parameter) -> np.ndarray:
        return flat[self._at[id(p)]].reshape(p.shape)


class ParamStore:
    """Arena-backed storage for parameters and optimizer slots.

    Parameters
    ----------
    budget_bytes:
        In-memory budget of the store's own :class:`ByteArena` (closed
        again by :meth:`close`); entries beyond it spill to disk and are
        read back on demand.  A dedicated arena (not shared with
        activation storage) keeps the FIFO spill order meaningful for
        each stream.
    spill_dir:
        Spill directory for the store's arena (``None`` = a private
        temp dir).  Declarative configs (``StorageSpec.spill_dir``)
        route here so param and activation spill files can share one
        operator-chosen location.
    codec:
        ``None`` (default) stores raw ``tobytes()`` — zero codec cost,
        bit-exact trivially.  A lossless :class:`Codec` instance (e.g.
        ``get_codec("lossless")``) adds compression on the wire; lossy
        codecs are rejected because a parameter round-trip must be
        bit-exact.
    tracker:
        Optional :class:`MemoryTracker`; the store charges its entries
        to the tracker's persistent pool.
    """

    def __init__(
        self,
        budget_bytes: Optional[int] = 64 << 20,
        codec: Optional[Codec] = None,
        tracker: Optional[MemoryTracker] = None,
        spill_dir: Optional[str] = None,
    ):
        self.storage = ByteArena(budget_bytes=budget_bytes, spill_dir=spill_dir)
        if codec is not None and not getattr(codec, "lossless", False):
            raise ValueError(
                f"ParamStore requires a lossless codec (parameters must "
                f"round-trip bit-exactly); {getattr(codec, 'name', codec)!r} is lossy"
            )
        self.codec = codec
        self.tracker = tracker or MemoryTracker()
        #: entry name -> StoredEntry; guarded by _lock (a server runs a
        #: tenant's steps on whichever scheduler thread is free, so the
        #: store cannot assume one owning thread)
        self._entries: Dict[str, StoredEntry] = {}
        self._lock = threading.RLock()
        # -- attachment state ---------------------------------------------
        self._attached = False
        #: layer name -> its weight entry's layout, and each parameter's
        self._layers: Dict[str, _Layout] = {}
        self._layer_of: Dict[int, _Layout] = {}
        self._stubs: Dict[int, np.ndarray] = {}
        #: layer name -> bind depth, and the bound layers' materialized entries
        self._bound: Dict[str, int] = {}
        self._live: Dict[str, np.ndarray] = {}
        self._orig_methods: List[tuple] = []
        self._optimizer: Optional[SGD] = None
        # -- statistics ----------------------------------------------------
        #: bytes of parameter/slot arrays currently materialized (bound)
        self.materialized_nbytes = 0
        self.peak_materialized_nbytes = 0
        self.fetch_count = 0
        self.writeback_count = 0
        #: always 0, every write-back is stored (a former counter)
        self.writeback_skipped = 0
        from repro.core.sanitizer import maybe_instrument

        maybe_instrument(self, "param_store")

    # -- serialization -----------------------------------------------------
    def _encode(self, arr: np.ndarray) -> bytes:
        if self.codec is None:
            return arr.tobytes()
        return _codec_dumps(self.codec.compress(arr))

    def _decode(self, entry: StoredEntry, data: bytes) -> np.ndarray:
        if self.codec is None:
            out = np.frombuffer(data, dtype=entry.dtype).reshape(entry.shape)
            return out.copy()  # frombuffer views are read-only
        # codecs record the shape and hand back a fresh writable array
        return self.codec.decompress(_codec_loads(data))

    # -- entry lifecycle ---------------------------------------------------
    def adopt(self, name: str, arr: np.ndarray) -> StoredEntry:
        """Take ownership of *arr*: serialize it into the arena and charge
        the tracker's persistent pool."""
        with self._lock:
            if name in self._entries:
                raise ValueError(f"entry {name!r} already stored")
            blob = self._encode(arr)
            entry = StoredEntry(
                name=name,
                shape=tuple(arr.shape),
                dtype=str(arr.dtype),
                raw_nbytes=arr.nbytes,
                stored_nbytes=len(blob),
                arena_key=self.storage.put(blob),
            )
            self._entries[name] = entry
        self.tracker.record_persistent(name, entry.raw_nbytes, entry.stored_nbytes)
        return entry

    def fetch(self, name: str) -> np.ndarray:
        """Materialize the entry's current value (a fresh writable array)."""
        with self._lock:
            entry = self._entries[name]
            key = entry.arena_key
        self.fetch_count += 1
        return self._decode(entry, self.storage.get(key))

    def writeback(self, name: str, arr: np.ndarray) -> None:
        """Persist a new value: fresh bytes replace the old arena entry.

        The value is cast to the entry's recorded dtype/shape (matching
        resident in-place assignment semantics); a size mismatch raises
        here, at write time, rather than corrupting the next fetch.
        The old bytes are released only once the new ones are stored: a
        failed ``put`` (a full spill disk) re-raises with the old value
        still fetchable."""
        with self._lock:
            entry = self._entries[name]
        blob = self._encode(np.asarray(arr, dtype=entry.dtype).reshape(entry.shape))
        with self._lock:
            entry = self._entries[name]
            old_key, entry.arena_key = entry.arena_key, self.storage.put(blob)
            entry.stored_nbytes = len(blob)
            self.storage.discard(old_key)
        self.writeback_count += 1
        self.tracker.record_persistent(name, entry.raw_nbytes, entry.stored_nbytes)

    def release(self, name: str) -> np.ndarray:
        """Materialize and permanently drop the entry (exactly once; a
        second release of the same name raises ``KeyError``)."""
        with self._lock:
            entry = self._entries.pop(name)
        out = self._decode(entry, self.storage.get(entry.arena_key))
        self.storage.discard(entry.arena_key)
        self.tracker.release_persistent(name)
        return out

    def _read_part(self, name: str, layout: _Layout, p: Parameter) -> np.ndarray:
        """*p*'s slice of entry *name* (a fresh array)."""
        return layout.view(self.fetch(name), p)

    # -- attachment: JIT binding around forward/backward/update ------------
    def attach(self, network: Layer, optimizer: Optional[SGD] = None) -> "ParamStore":
        """Move *network*'s parameters (and *optimizer*'s velocity) into the
        store and wrap each layer so weights materialize just-in-time.

        After this call ``Parameter.data`` outside a layer's
        forward/backward (or the optimizer's update window) is a
        read-only NaN stub — accidental out-of-window reads poison the
        result loudly instead of silently using stale weights.
        """
        if self._attached:
            raise RuntimeError("ParamStore is already attached to a network")
        self._attached = True
        for layer in iter_layers(network):
            params = layer.parameters()
            if not params:
                continue
            layout = _Layout(layer.name, params)
            self.adopt(layout.name, layout.join(p.data for p in params))
            self._layers[layout.name] = layout
            self._bound[layout.name] = 0
            for p in params:
                self._layer_of[id(p)] = layout
                self._stubs[id(p)] = self._make_stub(p.data)
                p.data = self._stubs[id(p)]
            self._wrap_layer(layer, layout)
        if optimizer is not None:
            self.attach_optimizer(optimizer)
        return self

    def attach_optimizer(self, optimizer: SGD) -> "ParamStore":
        """Migrate *optimizer*'s velocity into the store (accumulated
        momentum survives) and install the store-backed slot state."""
        if self._optimizer is not None:
            raise RuntimeError("ParamStore already has an optimizer attached")
        self._optimizer = optimizer
        optimizer.use_slot_state(StoreSlots(self))
        return self

    @staticmethod
    def _make_stub(arr: np.ndarray) -> np.ndarray:
        # Zero-byte placeholder with the real shape/dtype: shape-dependent
        # code (grad reshapes) keeps working, reads give NaN
        # (loud), writes raise (broadcast views are read-only).
        return np.broadcast_to(np.asarray(np.nan, dtype=arr.dtype), arr.shape)

    def _wrap_layer(self, layer: Layer, layout: _Layout) -> None:
        orig_forward, orig_backward = layer.forward, layer.backward
        self._orig_methods.append((layer, orig_forward, orig_backward))

        def forward(x, _orig=orig_forward):
            self._bind(layout)
            try:
                return _orig(x)
            finally:
                self._unbind(layout)

        def backward(dout, _orig=orig_backward):
            self._bind(layout)
            try:
                dx = _orig(dout)
                opt = self._optimizer
                if opt is not None and opt.update_in_backward:
                    # dx is computed: update while the weights are bound
                    opt.update(layout.params)
                return dx
            finally:
                self._unbind(layout)

        layer.forward = forward
        layer.backward = backward

    def _bind(self, layout: _Layout) -> None:
        if self._bound[layout.name] == 0:
            flat = self.fetch(layout.name)
            self._live[layout.name] = flat
            for p in layout.params:
                p.data = layout.view(flat, p)
            self.materialized_nbytes += flat.nbytes
            self.peak_materialized_nbytes = max(
                self.peak_materialized_nbytes, self.materialized_nbytes)
        self._bound[layout.name] += 1

    def _unbind(self, layout: _Layout) -> None:
        # Only update_window writes back; otherwise the arena copy stays
        # authoritative and unbinding just drops the materialization.
        self._bound[layout.name] -= 1
        if self._bound[layout.name] == 0:
            self.materialized_nbytes -= self._live.pop(layout.name).nbytes
            for p in layout.params:
                p.data = self._stubs[id(p)]

    @contextmanager
    def update_window(self, layout: Optional[_Layout]) -> Iterator[None]:
        """Materialize one layer's weights for its optimizer update (the
        enclosing backward may have them bound) and write the entry back
        on exit; ``None`` is a parameter the store does not hold, whose
        weights never left residency."""
        if layout is None:
            yield
            return
        self._bind(layout)
        try:
            yield
        finally:
            self.writeback(layout.name, self._live[layout.name])
            self._unbind(layout)

    # -- teardown ----------------------------------------------------------
    def detach(self) -> None:
        """Restore resident training: materialize every entry back into
        its parameter/slot array, unwrap the layers, and release all
        accounting (idempotent)."""
        if not self._attached:
            return
        for layer, fwd, bwd in self._orig_methods:
            layer.forward, layer.backward = fwd, bwd
        self._orig_methods.clear()
        if self._optimizer is not None:
            from repro.nn.optim import ResidentSlots

            # use_slot_state migrates: drops each velocity from the store
            # (releasing its accounting) into the resident backend.
            self._optimizer.use_slot_state(ResidentSlots())
            self._optimizer = None
        for layout in self._layers.values():
            flat = self.release(layout.name)
            for p in layout.params:
                p.data = layout.view(flat, p).copy()
        self._layers.clear()
        self._layer_of.clear()
        self._stubs.clear()
        self._bound.clear()
        self._live.clear()
        self.materialized_nbytes = 0
        self._attached = False

    def close(self) -> None:
        """Detach (restoring resident state) and close the arena."""
        self.detach()
        self.storage.close()

    def __enter__(self) -> "ParamStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reporting ---------------------------------------------------------
    @property
    def stored_nbytes(self) -> int:
        with self._lock:
            return sum(e.stored_nbytes for e in self._entries.values())

    @property
    def raw_nbytes(self) -> int:
        with self._lock:
            return sum(e.raw_nbytes for e in self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        codec = getattr(self.codec, "name", None) or "raw"
        return (
            f"ParamStore(entries={len(self)}, stored={self.stored_nbytes}B, "
            f"codec={codec}, arena={self.storage!r})"
        )


class StoreSlots(SlotState):
    """Slot backend holding optimizer state in a :class:`ParamStore`.

    The velocities of the optimizer-owned parameters of one layer form a
    group: entry ``f"{layer}#velocity"`` concatenates them (a parameter
    the store does not hold is a group of its own, under its name).  One
    ``update`` window covers a group: it materializes the layer's
    weights and velocity entry once, and writes both back once.
    """

    def __init__(self, store: ParamStore):
        self.store = store
        self._group_of: Dict[int, _Layout] = {}

    @staticmethod
    def _entry(layout: _Layout) -> str:
        return f"{layout.name}#velocity"

    def init(self, params: Sequence[Parameter], velocities: Sequence[np.ndarray]) -> None:
        members: Dict[str, list] = {}
        for p, v in zip(params, velocities):
            layer = self.store._layer_of.get(id(p))
            members.setdefault(layer.name if layer is not None else p.name, []).append((p, v))
        for name, pairs in members.items():
            layout = _Layout(name, [p for p, _ in pairs])
            self.store.adopt(self._entry(layout), layout.join(v for _, v in pairs))
            for p in layout.params:
                self._group_of[id(p)] = layout

    def groups(self, params: Sequence[Parameter]) -> List[List[Parameter]]:
        groups: Dict[int, List[Parameter]] = {}
        for p in params:
            groups.setdefault(id(self._group_of[id(p)]), []).append(p)
        return list(groups.values())

    @contextmanager
    def update(self, params: Sequence[Parameter]) -> Iterator[List[np.ndarray]]:
        layout = self._group_of[id(params[0])]  # all of params are in it: see groups()
        with self.store.update_window(self.store._layer_of.get(id(params[0]))):
            flat = self.store.fetch(self._entry(layout))
            try:
                yield [layout.view(flat, p) for p in params]
            finally:
                # Like resident slots, persist whatever the update
                # reached, for weights (update_window) and velocity alike.
                self.store.writeback(self._entry(layout), flat)

    def read(self, param: Parameter) -> np.ndarray:
        layout = self._group_of[id(param)]
        return self.store._read_part(self._entry(layout), layout, param)

    def drop(self, params: Sequence[Parameter]) -> List[np.ndarray]:
        """Release the whole group of each of *params*."""
        dropped: Dict[int, np.ndarray] = {}
        for p in params:
            layout = self._group_of.get(id(p))
            if layout is None:  # its group went with an earlier parameter
                continue
            flat = self.store.release(self._entry(layout))
            for q in layout.params:
                dropped[id(q)] = layout.view(flat, q)
                del self._group_of[id(q)]
        return [dropped[id(p)] for p in params]
