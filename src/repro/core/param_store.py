"""Out-of-core parameter & optimizer state: arena-backed weights with
just-in-time materialization.

:class:`ParamStore` holds every layer's weight tensors and optimizer
slots (SGD momentum, Adam moments) as serialized byte strings in a
budgeted :class:`~repro.core.arena.ByteArena` — optionally
lossless-compressed — and materializes them only around the window that
needs them:

* **forward / backward**: each layer's parameters are bound (fetched and
  installed as ``Parameter.data``) just before the layer runs and
  unbound (dropped back to a zero-byte stub) right after, so at most one
  layer's weights are resident at a time.
* **update**: the optimizer's slot backend (:class:`StoreSlots`) applies
  one parameter's in-place update and writes weights and slots back.
  Unless the :class:`~repro.nn.trainer.Trainer` has gradient transforms,
  it runs inside the layer's backward once ``dx`` is computed, while the
  weights are still bound — bit-identical, and no third weight fetch.

Serialization is bit-exact (raw ``tobytes()`` or a lossless codec), so
training is bit-identical to resident training.  The :class:`MemoryTracker`
charges entries to its *persistent* pool on adopt/write-back and credits
them exactly once on release.

Usage::

    net = build_scaled_model("vgg16", image_size=32)
    opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
    store = ParamStore(budget_bytes=256 << 10)   # weights live out-of-core
    store.attach(net, opt)
    ...train...
    store.detach()                               # weights resident again
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

from repro.compression.registry import Codec, get_codec
from repro.compression.registry import dumps as _codec_dumps
from repro.compression.registry import loads as _codec_loads
from repro.core.arena import ByteArena
from repro.core.memory_tracker import MemoryTracker
from repro.nn.layers.base import Layer, Parameter
from repro.nn.network import iter_layers
from repro.nn.optim import Optimizer, SlotState

__all__ = ["ParamStore", "StoreSlots", "StoredEntry"]


@dataclass
class StoredEntry:
    """One array (a weight tensor or an optimizer slot) living in the arena."""

    name: str
    layer_name: str
    shape: tuple
    dtype: str
    raw_nbytes: int
    stored_nbytes: int
    arena_key: int


def _slot_entry_name(param: Parameter, slot: str) -> str:
    return f"{param.name}#{slot}"


class ParamStore:
    """Arena-backed storage for parameters and optimizer slots.

    Parameters
    ----------
    storage:
        The :class:`ByteArena` holding the serialized bytes.  ``None``
        creates a private arena with *budget_bytes* (closed again by
        :meth:`close`).  A dedicated arena (not shared with activation
        storage) keeps the FIFO spill order meaningful for each stream.
    budget_bytes:
        In-memory budget for a store-owned arena; entries beyond it
        spill to disk and are read back on demand.
    spill_dir:
        Spill directory for a store-owned arena (``None`` = a private
        temp dir).  Declarative configs (``StorageSpec.spill_dir``)
        route here so param and activation spill files can share one
        operator-chosen location.
    codec:
        ``None`` (default) stores raw ``tobytes()`` — zero codec cost,
        bit-exact trivially.  A registry key or :class:`Codec` instance
        adds lossless compression on the wire; lossy codecs are rejected
        because a parameter round-trip must be bit-exact.
    tracker:
        Optional :class:`MemoryTracker`; the store charges its entries
        to the tracker's persistent pool.
    """

    def __init__(
        self,
        storage: Optional[ByteArena] = None,
        budget_bytes: Optional[int] = 64 << 20,
        codec: Union[Codec, str, None] = None,
        tracker: Optional[MemoryTracker] = None,
        spill_dir: Optional[str] = None,
    ):
        self._owns_storage = storage is None
        self.storage = (
            storage
            if storage is not None
            else ByteArena(budget_bytes=budget_bytes, spill_dir=spill_dir)
        )
        if isinstance(codec, str):
            codec = get_codec(codec)
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
        self._layers: Dict[str, List[Parameter]] = {}
        self._stubs: Dict[str, np.ndarray] = {}
        self._bound: Dict[str, int] = {}
        self._orig_methods: List[tuple] = []
        self._optimizer: Optional[Optimizer] = None
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
    def adopt(self, name: str, arr: np.ndarray, layer_name: str = "") -> StoredEntry:
        """Take ownership of *arr*: serialize it into the arena and charge
        the tracker's persistent pool."""
        with self._lock:
            if name in self._entries:
                raise ValueError(f"entry {name!r} already stored")
            blob = self._encode(arr)
            entry = StoredEntry(
                name=name,
                layer_name=layer_name,
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

    # -- attachment: JIT binding around forward/backward/update ------------
    def attach(self, network: Layer, optimizer: Optional[Optimizer] = None) -> "ParamStore":
        """Move *network*'s parameters (and *optimizer*'s slots) into the
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
            self._layers[layer.name] = params
            for p in params:
                self.adopt(p.name, p.data, layer_name=layer.name)
                self._stubs[p.name] = self._make_stub(p.data)
                self._bound[p.name] = 0
                p.data = self._stubs[p.name]
            self._wrap_layer(layer)
        if optimizer is not None:
            self.attach_optimizer(optimizer)
        return self

    def attach_optimizer(self, optimizer: Optimizer) -> "ParamStore":
        """Migrate *optimizer*'s slot arrays into the store (accumulated
        momentum survives) and install the store-backed slot state."""
        if self._optimizer is not None:
            raise RuntimeError("ParamStore already has an optimizer attached")
        self._optimizer = optimizer
        optimizer.use_slot_state(StoreSlots(self, optimizer))
        return self

    @staticmethod
    def _make_stub(arr: np.ndarray) -> np.ndarray:
        # Zero-byte placeholder with the real shape/dtype: shape-dependent
        # code (init_slots, grad reshapes) keeps working, reads give NaN
        # (loud), writes raise (broadcast views are read-only).
        return np.broadcast_to(np.asarray(np.nan, dtype=arr.dtype), arr.shape)

    def _wrap_layer(self, layer: Layer) -> None:
        orig_forward, orig_backward = layer.forward, layer.backward
        self._orig_methods.append((layer, orig_forward, orig_backward))

        params = self._layers[layer.name]

        def forward(x, _orig=orig_forward):
            self._bind(params)
            try:
                return _orig(x)
            finally:
                self._unbind(params)

        def backward(dout, _orig=orig_backward):
            self._bind(params)
            try:
                dx = _orig(dout)
                opt = self._optimizer
                if opt is not None and opt.update_in_backward:
                    # dx is computed: update while the weights are bound
                    for p in params:
                        opt.update(p)
                return dx
            finally:
                self._unbind(params)

        layer.forward = forward
        layer.backward = backward

    def _bind(self, params: List[Parameter]) -> None:
        for p in params:
            if self._bound[p.name] == 0:
                p.data = self.fetch(p.name)
                self.materialized_nbytes += p.data.nbytes
                self.peak_materialized_nbytes = max(
                    self.peak_materialized_nbytes, self.materialized_nbytes)
            self._bound[p.name] += 1

    def _unbind(self, params: List[Parameter]) -> None:
        # Only update_window writes back; otherwise the arena copy stays
        # authoritative and unbinding just drops the materialization.
        for p in params:
            self._bound[p.name] -= 1
            if self._bound[p.name] == 0:
                self.materialized_nbytes -= p.data.nbytes
                p.data = self._stubs[p.name]

    @contextmanager
    def update_window(self, param: Parameter) -> Iterator[None]:
        """Materialize *param*'s weights for one optimizer update (the
        enclosing backward may have them bound) and write them back on
        exit."""
        with self._lock:
            has_data = param.name in self._entries
        if not has_data:
            yield  # slots-only attachment: the weights never left residency
            return
        self._bind([param])
        try:
            yield
        finally:
            self.writeback(param.name, param.data)
            self._unbind([param])

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

            # use_slot_state migrates: drops each slot from the store
            # (releasing its accounting) into the resident backend.
            self._optimizer.use_slot_state(ResidentSlots())
            self._optimizer = None
        for params in self._layers.values():
            for p in params:
                p.data = self.release(p.name)
        self._layers.clear()
        self._stubs.clear()
        self._bound.clear()
        self.materialized_nbytes = 0
        self._attached = False

    def close(self) -> None:
        """Detach (restoring resident state) and close an owned arena."""
        self.detach()
        if self._owns_storage:
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

    Each ``update`` materializes one parameter's weights and slots,
    applies the optimizer's in-place math, and writes everything back.
    """

    def __init__(self, store: ParamStore, optimizer: Optimizer):
        self.store = store
        self.optimizer = optimizer

    def init(self, param: Parameter, slots: Dict[str, np.ndarray]) -> None:
        with self.store._lock:
            entry = self.store._entries.get(param.name)
        layer_name = entry.layer_name if entry is not None else ""
        for slot, arr in slots.items():
            self.store.adopt(_slot_entry_name(param, slot), arr, layer_name=layer_name)

    @contextmanager
    def update(self, param: Parameter) -> Iterator[Dict[str, np.ndarray]]:
        with self.store.update_window(param):
            slots = {
                slot: self.store.fetch(_slot_entry_name(param, slot))
                for slot in self.optimizer.slot_names
            }
            try:
                yield slots
            finally:
                # Like resident slots, persist whatever apply_update
                # reached, for weights (update_window) and slots alike.
                for slot, arr in slots.items():
                    self.store.writeback(_slot_entry_name(param, slot), arr)

    def read(self, param: Parameter, slot: str) -> np.ndarray:
        return self.store.fetch(_slot_entry_name(param, slot))

    def write(self, param: Parameter, slot: str, value: np.ndarray) -> None:
        self.store.writeback(_slot_entry_name(param, slot), np.asarray(value))

    def drop(self, param: Parameter) -> Dict[str, np.ndarray]:
        return {
            slot: self.store.release(_slot_entry_name(param, slot))
            for slot in self.optimizer.slot_names
        }
