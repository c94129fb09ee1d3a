"""Out-of-core parameter & optimizer state: arena-backed weights with
just-in-time materialization.

PR 1–2 made *activations* physically out-of-core (serialized bytes in a
budgeted :class:`~repro.core.arena.ByteArena`, spill-to-disk overflow,
async prefetch).  :class:`ParamStore` extends the same regime to the rest
of the training state: every layer's weight tensors and per-parameter
optimizer slots (SGD momentum, Adam moments) are held as serialized byte
strings in an arena — optionally lossless-compressed through the codec
registry — and materialized only around the window that needs them:

* **forward / backward**: each layer's parameters are bound (fetched and
  installed as ``Parameter.data``) just before the layer runs and
  unbound (dropped back to a zero-byte stub) right after, so at most one
  layer's weights are resident at a time.
* **update**: the optimizer's slot backend (:class:`StoreSlots`) binds
  the weights and materializes the slots for exactly one parameter,
  applies the in-place update, and writes both back as fresh bytes.
* **prefetch**: the async compression engine's reverse-order prefetch
  (:class:`~repro.core.engine.AsyncEngine`) stages the *upcoming*
  layers' spilled parameter bytes back into arena memory alongside the
  spilled activations it already prefetches, so backward-pass binds hit
  memory, not disk.

Serialization is bit-exact by construction: the default raw encoding is
``ndarray.tobytes()`` and any configured codec must be lossless — a
spill/reload cycle can therefore never perturb training (loss curves are
bit-identical to resident training; the tests enforce it).

Accounting flows through the existing :class:`MemoryTracker` as a
*persistent* pool (charged on adopt/write-back, credited exactly once on
release), so resident-vs-stored numbers stay byte-exact next to the
activation path's per-iteration accounting.

Usage::

    net = build_scaled_model("vgg16", image_size=32)
    opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
    store = ParamStore(budget_bytes=256 << 10)   # weights live out-of-core
    store.attach(net, opt)
    ...train...
    store.detach()                               # weights resident again
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.compression.registry import Codec, get_codec
from repro.compression.registry import dumps as _codec_dumps
from repro.compression.registry import loads as _codec_loads
from repro.core.arena import ByteArena
from repro.core.memory_tracker import MemoryTracker
from repro.nn.layers.base import Layer, Parameter
from repro.nn.network import iter_layers
from repro.nn.optim import Optimizer, SlotState
from repro.utils import profiler

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
    #: content fingerprint of the stored value (dirty tracking: a
    #: write-back of identical bytes is skipped entirely)
    digest: bytes = b""


def _content_digest(arr: np.ndarray) -> bytes:
    """128-bit BLAKE2b fingerprint of *arr*'s raw bytes (zero-copy for
    contiguous arrays).  Hashing is an order of magnitude cheaper than
    serialize + arena churn, which is the point of dirty tracking; a
    collision (~2^-64 birthday risk across a training run) would keep a
    stale value, so the digest is deliberately cryptographic rather
    than a CRC."""
    return hashlib.blake2b(np.ascontiguousarray(arr).data, digest_size=16).digest()


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
        spill to disk and are read back (or prefetched) on demand.
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
    dirty_tracking:
        ``True`` (default): every entry carries a content digest, and a
        :meth:`writeback` whose value is unchanged (frozen layers,
        zero-gradient momentum, untouched Adam moments) skips the
        serialize + arena replace entirely — ``writeback_skipped``
        counts them.  Set ``False`` to force every write-back through.
    bind_window_bytes:
        ``0`` (default) binds strictly per layer — the historical
        behaviour.  A positive threshold groups *adjacent* layers into
        bind windows of up to that many raw parameter bytes: entering a
        window materializes all its layers' weights in one arena pass,
        and a layer's weights stay resident (refcount zero, "window
        resident") until the walk leaves the window — so a run of small
        layers pays one fetch each per pass instead of one per
        forward/backward visit, at a peak-residency cost bounded by the
        threshold.  Values round-trip through the arena untouched, so
        losses stay bit-identical to per-layer binding.
    """

    def __init__(
        self,
        storage: Optional[ByteArena] = None,
        budget_bytes: Optional[int] = 64 << 20,
        codec: Union[Codec, str, None] = None,
        tracker: Optional[MemoryTracker] = None,
        dirty_tracking: bool = True,
        spill_dir: Optional[str] = None,
        bind_window_bytes: int = 0,
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
        if bind_window_bytes < 0:
            raise ValueError(
                f"bind_window_bytes must be >= 0, got {bind_window_bytes}"
            )
        self.codec = codec
        self.dirty_tracking = bool(dirty_tracking)
        self.bind_window_bytes = int(bind_window_bytes)
        self._windowing = self.bind_window_bytes > 0
        self.tracker = tracker or MemoryTracker()
        #: entry name -> StoredEntry; guarded by _lock (the async engine's
        #: workers read arena keys for staging while the training thread
        #: writes entries back)
        self._entries: Dict[str, StoredEntry] = {}
        self._lock = threading.RLock()
        # -- attachment state ---------------------------------------------
        self._attached = False
        self._layers: Dict[str, List[Parameter]] = {}
        self._stubs: Dict[str, np.ndarray] = {}
        self._bound: Dict[str, int] = {}
        self._orig_methods: List[tuple] = []
        self._optimizer: Optional[Optimizer] = None
        # -- bind windows (built in attach; immutable afterwards, so the
        # -- engine's staging workers can read them without the lock) ------
        self._layer_order: List[str] = []
        self._layer_pos: Dict[str, int] = {}
        self._window_of: Dict[str, int] = {}
        self._window_members: Dict[int, List[str]] = {}
        #: param names materialized at refcount zero because their bind
        #: window is the current one (training-thread state)
        self._window_resident: set = set()
        self._current_window: Optional[int] = None
        # -- statistics ----------------------------------------------------
        #: bytes of parameter/slot arrays currently materialized (bound)
        self.materialized_nbytes = 0
        self.peak_materialized_nbytes = 0
        self.fetch_count = 0
        self.writeback_count = 0
        #: write-backs skipped because the value was byte-identical to
        #: the stored one (dirty tracking)
        self.writeback_skipped = 0
        #: staging requests that failed (visible symptom of a prefetch
        #: race/regression — healthy runs keep this at 0)
        self.stage_errors = 0
        #: bind-window transitions (one arena pass each)
        self.window_switches = 0
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
                digest=_content_digest(arr) if self.dirty_tracking else b"",
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
        With dirty tracking, a value byte-identical to the stored one
        skips serialization and the arena replace entirely (the stored
        bytes are already it)."""
        with self._lock:
            entry = self._entries[name]
        arr = np.asarray(arr, dtype=entry.dtype).reshape(entry.shape)
        if self.dirty_tracking:
            digest = _content_digest(arr)
            if digest == entry.digest:
                self.writeback_skipped += 1
                return
        else:
            digest = b""
        blob = self._encode(arr)
        with self._lock:
            entry = self._entries[name]
            self.storage.discard(entry.arena_key)
            entry.arena_key = self.storage.put(blob)
            entry.stored_nbytes = len(blob)
            entry.digest = digest
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

    def stage_layers(self, layer_names: Iterable[str]) -> int:
        """Prefetch the spilled bytes of entries belonging to the given
        layers back into arena memory (async-engine staging hook; safe
        from worker threads).

        Staged bytes bypass the arena's FIFO budget, so the staging
        cache is capped at one budget's worth via
        ``ByteArena.prefetch(..., max_bytes=...)`` — enforced atomically
        under the arena's lock, so concurrent staging jobs cannot
        jointly overshoot; memory-resident entries are skipped by the
        arena without consuming any of the cap.  One entry is always
        admitted when the cache is empty, so a zero-budget
        (spill-everything) arena still gets its next layer prefetched."""
        try:
            wanted = set(layer_names)
            with self._lock:
                keys = [
                    e.arena_key
                    for e in self._entries.values()
                    if e.layer_name in wanted
                    and not self._bound.get(e.name, 0)
                    and e.name not in self._window_resident
                ]
            if not keys:
                return 0
            return self.storage.prefetch(keys, max_bytes=self.storage.budget_bytes)
        except Exception:
            # Runs on engine workers whose futures nobody consumes:
            # swallowing would hide breakage, raising would kill the
            # worker silently — count it so the stats surface it.
            self.stage_errors += 1
            return 0

    def stage_next_window(self, layer_name: str) -> int:
        """Stage the *following* bind window's spilled parameter bytes
        (forward-side weight double buffering; safe from worker threads).

        The async engine calls this as each layer's pack is submitted —
        i.e. while the next layer's forward computes — so by the time
        the walk enters the next window, its weights are in arena
        memory.  Without bind windows the "window" is the single next
        layer.  Layers unknown to the store (fully parameter-free, or a
        foreign network) are a no-op."""
        try:
            if self._windowing:
                wid = self._window_of.get(layer_name)
                if wid is None:
                    return 0
                names = self._window_members.get(wid + 1, [])
            else:
                pos = self._layer_pos.get(layer_name)
                if pos is None:
                    return 0
                names = self._layer_order[pos + 1 : pos + 2]
            if not names:
                return 0
            with profiler.stage("bind-window", hidden=True):
                return self.stage_layers(names)
        except Exception:
            self.stage_errors += 1
            return 0

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
        layer_nbytes: Dict[str, int] = {}
        for layer in iter_layers(network):
            params = layer.parameters()
            if not params:
                continue
            self._layers[layer.name] = params
            self._layer_pos[layer.name] = len(self._layer_order)
            self._layer_order.append(layer.name)
            layer_nbytes[layer.name] = sum(p.data.nbytes for p in params)
            for p in params:
                self.adopt(p.name, p.data, layer_name=layer.name)
                self._stubs[p.name] = self._make_stub(p.data)
                self._bound[p.name] = 0
                p.data = self._stubs[p.name]
            self._wrap_layer(layer)
        if self._windowing:
            self._assign_windows(layer_nbytes)
        if optimizer is not None:
            self.attach_optimizer(optimizer)
        return self

    def _assign_windows(self, layer_nbytes: Dict[str, int]) -> None:
        """Greedily group adjacent layers into bind windows: a window
        closes when adding the next layer would push its raw parameter
        bytes past ``bind_window_bytes`` (an oversized single layer gets
        a window to itself)."""
        wid = -1
        acc = 0
        for name in self._layer_order:
            nbytes = layer_nbytes[name]
            if wid < 0 or acc + nbytes > self.bind_window_bytes:
                wid += 1
                acc = 0
            self._window_of[name] = wid
            self._window_members.setdefault(wid, []).append(name)
            acc += nbytes

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

        def forward(x, _name=layer.name, _orig=orig_forward):
            self._bind(_name)
            try:
                return _orig(x)
            finally:
                self._unbind(_name)

        def backward(dout, _name=layer.name, _orig=orig_backward):
            self._bind(_name)
            try:
                return _orig(dout)
            finally:
                self._unbind(_name)

        layer.forward = forward
        layer.backward = backward

    def _bind(self, layer_name: str) -> None:
        if self._windowing:
            wid = self._window_of.get(layer_name)
            if wid is not None and wid != self._current_window:
                self._switch_window(wid)
        for p in self._layers[layer_name]:
            if self._bound[p.name] == 0:
                if p.name in self._window_resident:
                    # Already materialized by the window pass: claiming
                    # it just converts residency into a bound reference.
                    self._window_resident.discard(p.name)
                else:
                    p.data = self.fetch(p.name)
                    self.materialized_nbytes += p.data.nbytes
                    self.peak_materialized_nbytes = max(
                        self.peak_materialized_nbytes, self.materialized_nbytes
                    )
            self._bound[p.name] += 1

    def _switch_window(self, wid: int) -> None:
        """Leave the current bind window and materialize the next one.

        Dropping the old window's refcount-zero residents before
        fetching the new one keeps peak residency at (roughly) one
        window; the incoming fetches run as one batch, which is the
        arena pass the engine's ``stage_next_window`` pre-warms.
        """
        with profiler.stage("bind-window"):
            prev = self._current_window
            if prev is not None:
                for name in self._window_members.get(prev, ()):
                    for p in self._layers[name]:
                        if p.name in self._window_resident:
                            self._window_resident.discard(p.name)
                            self.materialized_nbytes -= p.data.nbytes
                            p.data = self._stubs[p.name]
            self._current_window = wid
            self.window_switches += 1
            for name in self._window_members.get(wid, ()):
                for p in self._layers[name]:
                    if self._bound.get(p.name, 0) == 0 and p.name not in self._window_resident:
                        p.data = self.fetch(p.name)
                        self.materialized_nbytes += p.data.nbytes
                        self._window_resident.add(p.name)
            self.peak_materialized_nbytes = max(
                self.peak_materialized_nbytes, self.materialized_nbytes
            )

    def _unbind(self, layer_name: str) -> None:
        # Forward/backward read but never mutate weights, so unbinding
        # just drops the materialization — the arena copy stays
        # authoritative; only update_window writes back.  Inside the
        # current bind window the materialization is *kept* (window
        # residency) so the backward visit — or the next layer in the
        # window — reuses it without another fetch.
        sticky = (
            self._windowing
            and self._window_of.get(layer_name) == self._current_window
        )
        for p in self._layers[layer_name]:
            self._bound[p.name] -= 1
            if self._bound[p.name] == 0:
                if sticky:
                    self._window_resident.add(p.name)
                else:
                    self.materialized_nbytes -= p.data.nbytes
                    p.data = self._stubs[p.name]

    @contextmanager
    def update_window(self, param: Parameter) -> Iterator[None]:
        """Materialize *param*'s weights for one optimizer update and
        write the mutated values back on exit."""
        with self._lock:
            has_data = param.name in self._entries
        if not has_data:
            # Slots-only attachment: the weights never left residency.
            yield
            return
        if self._bound.get(param.name, 0):
            # Already bound by an enclosing forward/backward window (not
            # the training loop's shape, but be correct if it happens).
            yield
            self.writeback(param.name, param.data)
            return
        if param.name in self._window_resident:
            # Window residency is read-only reuse; an update must flow
            # through the ordinary fetch/writeback cycle, so drop the
            # residency first (the one extra fetch below is the price of
            # keeping the accounting single-sourced).
            self._window_resident.discard(param.name)
            self.materialized_nbytes -= param.data.nbytes
            param.data = self._stubs[param.name]
        param.data = self.fetch(param.name)
        self.materialized_nbytes += param.data.nbytes
        self.peak_materialized_nbytes = max(
            self.peak_materialized_nbytes, self.materialized_nbytes
        )
        try:
            yield
        finally:
            self.writeback(param.name, param.data)
            self.materialized_nbytes -= param.data.nbytes
            param.data = self._stubs[param.name]

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
        self._layer_order.clear()
        self._layer_pos.clear()
        self._window_of.clear()
        self._window_members.clear()
        self._window_resident.clear()
        self._current_window = None
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
    applies the optimizer's in-place math, and writes everything back —
    the only moment a parameter's full update state is resident.
    """

    def __init__(self, store: ParamStore, optimizer: Optimizer):
        self.store = store
        self.optimizer = optimizer

    def _layer_of(self, param: Parameter) -> str:
        with self.store._lock:
            entry = self.store._entries.get(param.name)
        return entry.layer_name if entry is not None else ""

    def init(self, param: Parameter, slots: Dict[str, np.ndarray]) -> None:
        layer_name = self._layer_of(param)
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
                # Mirror resident semantics on exceptions too: in-place
                # mutation persists whatever state apply_update reached,
                # for weights (update_window's finally) AND slots alike —
                # never one without the other.
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
