"""Compressed activation storage: the saved-tensor context the framework
installs on convolutional layers (Section 4.4, "adaptive compression").

``pack`` runs during the forward pass: the activation is compressed and
only the compressed representation is retained.  ``unpack`` runs when
backpropagation reaches the layer again and decompresses.

:class:`CompressingContext` owns the handle lifecycle, the
release-exactly-once tracker accounting, the optional
:class:`~repro.core.arena.ByteArena` storage, the paper's per-layer
error bounds and observed statistics, and the Section 4.4
ReLU-recompute filter.  *Execution* is delegated to an injected
:class:`~repro.core.engine.CompressionEngine`:

* :class:`~repro.core.engine.SyncEngine` (default): compress/decompress
  inline; it defines the reference numbers.
* :class:`~repro.core.engine.AsyncEngine`: compression of layer *i*'s
  activation overlaps layer *i+1*'s forward on a worker pool, and
  outstanding handles (including arena-spilled bytes) are prefetched in
  reverse pack order ahead of the backward pass.  Reconstructions and
  tracker numbers are bit-identical to sync for every registry codec.

Every baseline is a configuration of this one context rather than a
class of its own: a lossless codec with the controller disabled stores
activations bit-exactly, and a ``"*"`` policy rule with a fixed
``error_bound`` is one static bound for every layer.

An optional :class:`~repro.core.policy_table.PolicyTable` resolves each
compressible layer, by first-match rules, to its **own** codec,
error-bound regime (fixed or adaptive, with per-rule clamps), and
storage class (arena vs in-process), falling back to the context
defaults for unmatched layers.  Each pack carries its rule's group label
into the tracker, so mixed-codec sessions account per rule as well as
per layer.

Two storage regimes:

* **In-process** (default): the live compressed object is kept on the
  handle and its ``nbytes`` accounting charge goes to the tracker.
* **Byte arena** (``storage=ByteArena(...)``): the compressed object is
  serialized to one byte string held in the arena (in-memory budget with
  spill-to-disk overflow, see :mod:`repro.core.arena`), and the tracker
  is charged the *physical* serialized length — footprint numbers become
  byte-exact rather than estimates.

Each packed handle is released to the tracker exactly once, on whichever
of ``unpack``/``discard`` reaches it first; repeated unpacks (e.g. via
``Layer._load``) keep returning data without double-releasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.compression.registry import Codec, get_codec
from repro.compression.registry import dumps as _codec_dumps
from repro.compression.registry import loads as _codec_loads
from repro.core.arena import ByteArena
from repro.core.engine import CompressionEngine, resolve_engine
from repro.core.memory_tracker import MemoryTracker
from repro.core.policy_table import PolicyTable, ResolvedPolicy
from repro.nn.layers.base import Layer, SavedTensorContext

__all__ = ["CompressingContext", "PackedActivation"]


# eq=False: handles are tracked by identity (engine _live/_pending lists
# use index/remove); field-wise equality would compare compressed-tensor
# ndarrays and is meaningless for a lifecycle object.
@dataclass(eq=False)
class PackedActivation:
    """Handle stored in place of the raw activation tensor."""

    raw_nbytes: int
    nonzero_ratio: float = 0.0
    #: bytes charged to the tracker: physical serialized length under
    #: arena storage, the ``nbytes`` accounting convention otherwise
    stored_nbytes: int = 0
    #: the live compressed object (populated lazily under arena storage)
    compressed: Optional[object] = None
    #: arena key when the bytes live in a :class:`ByteArena`
    arena_key: Optional[int] = None
    #: True once the tracker has been credited for this handle
    released: bool = False
    #: owning layer, for per-layer tracker/statistics keys
    layer_name: str = ""
    #: policy-rule group label (empty without a PolicyTable) — flows
    #: into the tracker's per-rule ledger when the pack is finalized
    policy_label: str = ""
    #: engine plumbing (internal): outstanding pack / prefetch futures
    #: and the handle's slot in the engine's live-order record
    _pack_future: Optional[object] = field(default=None, repr=False)
    _prefetch_future: Optional[object] = field(default=None, repr=False)
    _live_pos: Optional[int] = field(default=None, repr=False)
    #: True while this handle's raw bytes are charged to the engine's
    #: decode-ahead budget (speculative decompress in flight)
    _unpack_charged: bool = field(default=False, repr=False)


class CompressingContext(SavedTensorContext):
    """Saved-tensor context that compresses 4-D activations on pack.

    Parameters
    ----------
    compressor:
        Any codec following the registry protocol (``compress(x,
        error_bound=...)`` / ``decompress``), e.g. :class:`SZCompressor`
        or a ``ChunkedCodec`` wrapping it.
    initial_rel_eb:
        Until the controller assigns a layer an absolute bound, the first
        pack resolves ``eb = initial_rel_eb * value_range`` — a
        conservative warm-up choice.  A matching policy rule's
        ``initial_rel_eb`` takes precedence for its layers.
    tracker:
        Optional :class:`MemoryTracker` for accounting.
    storage:
        Optional :class:`ByteArena`.  When given, packed activations are
        held as serialized byte strings in the arena instead of live
        Python objects, and the tracker charge is the physical length.
    engine:
        A :class:`~repro.core.engine.CompressionEngine` instance; ``None``
        is a :class:`~repro.core.engine.SyncEngine`.
    policy_table:
        Optional :class:`~repro.core.policy_table.PolicyTable`.  With a
        table, *compressor* and *initial_rel_eb* become the defaults for
        layers no rule matches; rules with a fixed ``error_bound`` pin
        their layers' bound (the adaptive controller skips them).
    """

    def __init__(
        self,
        compressor: Optional[Codec] = None,
        initial_rel_eb: float = 1e-3,
        tracker: Optional[MemoryTracker] = None,
        storage: Optional[ByteArena] = None,
        engine: Optional[CompressionEngine] = None,
        policy_table: Optional[PolicyTable] = None,
    ):
        if initial_rel_eb <= 0:
            raise ValueError("initial_rel_eb must be positive")
        if compressor is not None and not (
            hasattr(compressor, "compress") and hasattr(compressor, "decompress")
        ):
            raise TypeError(
                f"compressor must be a codec instance with compress()/decompress(), "
                f"got {type(compressor).__name__}"
            )
        self.compressor = compressor or get_codec(
            "szlike", error_bound=1e-3, entropy="huffman"
        )
        self.initial_rel_eb = float(initial_rel_eb)
        self.tracker = tracker or MemoryTracker()
        self.storage = storage
        self.engine = resolve_engine(engine, self)
        self.policy_table = policy_table
        #: layer name -> codec that packed it (written on the training
        #: thread at submit time, read by engine workers at decompress;
        #: needed because a PolicyTable makes the codec per-layer)
        self._layer_codec: Dict[str, object] = {}
        self.enabled = True
        #: optional :class:`~repro.core.param_store.ParamStore` — when the
        #: model's weights are arena-backed too, the async engine's
        #: reverse-order prefetch stages the upcoming layers' spilled
        #: parameter bytes alongside the spilled activations
        self.param_store = None
        #: layers whose saved input is a ReLU output: after decompression
        #: the activation function is recomputed (``max(x, 0)``), the
        #: paper's first zero-preservation mechanism (Section 4.4) — it
        #: restores exact zeros even when the codec drifts them.
        self.relu_recompute_layers: set = set()
        #: per-layer absolute error bounds, written by the controller
        self.error_bounds: Dict[str, float] = {}
        #: per-layer nonzero ratio R observed at the latest pack
        self.observed_nonzero: Dict[str, float] = {}
        #: per-layer latest achieved compression ratio (physical bytes
        #: under arena storage)
        self.observed_ratio: Dict[str, float] = {}

    # -- per-layer policy ----------------------------------------------------
    def _policy_for(self, layer_name: str) -> Optional[ResolvedPolicy]:
        if self.policy_table is None:
            return None
        return self.policy_table.resolve(layer_name)

    def is_adaptive(self, layer_name: str) -> bool:
        """May the adaptive controller rewrite this layer's bound?
        False for layers whose policy rule pins a fixed bound."""
        pol = self._policy_for(layer_name)
        return pol is None or pol.adaptive

    def resolve_error_bound(self, layer: Layer, arr: np.ndarray) -> float:
        pol = self._policy_for(layer.name)
        if pol is not None and pol.error_bound is not None:
            # Rule-pinned absolute bound: recorded so reporting and the
            # controller's skip logic see one consistent value.
            self.error_bounds[layer.name] = pol.error_bound
            return pol.error_bound
        eb = self.error_bounds.get(layer.name)
        if eb is not None:
            return eb
        rel = (
            pol.initial_rel_eb
            if pol is not None and pol.initial_rel_eb is not None
            else self.initial_rel_eb
        )
        vrange = float(arr.max() - arr.min())
        eb = rel * vrange if vrange > 0 else rel
        self.error_bounds[layer.name] = eb
        return eb

    # -- engine-facing internals -------------------------------------------
    _loads = staticmethod(_codec_loads)

    def _decompress(self, ct, layer_name: str) -> np.ndarray:
        """Decompress with the codec that packed *layer_name*
        (thread-safe, deterministic)."""
        return self._layer_codec.get(layer_name, self.compressor).decompress(ct)

    def _finalize_pack(self, handle: PackedActivation, payload: tuple) -> None:
        """Commit a finished pack job: arena write, statistics, tracker charge.

        Engines call this on the training thread, strictly in submission
        order, so accounting sequences are identical across engines.
        """
        ct, blob, nz = payload
        if blob is not None:
            handle.stored_nbytes = len(blob)
            # The policy-group tag lets per-rule arena budgets attribute
            # (and bound) this entry's residency.
            handle.arena_key = self.storage.put(
                blob, group=handle.policy_label or None
            )
        else:
            handle.stored_nbytes = ct.nbytes
            handle.compressed = ct
        handle.nonzero_ratio = nz
        self.observed_nonzero[handle.layer_name] = nz
        self.observed_ratio[handle.layer_name] = (
            handle.raw_nbytes / handle.stored_nbytes if handle.stored_nbytes else 0.0
        )
        self.tracker.record_pack(
            handle.layer_name,
            handle.raw_nbytes,
            handle.stored_nbytes,
            group=handle.policy_label,
        )

    def _materialize(self, handle: PackedActivation) -> np.ndarray:
        """Decompress *handle*, reading arena bytes if necessary.

        The compressed object is kept on the handle so repeated unpacks
        keep working after the arena entry is released.
        """
        ct = handle.compressed
        if ct is None:
            ct = self._loads(self.storage.get(handle.arena_key))
            handle.compressed = ct
        return self._decompress(ct, handle.layer_name)

    def _recompute_relu(self, handle: PackedActivation, out: np.ndarray) -> np.ndarray:
        """Recompute the activation function (Section 4.4) on a
        reconstruction: negative drift is erased by the ReLU; positive
        drift is bounded by eb and true values <= eb quantize to the zero
        grid point, so clamping the sub-eb band restores exact zeros.
        Codecs without a per-element bound (jpeg, lossless) only get the
        ReLU itself — there is no eb band to clamp."""
        np.maximum(out, 0, out=out)
        eb = getattr(handle.compressed, "error_bound", None)
        if eb is not None:
            # ``out[out <= eb] = 0`` without the boolean-mask store
            # (~4 ns per element on a half-sparse mask): multiply by
            # the keep-mask, then ``+ 0.0`` turns a zeroed ``-0.0``
            # back into ``+0.0``.  NaN and +inf pass through as they
            # do in the masked form.
            np.multiply(out, out > eb, out=out)
            out += 0.0
        return out

    # -- release bookkeeping -----------------------------------------------
    def _release(self, handle: PackedActivation) -> None:
        """Credit the tracker (and arena) for *handle* exactly once."""
        if handle.released:
            return
        handle.released = True
        self.engine.forget(handle)
        if handle.arena_key is not None and self.storage is not None:
            self.storage.discard(handle.arena_key)
        self.tracker.record_release(handle.raw_nbytes, handle.stored_nbytes)

    # -- SavedTensorContext interface --------------------------------------
    def pack(self, layer: Layer, key: str, arr: np.ndarray):
        if not (self.enabled and isinstance(arr, np.ndarray) and arr.ndim == 4):
            return arr
        handle = PackedActivation(raw_nbytes=arr.nbytes, layer_name=layer.name)
        # The bound and the (possibly per-rule) codec are resolved here,
        # on the submitting thread: first-pack bound assignment mutates
        # per-layer state and must happen in forward order regardless of
        # the engine.
        eb = self.resolve_error_bound(layer, arr)
        pol = self._policy_for(layer.name)
        codec = pol.codec if pol is not None and pol.codec is not None else self.compressor
        self._layer_codec[layer.name] = codec
        if self.policy_table is not None:
            handle.policy_label = self.policy_table.group_of(layer.name)
        # Arena-serialize unless the rule pins the layer in-process.
        serialize = self.storage is not None and (pol is None or pol.storage != "inmem")
        # Per-layer cache keys let a codebook-caching codec amortize its
        # entropy setup across iterations: each conv layer packs once per
        # forward in a fixed order, so per-key cache decisions stay
        # deterministic even under the async engine's worker pool.
        kwargs = {"error_bound": eb}
        if getattr(codec, "supports_cache_key", False):
            kwargs["cache_key"] = layer.name

        def job():
            # Pure compression work: it may run on an engine worker thread.
            ct = codec.compress(arr, **kwargs)
            nz = float(np.count_nonzero(arr)) / arr.size
            return ct, _codec_dumps(ct) if serialize else None, nz

        self.engine.submit_pack(handle, job)
        return handle

    def unpack(self, layer: Layer, key: str, handle) -> np.ndarray:
        if not isinstance(handle, PackedActivation):
            return handle
        out = self.engine.obtain(handle)
        if layer.name in self.relu_recompute_layers:
            out = self._recompute_relu(handle, out)
        self._release(handle)
        return out

    def discard(self, layer: Layer, key: str, handle) -> None:
        if isinstance(handle, PackedActivation):
            # The tracker must see the pack before its release.
            self.engine.ensure_packed(handle)
            self._release(handle)

    # -- lifecycle ---------------------------------------------------------
    def flush(self) -> None:
        """Finalize every in-flight pack (no-op for the sync engine)."""
        self.engine.flush()

    def close(self) -> None:
        """Shut down the engine's worker pool (safe mid-flight)."""
        self.engine.close()
