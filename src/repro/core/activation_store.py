"""Compressed activation storage: the saved-tensor context the framework
installs on convolutional layers (Section 4.4, "adaptive compression").

``pack`` runs during the forward pass: the activation is compressed and
only the compressed representation is retained.  ``unpack`` runs when
backpropagation reaches the layer again and decompresses.

:class:`CompressingContext` owns the handle lifecycle, the
release-exactly-once tracker accounting, the optional
:class:`~repro.core.arena.ByteArena` storage, the paper's per-layer
error bounds and observed statistics, and the Section 4.4
ReLU-recompute filter.  The codec work itself runs inline on the
training thread, through the context's
:class:`~repro.core.engine.SyncEngine`.

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

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.compression.registry import Codec, get_codec
from repro.compression.registry import dumps as _codec_dumps
from repro.compression.registry import loads as _codec_loads
from repro.core.arena import ByteArena
from repro.core.engine import SyncEngine
from repro.core.memory_tracker import MemoryTracker
from repro.core.policy_table import PolicyTable, ResolvedPolicy
from repro.nn.layers.base import Layer, SavedTensorContext

__all__ = ["CompressingContext", "PackedActivation"]


# eq=False: a handle is a lifecycle object with an identity; field-wise
# equality would compare compressed-tensor ndarrays.
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
        self.engine = SyncEngine(self)
        self.policy_table = policy_table
        #: layer name -> codec that packed it (a PolicyTable makes the
        #: codec per-layer, and unpack must use the packing one)
        self._layer_codec: Dict[str, object] = {}
        self.enabled = True
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

    # -- engine callbacks ----------------------------------------------------
    def _finalize_pack(self, handle: PackedActivation, payload: tuple) -> None:
        """Commit a finished pack job: arena write, statistics, tracker charge."""
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
            ct = _codec_loads(self.storage.get(handle.arena_key))
            handle.compressed = ct
        return self._layer_codec.get(handle.layer_name, self.compressor).decompress(ct)

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
        if handle.arena_key is not None and self.storage is not None:
            self.storage.discard(handle.arena_key)
        self.tracker.record_release(handle.raw_nbytes, handle.stored_nbytes)

    # -- SavedTensorContext interface --------------------------------------
    def pack(self, layer: Layer, key: str, arr: np.ndarray):
        if not (self.enabled and isinstance(arr, np.ndarray) and arr.ndim == 4):
            return arr
        handle = PackedActivation(raw_nbytes=arr.nbytes, layer_name=layer.name)
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
        # deterministic.
        kwargs = {"error_bound": eb}
        if getattr(codec, "supports_cache_key", False):
            kwargs["cache_key"] = layer.name

        def job():
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
            self._release(handle)
