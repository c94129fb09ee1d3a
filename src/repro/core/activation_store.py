"""Compressed activation storage: the saved-tensor context the framework
installs on convolutional layers (Section 4.4, "adaptive compression").

``pack`` runs during the forward pass: the activation is compressed and
only the compressed representation is retained.  ``unpack`` runs when
backpropagation reaches the layer again and decompresses.  Only
intermediate activations are compressed: a layer whose input needs no
gradient (``Layer.needs_input_grad`` false, which a training step sets
on the layer fed the data batch) saves a reference to the batch the
caller holds anyway, with no blob, arena entry or tracker charge, as
cuSZp's ``pack_hook`` passes through tensors that do not require grad.

:class:`CompressingContext` owns the handle lifecycle, the
release-exactly-once tracker accounting, the optional
:class:`~repro.core.arena.ByteArena` storage, the paper's per-layer
error bounds and observed statistics, and the Section 4.4
ReLU-recompute filter.  The codec work itself runs inline on the
training thread, through the context's
:class:`~repro.core.engine.SyncEngine`.

Every baseline is a configuration of this one context rather than a
class of its own: a lossless codec with the controller disabled stores
activations bit-exactly, and an ``szlike`` codec with a fixed
``error_bound`` and the controller disabled is one static bound for
every layer (the ablation against Eq. 9).

Every compressible layer packs with the one codec, under the session's
:class:`~repro.api.config.AdaptiveSpec`: with the controller enabled a
layer's first pack uses ``initial_rel_eb`` of its value range and every
later pack the controller's bound; disabled, every pack uses the codec's
own ``error_bound`` / ``mode``, and ``error_bounds`` records the bound
each blob was written under.

Two storage regimes:

* **In-process** (default): the live compressed object is kept on the
  handle and its ``nbytes`` accounting charge goes to the tracker.
* **Byte arena** (``storage=ByteArena(...)``): the compressed object is
  serialized to one byte string held in the arena (in-memory budget with
  spill-to-disk overflow, see :mod:`repro.core.arena`), and the tracker
  is charged the *physical* serialized length — footprint numbers become
  byte-exact rather than estimates.

Each packed handle is released to the tracker exactly once, on whichever
of ``unpack``/``unpack_rows``/``discard`` reaches it first; repeated
unpacks of one handle keep returning data without double-releasing.
``unpack_rows`` (a conv backward reading its input slice by slice)
releases when its ``with`` block ends, on any path.
Under the szlike codec each slice is reconstructed, ReLU recompute
included, only when the layer reads it, by the engine's ``obtain`` and
the codec's ``decompress`` as a whole unpack is; any other codec
unpacks whole.  The recompute runs only where it can change a value:
the szlike codec without drift emulation reconstructs a non-negative
input as ``+0.0`` or above its bound, which the recompute keeps as is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.compression.registry import Codec, get_codec
from repro.compression.registry import dumps as _codec_dumps
from repro.compression.registry import loads as _codec_loads
from repro.compression.szlike.compressor import RowReader, SZCompressor
from repro.core.arena import ByteArena
from repro.core.engine import SyncEngine
from repro.core.memory_tracker import MemoryTracker
from repro.nn.layers.base import Layer, SavedRows, SavedTensorContext
from repro.utils.scratch import WORKSPACE

if TYPE_CHECKING:
    from repro.api.config import AdaptiveSpec

__all__ = ["CompressingContext", "PackedActivation"]


# eq=False: a handle is a lifecycle object with an identity; field-wise
# equality would compare compressed-tensor ndarrays.
@dataclass(eq=False)
class PackedActivation:
    """Handle stored in place of the raw activation tensor."""

    raw_nbytes: int
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
    #: the in-order reader of a slice-by-slice unpack, while it runs
    reader: Optional[RowReader] = None


class CompressingContext(SavedTensorContext):
    """Saved-tensor context that compresses 4-D activations on pack.

    Parameters
    ----------
    compressor:
        Any codec following the registry protocol (``compress(x,
        error_bound=...)`` / ``decompress``), e.g. :class:`SZCompressor`.
    tracker:
        Optional :class:`MemoryTracker` for accounting.
    storage:
        Optional :class:`ByteArena`.  When given, packed activations are
        held as serialized byte strings in the arena instead of live
        Python objects, and the tracker charge is the physical length.
    adaptive:
        The session's :class:`~repro.api.config.AdaptiveSpec`, kept as
        ``ctx.adaptive``: its ``enabled`` and ``initial_rel_eb`` decide
        each pack's bound (see :meth:`resolve_error_bound`).
    """

    def __init__(
        self,
        compressor: Optional[Codec] = None,
        tracker: Optional[MemoryTracker] = None,
        storage: Optional[ByteArena] = None,
        *,
        adaptive: "AdaptiveSpec",
    ):
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
        self.tracker = tracker or MemoryTracker()
        self.storage = storage
        self.engine = SyncEngine(self)
        self.adaptive = adaptive
        #: layers whose saved input is a ReLU output: after decompression
        #: the activation function is recomputed (``max(x, 0)``), the
        #: paper's first zero-preservation mechanism (Section 4.4) — it
        #: restores exact zeros even when the codec drifts them.
        self.relu_recompute_layers: set = set()
        #: per-layer absolute error bounds: the controller's, or with it
        #: disabled the bound each layer's latest blob was written under
        self.error_bounds: Dict[str, float] = {}
        #: per-layer nonzero ratio R observed at the latest pack that
        #: counted it
        self.observed_nonzero: Dict[str, float] = {}
        #: whether a pack counts R; the framework clears it on iterations
        #: whose statistics the controller does not read
        self.count_nonzero = True
        #: per-layer latest achieved compression ratio (physical bytes
        #: under arena storage)
        self.observed_ratio: Dict[str, float] = {}

    def resolve_error_bound(self, layer: Layer, arr: np.ndarray) -> Optional[float]:
        """The bound *layer*'s next pack is compressed under: the
        controller's, or on the layer's first pack ``initial_rel_eb`` of
        *arr*'s value range; None (the codec's own ``error_bound`` /
        ``mode``) when the controller is disabled."""
        if not self.adaptive.enabled:
            return None
        eb = self.error_bounds.get(layer.name)
        if eb is None:
            rel = self.adaptive.initial_rel_eb
            vrange = float(arr.max()) - float(arr.min())
            eb = rel * vrange if vrange > 0 else rel
            self.error_bounds[layer.name] = eb
        return eb

    # -- engine callbacks ----------------------------------------------------
    def _finalize_pack(self, handle: PackedActivation, payload: tuple) -> None:
        """Commit a finished pack job: arena write, statistics, tracker charge."""
        ct, blob, nz = payload
        if blob is not None:
            handle.stored_nbytes = len(blob)
            handle.arena_key = self.storage.put(blob)
        else:
            handle.stored_nbytes = ct.nbytes
            handle.compressed = ct
        if not self.adaptive.enabled and getattr(ct, "error_bound", None) is not None:
            self.error_bounds[handle.layer_name] = ct.error_bound
        if nz is not None:
            self.observed_nonzero[handle.layer_name] = nz
        self.observed_ratio[handle.layer_name] = (
            handle.raw_nbytes / handle.stored_nbytes if handle.stored_nbytes else 0.0
        )
        self.tracker.record_pack(handle.layer_name, handle.raw_nbytes, handle.stored_nbytes)

    def _materialize(
        self, handle: PackedActivation, rows: Optional[slice] = None, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Decompress *handle*, reading arena bytes if necessary; with
        *rows*, only those rows (the next in order: see
        :class:`~repro.compression.szlike.compressor.RowReader`), into
        *out* when given.

        The compressed object is kept on the handle so repeated unpacks
        keep working after the arena entry is released.
        """
        ct = handle.compressed
        if ct is None:
            ct = _codec_loads(self.storage.get(handle.arena_key))
            handle.compressed = ct
        if rows is not None:
            if handle.reader is None:
                handle.reader = RowReader(ct)
            ct = handle.reader.rows(rows, out)
        return self.compressor.decompress(ct)

    def _relu_may_change(self, layer: Layer, handle: PackedActivation) -> bool:
        """Whether the Section 4.4 recompute can change a reconstruction
        of *handle*, which *layer* saved: only on a layer whose input is
        provably non-negative (``relu_recompute_layers``), and there not
        under the szlike codec without drift emulation at a bound of at
        least the dtype's smallest normal.  A non-negative input has grid
        indices ``q >= 0``, which reconstruct to ``+0.0`` or to at least
        ``2 * eb`` rounded into the dtype, above ``eb`` (the argument
        ``SZCompressor._filter_zeros`` makes): the ReLU and the sub-bound
        clamp are then the identity.  The compressed object is loaded."""
        if layer.name not in self.relu_recompute_layers:
            return False
        codec, ct = self.compressor, handle.compressed
        return not (
            isinstance(codec, SZCompressor)
            and not codec.emulate_zero_drift
            and ct.error_bound >= np.finfo(np.dtype(ct.dtype)).tiny
        )

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
            # the (borrowed) keep-mask, then ``+ 0.0`` turns a zeroed
            # ``-0.0`` back into ``+0.0``.  NaN and +inf pass through as
            # they do in the masked form.
            with WORKSPACE.take(out.shape, bool) as keep:
                np.multiply(out, np.greater(out, eb, out=keep), out=out)
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
        # A layer whose input needs no gradient is fed the caller's data
        # batch, not an intermediate activation: the caller holds it for
        # the whole step, so a blob of it would free nothing.
        if not (isinstance(arr, np.ndarray) and arr.ndim == 4 and layer.needs_input_grad):
            return arr
        handle = PackedActivation(raw_nbytes=arr.nbytes, layer_name=layer.name)
        eb = self.resolve_error_bound(layer, arr)
        codec = self.compressor
        serialize = self.storage is not None
        count = self.count_nonzero

        def job():
            # The layer name keys the stream, so a codebook-caching codec
            # amortizes its entropy setup across iterations: each layer
            # packs once per forward in a fixed order, so per-key cache
            # decisions stay deterministic.
            ct = codec.compress(arr, error_bound=eb, cache_key=layer.name)
            nz = float(np.count_nonzero(arr)) / arr.size if count else None
            return ct, _codec_dumps(ct) if serialize else None, nz

        self.engine.submit_pack(handle, job)
        return handle

    def unpack(self, layer: Layer, key: str, handle) -> np.ndarray:
        if not isinstance(handle, PackedActivation):
            return handle
        out = self.engine.obtain(handle)
        if self._relu_may_change(layer, handle):
            out = self._recompute_relu(handle, out)
        self._release(handle)
        return out

    def unpack_rows(self, layer: Layer, key: str, handle) -> SavedRows:
        if not (
            isinstance(handle, PackedActivation)
            and isinstance(self.compressor, SZCompressor)
        ):
            return super().unpack_rows(layer, key, handle)
        try:
            return _PackedRows(self, handle, layer)
        except BaseException:
            self._end_rows(handle)
            raise

    def _end_rows(self, handle: PackedActivation) -> None:
        """The end of a slice-by-slice read, on any path."""
        handle.reader = None
        self._release(handle)

    def discard(self, layer: Layer, key: str, handle) -> None:
        if isinstance(handle, PackedActivation):
            self._release(handle)


class _PackedRows:
    """A packed handle read a range of rows at a time through the
    context's engine, each read with the Section 4.4 ReLU recompute where
    it can change the rows; leaving its ``with`` block releases the
    handle."""

    def __init__(self, ctx: CompressingContext, handle: PackedActivation, layer: Layer):
        self._ctx, self._handle = ctx, handle
        # an empty read decodes the codes now, before the layer takes its
        # scratch: inside its takes the Huffman decode tables would stack
        # on them and grow the workspace slab past raw training's
        ctx.engine.obtain(handle, slice(0, 0))
        self._relu = ctx._relu_may_change(layer, handle)
        self.shape, self.dtype = tuple(handle.compressed.shape), np.dtype(handle.compressed.dtype)

    def read(self, rows: slice, out: Optional[np.ndarray] = None) -> np.ndarray:
        out = self._ctx.engine.obtain(self._handle, rows, out)
        return self._ctx._recompute_relu(self._handle, out) if self._relu else out

    def __enter__(self) -> "_PackedRows":
        return self

    def __exit__(self, *exc) -> None:
        self._ctx._end_rows(self._handle)
