"""End-to-end SZ/cuSZ-style error-bounded lossy compressor.

Pipeline (cuSZ, Tian et al. 2020, as used by the paper):

    float tensor
      --(dual-quantization, pitch 2*eb)-->  int grid indices
      --(Lorenzo prediction, or none)-->    residuals
      --(linear-scaling codes + outliers)-> bounded quantization codes
      --(canonical Huffman / DEFLATE)-->    compressed payload

Decompression inverts each stage; the absolute error bound

    |x - decompress(compress(x))| <= eb

holds by construction of the dual-quantization stage (exactly in the
quantizer's float64 arithmetic; casting the reconstruction back to the
input dtype can add at most one ulp of the data magnitude on top, the
same caveat real cuSZ carries).

The paper's Section 4.4 modification — a decompression-side filter that
re-zeroes any reconstructed value with ``|x'| <= eb`` so that
ReLU-produced zeros are never turned into small non-zero values — is
implemented via ``zero_filter=True`` (the default, as in the paper).

**Predict only where it pays.**  Under dual quantization the predictor
is a lossless transform of integer grid indices, so it changes bytes,
never a decoded value.  On ReLU-sparse activations 2-D Lorenzo costs
bits: it turns runs of exact zeros into non-zero residuals (``train_sz``
layer ``l2`` at step 0 needs 4.92 bits a value unpredicted and 8.88
under Lorenzo, Shannon bound plus outliers).  So ``compress`` picks one
predictor per tensor, as SZ 2 (Liang et al. 2018) picks one per block:
it quantizes the tensor's first :data:`CHOICE_VALUES`-value slice under
Lorenzo and then unpredicted (codes ``q + radius``), prices each by the
Shannon bits of its code histogram plus :data:`OUTLIER_BITS` an outlier,
and keeps Lorenzo unless no prediction is strictly cheaper.  The blob
records the choice in ``lorenzo_ndim``, 0 meaning none, and
``decompress`` of a 0 blob runs no prefix sum.  ``lorenzo_ndim=0``
configures no prediction at all: nothing is priced.

**Amortized entropy stage, and predictor with it.**  cuSZ treats
Huffman codebook construction as a setup cost amortized across the run,
because quantization-code distributions are stable between adjacent
training iterations (Tian et al. 2020, Section 4; the tree build happens
once on the host while the GPU streams data).  The Huffman stage does
the same for every keyed stream: a ``compress`` call that passes
``cache_key`` (the saved-tensor contexts pass the layer name) codes
under the key's canonical codebook in the codec's
:class:`~repro.compression.szlike.codebook_cache.CodebookCache`, reused
across calls with a one-``bincount`` staleness check (rebuild beyond a
``DELTA`` excess over the fresh-book estimate, or every
``REFRESH_INTERVAL`` uses) and an unconditional correctness escape —
symbols with no codeword under a cached book are demoted to the outlier
channel, so the error bound never depends on cache freshness.  The
predictor choice is amortized with the book: an entry records the
predictor its book codes, a key prices the choice only on its first call
and on the call after its book was (re)built, and every other call
quantizes each slice once, under the reused book's predictor.  In a
drifting stream the choice trails by at most one book lifetime
(``REFRESH_INTERVAL`` uses, or until the next staleness rebuild); the
predictor being lossless, that costs bytes, never the bound.  A call
without a key builds a fresh book and prices the predictor, so its blob
depends on no earlier call.

**Sliced halves.**  Planes over the last ``lorenzo_ndim`` axes predict
independently (at 0, every value is its own plane), so both halves run
over whole planes, at most :data:`SLICE_VALUES` values at a time (the
predictor choice has its own constant), and the bytes are those of one
whole-tensor pass: ``compress`` copies each slice's codes into one code
array and appends its outliers; ``decompress`` decodes that array, then
multiplies each block of rows' grid indices straight into the output
dtype, handing it the next as many outliers as it holds markers.  What
dies inside a call is borrowed from :data:`~repro.utils.scratch.WORKSPACE`
(only the decode kernel allocates its grid, one block's worth), in the
narrowest integer dtype exact for the slice (see
:mod:`repro.kernels.numpy_backend`), so compression adds nothing to what
the conv layers already hold there.

**Decode where it is consumed.**  The two decode steps are separate
calls: the entropy stage decodes the whole code array once (a Huffman
call runs its chunk size in vectorized steps whatever its lane count, so
cutting it would pay the steps' fixed cost once a cut), and
dequantization runs over any range of rows of the leading axis, in
order, under the running outlier cursor.
``decompress(ct)`` is both over every row; ``decompress`` of a
:class:`RowReader`'s :class:`CompressedRows` dequantizes only the rows
it names, straight into the caller's buffer whatever its strides, so a
conv backward holds one batch slice of its input instead of all of it
and every read still passes through the codec's one decode entry point.

The codec is two calls on self-describing objects, as cuSZ is:
``compress(x)`` returns a :class:`CompressedTensor` that carries
everything its decode needs (a Huffman stage's codebook included) and
``decompress(ct)`` inverts it.
"""

from __future__ import annotations

import math
import threading
import zlib
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Hashable, NamedTuple, Optional

import numpy as np

from repro.compression.lossless import inflate
from repro.compression.szlike.codebook_cache import CodebookCache
from repro.compression.szlike.huffman import (
    HuffmanCodebook,
    chunk_meta_nbytes,
    entropy_bits_from_hist,
    histogram,
    huffman_decode,
    huffman_encode,
)
from repro.kernels import get_backend
from repro.kernels.numpy_backend import codes_dtype_for_radius
from repro.utils import profiler
from repro.utils.scratch import WORKSPACE

__all__ = ["SZCompressor", "CompressedTensor", "CompressedRows", "RowReader", "HEADER_BYTES"]

# Fixed serialization overhead we charge per compressed tensor (shape,
# dtype tag, error bound, counts); matches cuSZ's on-GPU header scale.
# The accounting convention: ``CompressedTensor.nbytes`` counts every
# binary section at its exact ``serialize.dumps`` size and charges the
# variable-length wire header at this fixed figure (a real deployment
# would use a packed binary header of this scale; the JSON header our
# serializer writes is for debuggability).
HEADER_BYTES = 64

_ENTROPY_STAGES = ("huffman", "zlib", "none")
#: DEFLATE level of the ``zlib`` entropy stage
ZLIB_LEVEL = 1
#: values either half of the codec works on at once, in whole planes (one
#: at least).  An encode slice borrows 19 B a value, 608 KiB: with the
#: largest ``train_sz`` activation's 256 KiB of codes beneath it, under
#: the 1.21 MiB the conv layers hold in the workspace.
SLICE_VALUES = 1 << 15
#: values of the slice the predictor is chosen on: the first slice a
#: tensor is quantized in, and a constant of its own, so the blob does
#: not depend on :data:`SLICE_VALUES`
CHOICE_VALUES = SLICE_VALUES
#: price of one outlier in the predictor choice, in bits: its residual is
#: stored verbatim, as an int32 at least
OUTLIER_BITS = 32
#: codes :meth:`SZCompressor._demote_uncovered` gathers at once: ``np.take``
#: copies them to ``intp`` first, 64 KiB a block (1 MiB for the largest
#: ``train_sz`` stream taken whole, which raised its peak RSS)
GATHER_VALUES = 1 << 13


def _slices(shape: tuple, ndim: int, first: int = 0, values: Optional[int] = None):
    """``(start, stop, shape)`` of each slice of a C-order *shape* whose
    trailing *ndim* axes are Lorenzo-predicted, from flat offset *first*
    (a plane boundary) on: flat value ranges of whole planes over the
    leading axes, at most *values* (default :data:`SLICE_VALUES`) values
    each unless one plane is more, or the one whole tensor when there is
    no leading axis.  At ``ndim=0`` every value is its own plane."""
    lead = len(shape) - ndim
    if lead <= 0:
        if first == 0:
            yield 0, math.prod(shape), tuple(shape)
        return
    n, plane = math.prod(shape[:lead]), math.prod(shape[lead:])
    step = max(1, (SLICE_VALUES if values is None else values) // max(plane, 1))
    for lo in range(first // max(plane, 1), n, step):
        hi = min(lo + step, n)
        yield lo * plane, hi * plane, (hi - lo, *shape[lead:])


def _row_blocks(shape: tuple, ndim: int, lo: int = 0, hi: Optional[int] = None):
    """The blocks rows ``[lo, hi)`` of a C-order *shape* whose trailing
    *ndim* axes are Lorenzo-predicted are dequantized in, as ``(start,
    stop, index)``: the block's flat value range, and the basic index
    that picks it out of an array of those rows (a view, whatever its
    strides).  A block is whole planes, at most :data:`SLICE_VALUES`
    values unless one plane is more: runs of whole rows while a row fits,
    else each row cut the same way along its own leading axis.  With no
    leading axis the tensor is one plane, read whole.  No rows, no
    blocks."""
    if hi is not None and hi == lo:
        return
    if len(shape) <= ndim:
        if lo != 0 or hi not in (None, shape[0] if shape else 1):
            raise ValueError("a tensor predicted over all its axes is read whole")
        yield 0, math.prod(shape), (Ellipsis,)
        return
    hi = shape[0] if hi is None else hi
    row = math.prod(shape[1:])
    step = SLICE_VALUES // max(row, 1)
    if step:
        for r in range(lo, hi, step):
            end = min(r + step, hi)
            yield r * row, end * row, (slice(r - lo, end - lo),)
        return
    for r in range(lo, hi):
        for start, stop, index in _row_blocks(shape[1:], ndim):
            yield r * row + start, r * row + stop, (r - lo, *index)


def _pack_outliers(outliers: np.ndarray) -> np.ndarray:
    """Store outlier residuals in the narrowest safe integer dtype."""
    if outliers.size == 0:
        return outliers.astype(np.int32)
    lo, hi = int(outliers.min()), int(outliers.max())
    if np.iinfo(np.int32).min <= lo and hi <= np.iinfo(np.int32).max:
        return outliers.astype(np.int32)
    return outliers.astype(np.int64)


@dataclass
class CompressedTensor:
    """Opaque compressed representation of one activation tensor."""

    shape: tuple
    dtype: str
    error_bound: float
    radius: int
    lorenzo_ndim: int
    entropy: str
    payload: bytes
    total_bits: int
    count: int
    outliers: np.ndarray
    chunk_offsets: Optional[np.ndarray] = None
    codebook: Optional[HuffmanCodebook] = None
    zero_filter: bool = True
    raw_codes_dtype: str = "uint16"

    @property
    def original_nbytes(self) -> int:
        return math.prod(self.shape) * np.dtype(self.dtype).itemsize if self.shape else 0

    #: fixed header charge; ``nbytes`` == serialized length with the wire
    #: header swapped for this constant (see :data:`HEADER_BYTES`).
    header_nbytes = HEADER_BYTES

    @property
    def nbytes(self) -> int:
        """Compressed footprint: payload + outliers + codebook + header.

        Every section is charged at its exact serialized size, so
        ``nbytes == len(serialize.dumps(self)) - wire_header + HEADER_BYTES``
        (the chunk table is bit-packed, the codebook its deflated length
        table: :func:`~repro.compression.szlike.huffman.chunk_meta_nbytes`,
        :attr:`HuffmanCodebook.nbytes`).
        """
        n = len(self.payload) + self.outliers.nbytes + HEADER_BYTES
        if self.codebook is not None:
            n += self.codebook.nbytes
        if self.chunk_offsets is not None:
            n += chunk_meta_nbytes(self.count)
        return n

    @property
    def compression_ratio(self) -> float:
        return self.original_nbytes / self.nbytes if self.nbytes else 0.0


class SZCompressor:
    """Error-bounded lossy compressor for floating-point tensors.

    Parameters
    ----------
    error_bound:
        Absolute error bound (``mode='abs'``) or value-range-relative
        bound (``mode='rel'``, resolved per tensor at compress time).
    dict_size:
        Quantization-code alphabet size (cuSZ default 1024 -> radius 512).
    lorenzo_ndim:
        Number of trailing axes covered by the Lorenzo predictor when
        the codec predicts, 0-3 (2 treats ``(N, C, H, W)`` activations
        as per-map 2-D fields).  Each tensor is stored under it or
        unpredicted, whichever its first slice says costs fewer bits;
        the blob's ``lorenzo_ndim`` is the choice, 0 for none.  At 0
        every tensor is stored unpredicted and nothing is priced.
    entropy:
        Final entropy stage: ``'huffman'`` (faithful to cuSZ),
        ``'zlib'`` (fast DEFLATE over the code stream, analogous to SZ's
        zstd stage), or ``'none'``.  Under ``'huffman'`` a keyed
        :meth:`compress` call reuses its key's codebook and predictor
        from :attr:`codebook_cache`; an unkeyed call builds both afresh.
    zero_filter:
        Apply the paper's Section 4.4 re-zeroing filter at decompression.
    kernel_backend:
        Inner-loop implementation for the quantize/predict/entropy hot
        kernels: ``"numpy"`` (reference), ``"numba"`` (compiled; raises
        at construction when numba is unavailable), or ``"auto"``
        (default — probe numba once, warm it up off the profiled path,
        degrade to numpy counted-never-raised).  Every backend is
        bit-identical by contract; see :mod:`repro.kernels`.
    """

    #: registry metadata (see :mod:`repro.compression.registry`)
    name = "szlike"
    error_bounded = True
    lossless = False

    def __init__(
        self,
        error_bound: float = 1e-3,
        *,
        mode: str = "abs",
        dict_size: int = 1024,
        lorenzo_ndim: int = 2,
        entropy: str = "huffman",
        zero_filter: bool = True,
        emulate_zero_drift: bool = False,
        kernel_backend: str = "auto",
        rng=None,
    ):
        if mode not in ("abs", "rel"):
            raise ValueError(f"mode must be 'abs' or 'rel', got {mode!r}")
        if not 0 < error_bound < np.inf:
            raise ValueError(f"error bound must be positive and finite, got {error_bound}")
        if dict_size < 4 or dict_size & (dict_size - 1):
            raise ValueError(f"dict_size must be a power of two >= 4, got {dict_size}")
        if entropy not in _ENTROPY_STAGES:
            raise ValueError(f"entropy must be one of {_ENTROPY_STAGES}, got {entropy!r}")
        if (
            isinstance(lorenzo_ndim, bool)
            or not isinstance(lorenzo_ndim, (int, np.integer))
            or not 0 <= lorenzo_ndim <= 3
        ):
            raise ValueError(f"lorenzo_ndim must be an integer 0-3, got {lorenzo_ndim!r}")
        self.error_bound = float(error_bound)
        self.mode = mode
        self.dict_size = int(dict_size)
        self.radius = self.dict_size // 2
        self.lorenzo_ndim = int(lorenzo_ndim)
        self.entropy = entropy
        self.zero_filter = bool(zero_filter)
        #: one book and predictor per ``cache_key`` (a server re-points
        #: it at a shared table)
        self.codebook_cache = CodebookCache()
        # Unmodified cuSZ reconstructs runs of zeros as small values within
        # the error bound (the pathology motivating the Section 4.4 filter).
        # Our integer pipeline reconstructs zeros exactly, so the pathology
        # can be *emulated* for ablation studies: zero grid points are
        # perturbed uniformly within +-eb (exact zeros stay error-bounded;
        # near-zero values that quantized to the zero grid point can err up
        # to 2*eb — that drift is precisely the pathology being emulated).
        self.emulate_zero_drift = bool(emulate_zero_drift)
        from repro.utils.rng import ensure_rng

        self._rng = ensure_rng(rng)
        # numpy Generators are not thread-safe; a server's scheduler may
        # run a tenant's steps on any of its threads.
        self._rng_lock = threading.Lock()
        #: requested backend name
        self.kernel_backend = kernel_backend
        self._kernels = get_backend(kernel_backend)

    @property
    def kernel_backend_selected(self) -> str:
        """The backend actually serving this codec's hot loops (``"auto"``
        resolves to ``"numba"`` or ``"numpy"`` at construction)."""
        return self._kernels.name

    def set_kernel_backend(self, kernel_backend: str) -> None:
        """Re-point the hot loops at *kernel_backend* (same validation
        and resolution as the constructor; ``"numba"`` raises when
        unavailable)."""
        self._kernels = get_backend(kernel_backend)
        self.kernel_backend = kernel_backend

    # -- helpers ---------------------------------------------------------
    def resolve_error_bound(self, x: np.ndarray) -> float:
        """The absolute bound a compress() call on *x* would use."""
        if self.mode == "abs":
            return self.error_bound
        vrange = float(x.max()) - float(x.min()) if x.size else 0.0
        return self.error_bound * vrange if vrange > 0 else self.error_bound

    def _effective_ndim(self, x: np.ndarray) -> int:
        """The axes Lorenzo predicts *x* over when the codec predicts (0:
        it never does)."""
        return min(self.lorenzo_ndim, x.ndim)

    def _bits(self, codes: np.ndarray, outliers: np.ndarray) -> float:
        """What one candidate's slice would store, in bits: the Shannon
        bound of its codes plus its outliers verbatim."""
        hist = histogram(codes, self.dict_size)
        return entropy_bits_from_hist(hist) + OUTLIER_BITS * outliers.size

    def _quantize_into(self, x: np.ndarray, eb: float, ndim: int, codes: np.ndarray) -> np.ndarray:
        """One slice through the ``quantize_encode`` kernel: its codes
        copied into *codes*; returns its outliers, in positional order."""
        with ExitStack() as stack:
            got, outliers, _ = self._kernels.quantize_encode(
                x, eb, self.radius, ndim, WORKSPACE, stack
            )
            codes[...] = got.reshape(-1)
        return outliers

    def _quantize_slices(
        self, x: np.ndarray, eb: float, lorenzo: int, codes: np.ndarray,
        predictor: Optional[int] = None,
    ):
        """The front half, one slice at a time, codes into *codes*.

        Every slice runs under *predictor* when one is given (the one a
        reused codebook codes, see :meth:`compress`).  Otherwise the
        predictor is chosen on the tensor's first
        :data:`CHOICE_VALUES`-value slice: quantized under Lorenzo over
        *lorenzo* axes, then unpredicted, one after the other, and kept
        unpredicted when that costs fewer :meth:`_bits`; every later
        slice runs under the choice.  At ``lorenzo=0`` there is nothing
        to choose.  Returns ``(ndim, outliers in positional order)``.
        """
        flat = x.reshape(-1)
        ndim, end, parts = lorenzo, 0, []
        if predictor is not None:
            ndim = predictor
        elif lorenzo:
            _, end, shape = next(_slices(x.shape, lorenzo, values=CHOICE_VALUES))
            sample = flat[:end].reshape(shape)
            outliers = self._quantize_into(sample, eb, lorenzo, codes[:end])
            with ExitStack() as stack:
                plain, plain_outliers, _ = self._kernels.quantize_encode(
                    sample, eb, self.radius, 0, WORKSPACE, stack
                )
                with profiler.stage("predict"):
                    if self._bits(plain, plain_outliers) < self._bits(codes[:end], outliers):
                        codes[:end] = plain.reshape(-1)
                        ndim, outliers = 0, plain_outliers
            parts.append(outliers)
        for start, stop, shape in _slices(x.shape, ndim, first=end):
            parts.append(
                self._quantize_into(flat[start:stop].reshape(shape), eb, ndim, codes[start:stop])
            )
        return ndim, np.concatenate(parts)

    @staticmethod
    def _demote_uncovered(
        codes: np.ndarray,
        outliers: np.ndarray,
        hist: np.ndarray,
        codebook: HuffmanCodebook,
        radius: int,
    ):
        """Escape symbols without codewords to the outlier channel.

        The histogram answers "is anything uncovered?" in O(alphabet) —
        the common warm-cache case pays no per-element work here.  When
        demotion is needed, *codes* is mutated in place (uncovered
        positions become the marker code 0) and ``(outliers, n_escape,
        hist)`` carries the merged positional-order outlier array and
        the histogram of the mutated codes (corrected in O(alphabet),
        not re-counted); otherwise ``(None, 0, hist)``.
        Requires the marker symbol itself to be covered and the book's
        alphabet to span the histogram's — the cache's viability checks
        guarantee both before reuse is allowed.
        """
        bad_syms = (hist > 0) & (codebook.lengths[: hist.size] == 0)
        n_escape = int(hist[bad_syms].sum())
        if n_escape == 0:
            return None, 0, hist
        # The outlier stream in positional order, as the decode consumes
        # it: the stored residual at an existing marker, ``code - radius``
        # at a freshly demoted position.
        escapes = bad_syms.copy()
        escapes[0] = True
        # One gather over the stream, then only the escaped positions are
        # touched.  ``take`` is ~2x as fast as ``escapes[codes]`` but first
        # copies its indices to ``intp``: block by block, that copy stays small.
        at = np.empty(codes.size, dtype=bool)
        for lo in range(0, codes.size, GATHER_VALUES):
            hi = lo + GATHER_VALUES
            np.take(escapes, codes[lo:hi], out=at[lo:hi])
        at = np.flatnonzero(at)
        merged = codes[at].astype(np.int64)
        stored = merged == 0
        merged -= radius
        merged[stored] = outliers
        codes[at] = 0
        hist = np.where(bad_syms, 0, hist)
        hist[0] += n_escape
        return merged, n_escape, hist

    # -- API -------------------------------------------------------------
    def compress(
        self,
        x: np.ndarray,
        error_bound: Optional[float] = None,
        *,
        cache_key: Optional[Hashable] = None,
    ) -> CompressedTensor:
        """Compress *x* under the (per-call overridable) error bound.

        ``cache_key`` names the tensor stream for cross-iteration
        codebook and predictor amortization under the Huffman stage
        (without one, the call builds a fresh book); symbols a cached
        book does not cover escape to the outlier channel, so the error
        bound is unconditional.  A key's entry is never evicted: it
        lives as long as the codec.  The saved-tensor context passes one
        key per compressible layer, so the cache holds one entry each.
        """
        x = np.asarray(x)
        if not np.issubdtype(x.dtype, np.floating):
            raise TypeError(f"SZCompressor expects floating-point input, got {x.dtype}")
        if x.size == 0:
            raise ValueError("cannot compress an empty tensor")
        # NaN and +-inf both reach an extreme: no stream-sized mask
        if not (math.isfinite(float(x.min())) and math.isfinite(float(x.max()))):
            raise ValueError("input contains non-finite values")
        eb = float(error_bound) if error_bound is not None else self.resolve_error_bound(x)
        if not 0 < eb < np.inf:
            raise ValueError(f"resolved error bound must be positive and finite, got {eb}")
        lorenzo = self._effective_ndim(x)
        huffman = self.entropy == "huffman"
        cache = self.codebook_cache if huffman and cache_key is not None else None
        predictor = None
        if cache is not None:
            # the predictor a reused book codes, unless the key's tensors
            # changed their axes since
            predictor = cache.predictor(cache_key)
            if predictor not in (0, lorenzo):
                predictor = None
        with ExitStack() as stack:
            codes = stack.enter_context(
                WORKSPACE.take((x.size,), codes_dtype_for_radius(self.radius))
            )
            ndim, outliers = self._quantize_slices(x, eb, lorenzo, codes, predictor)
            out_codebook = None
            total_bits = 0
            chunk_offsets = None
            if huffman:
                with profiler.stage("encode"):
                    # one histogram feeds the codebook build / cache check
                    # and sizes the encoder's payload
                    hist = histogram(codes, self.dict_size)
                    if cache is None:
                        out_codebook, reused = HuffmanCodebook.from_frequencies(hist), False
                    else:
                        out_codebook, reused = cache.lookup(cache_key, hist, ndim)
                    if reused:
                        escaped, n_escape, hist = self._demote_uncovered(
                            codes, outliers, hist, out_codebook, self.radius
                        )
                        if escaped is not None:
                            outliers = escaped
                            cache.note_escapes(n_escape)
                    payload, total_bits, chunk_offsets = huffman_encode(
                        codes, out_codebook, kernels=self._kernels, hist=hist
                    )
            elif self.entropy == "zlib":
                with profiler.stage("encode"):
                    payload = zlib.compress(codes, ZLIB_LEVEL)
            else:  # 'none'
                payload = codes.tobytes()
            packed_outliers = _pack_outliers(outliers)

        return CompressedTensor(
            shape=x.shape,
            dtype=str(x.dtype),
            error_bound=eb,
            radius=self.radius,
            lorenzo_ndim=ndim,
            entropy=self.entropy,
            payload=payload,
            total_bits=total_bits,
            count=x.size,
            outliers=packed_outliers,
            chunk_offsets=chunk_offsets,
            codebook=out_codebook,
            zero_filter=self.zero_filter,
            raw_codes_dtype=str(codes.dtype),
        )

    def decompress(self, ct) -> np.ndarray:
        """Reconstruct the tensor; max abs error is ``ct.error_bound``.
        Given a :class:`CompressedRows`, only its rows (see
        :class:`RowReader`)."""
        if isinstance(ct, CompressedRows):
            return self._decompress_rows(*ct)
        x = np.empty(ct.shape, dtype=ct.dtype)
        with profiler.stage("decode"), ExitStack() as stack:
            out = None
            if ct.entropy == "huffman":
                out = stack.enter_context(WORKSPACE.take((ct.count,), ct.codebook.symbol_dtype))
            self._dequantize_rows(self._decode_codes(ct, out), ct, x)
        self._filter_zeros(ct, x)
        return x

    def _decompress_rows(
        self, reader: "RowReader", rows: slice, out: Optional[np.ndarray]
    ) -> np.ndarray:
        """Rows *rows* of *reader*'s tensor, the next ones it has not
        read, into *out* or a fresh array.  The first read decodes the
        code array, an empty one only that."""
        ct = reader.ct
        n_rows = ct.shape[0] if ct.shape else 1
        lo, hi, _ = rows.indices(n_rows)
        if lo != reader.row:
            raise ValueError(f"rows are read in order: row {reader.row} is next, not {lo}")
        if out is None:
            out = np.empty((hi - lo, *ct.shape[1:]) if ct.shape else (), ct.dtype)
        with profiler.stage("decode"):
            if reader.codes is None:
                reader.codes = self._decode_codes(ct, None)
            reader.cursor = self._dequantize_rows(reader.codes, ct, out, lo, reader.cursor)
        reader.row = hi
        if hi == n_rows:
            reader.codes = None
        self._filter_zeros(ct, out)
        return out

    def _decode_codes(self, ct: CompressedTensor, out: Optional[np.ndarray]) -> np.ndarray:
        """The entropy half of the decode: *ct*'s whole code array.  A
        Huffman stream decodes into *out* (``ct.count`` symbols of the
        book's dtype) or a fresh array; the others are read from the
        payload."""
        if ct.entropy == "huffman":
            return huffman_decode(
                ct.payload,
                ct.total_bits,
                ct.count,
                ct.codebook,
                chunk_offsets=ct.chunk_offsets,
                kernels=self._kernels,
                out=out,
            )
        codes_dtype = np.dtype(ct.raw_codes_dtype)
        if codes_dtype.kind != "u":
            raise ValueError(f"quantization codes cannot be {codes_dtype}")
        payload = ct.payload
        if ct.entropy == "zlib":
            payload = inflate(payload, ct.count * codes_dtype.itemsize)
        codes = np.frombuffer(payload, dtype=codes_dtype)
        if codes.size != ct.count:
            raise ValueError(f"payload holds {codes.size} codes, expected {ct.count}")
        return codes

    def _dequantize_rows(
        self, codes: np.ndarray, ct: CompressedTensor, out: np.ndarray, lo: int = 0,
        cursor: int = 0,
    ) -> int:
        """The back half over rows ``[lo, lo + len(out))`` of *ct*, one
        :func:`_row_blocks` block at a time: the ``quantize_decode``
        kernel's grid indices times ``2 * eb`` in float64, rounded once
        into the block's view of *out*.  Each block takes the next as
        many outliers as it holds markers, from *cursor* (the outliers of
        the rows before *lo*) on, and hands the kernel that count, so the
        markers are counted once; returns the cursor after the last row.
        A total that differs at the tensor's last row is corruption."""
        outliers = ct.outliers
        n_rows = ct.shape[0] if ct.shape else 1
        hi = lo + (len(out) if ct.shape else 1)
        for start, stop, index in _row_blocks(ct.shape, ct.lorenzo_ndim, lo, hi):
            part, dst = codes[start:stop], out[index]
            n_out = part.size - int(np.count_nonzero(part))
            if cursor + n_out > outliers.size:
                cursor = -1  # more markers than outliers
                break
            q = self._kernels.quantize_decode(
                part, outliers[cursor : cursor + n_out], ct.radius, dst.shape, ct.lorenzo_ndim,
                markers=n_out,
            )
            cursor += n_out
            np.multiply(q, 2.0 * ct.error_bound, out=dst, dtype=np.float64, casting="unsafe")
        if cursor < 0 or hi == n_rows and cursor != outliers.size:
            markers = codes.size - int(np.count_nonzero(codes))
            raise ValueError(
                f"outlier bookkeeping mismatch: {markers} markers vs {outliers.size} stored values"
            )
        return cursor

    def _filter_zeros(self, ct: CompressedTensor, x: np.ndarray) -> None:
        """The zero pathology, emulated, and the Section 4.4 filter, on a
        reconstruction *x* (the whole tensor or rows of it, in order)."""
        if self.emulate_zero_drift:
            # q = 0 is the one grid index that reconstructs to 0
            zeros = x == 0
            n_zero = int(zeros.sum())
            if n_zero:
                with self._rng_lock:
                    drift = self._rng.uniform(-ct.error_bound, ct.error_bound, n_zero)
                x[zeros] = drift.astype(x.dtype)
        # Paper Section 4.4: re-zero anything within the error bound so
        # ReLU zeros survive compression exactly.  On this integer
        # pipeline the filter is the identity unless drift is emulated:
        # q = 0 reconstructs to exactly +0.0, and |q| >= 1 to at least
        # 2*eb rounded into the output dtype, which exceeds eb rounded
        # into it whenever eb is at least that dtype's smallest normal
        # (both roundings are monotonic and a normal float doubles
        # exactly).  A bound below the dtype's resolution keeps the pass.
        if ct.zero_filter and (
            self.emulate_zero_drift or ct.error_bound < np.finfo(x.dtype).tiny
        ):
            x[np.abs(x) <= ct.error_bound] = 0

    def roundtrip(self, x: np.ndarray, error_bound: Optional[float] = None) -> np.ndarray:
        """Convenience: decompress(compress(x))."""
        return self.decompress(self.compress(x, error_bound))


class RowReader:
    """A compressed tensor reconstructed a range of leading-axis rows at a
    time, in increasing order, each range by the codec's own
    ``decompress``: ``codec.decompress(reader.rows(rows, out=None))``
    returns rows *rows* (a ``slice``) of ``codec.decompress(ct)``, bit
    for bit, in *out* (any strides) when given, else in a fresh array.

    The first read decodes the whole code array, once, into a fresh array
    rather than the workspace (it lives while the caller takes its own
    scratch); the read that reaches the last row drops it.  A read of no
    rows (``slice(0, 0)``) decodes it and nothing else, so a caller can
    have the decode's own scratch come and go before it takes its own.
    """

    def __init__(self, ct: CompressedTensor):
        self.ct = ct
        self.codes: Optional[np.ndarray] = None
        #: the next row to read, and the outliers of the rows before it
        self.row = self.cursor = 0

    def rows(self, rows: slice, out: Optional[np.ndarray] = None) -> "CompressedRows":
        return CompressedRows(self, rows, out)


class CompressedRows(NamedTuple):
    """One read of a :class:`RowReader`: a compressed object of its own,
    which :meth:`SZCompressor.decompress` reconstructs."""

    reader: RowReader
    rows: slice
    out: Optional[np.ndarray] = None
