"""Reference NumPy implementations of the five hot kernels.

This module is the single source of truth for the inner loops of the
SZ pipeline's hot path.  Two layers live in this file:

* **Building blocks** (public names): ``apply_outliers``, ``diff_axes``
  / ``cumsum_axes``, ``block_bincount``, ``pack_words``,
  ``unpack_window``.  The szlike
  modules call these to keep their public reference API
  (``lorenzo_encode``, ``residuals_from_codes``, ...) working; each is
  dtype-generic — the reference API runs it in ``int64``, the hot path
  in the narrowest dtype that is *exact* for the tensor at hand.
* **The backend contract** (``_numpy_*`` names): the five kernels every
  :class:`~repro.kernels.backends.KernelBackend` exposes —
  ``quantize_encode`` (fused quantize→predict→codes over pooled
  scratch), ``quantize_decode`` (codes+outliers→grid indices),
  ``lorenzo_predict``, ``huffman_pack_words``,
  ``huffman_unpack_window``.  Code under ``compression/szlike/`` must
  reach these via :func:`repro.kernels.get_backend` — never by their
  private names (reprolint rule BKD001) — so a configured backend is
  never silently bypassed.

**Dtype rules.**  After the first division everything is integer work on
values that usually fit in 10-17 bits, so grid indices and Lorenzo
residuals are ``int32`` whenever a guard computed from the data proves
they fit, else ``int64`` through the *same* code (counted in
``kernel_stats()["wide_grid_calls"]``, logged once):

* encode: ``max|q| * 2^ndim + radius < 2^31`` — a Lorenzo residual over
  ``ndim`` axes is a signed sum of ``2^ndim`` grid indices, and the code
  mapping adds the radius;
* decode: ``span * max(radius, max code - radius, max|outlier|) < 2^31``
  with ``span`` the element count of the predicted axes — every prefix
  sum of every axis adds at most ``span`` residuals, so a hostile
  outlier selects ``int64``, never an overflow.

This module imports only numpy, the stage profiler and the workspace
(:data:`repro.utils.scratch.WORKSPACE`, which the Huffman kernels borrow
their scratch from): the kernels layer sits *below* the codec layer and
must never import from it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils import profiler
from repro.utils.scratch import WORKSPACE

__all__ = [
    "apply_outliers",
    "validate_lorenzo",
    "diff_axes",
    "diff_axes_alloc",
    "cumsum_axes",
    "block_bincount",
    "grid_extent",
    "pack_words",
    "unpack_window",
    "codes_dtype_for_radius",
]

#: symbols per encode block for :func:`pack_words` (a multiple of every
#: per-tensor decode chunk size — powers of two up to 256 — so
#: chunk-offset sampling never straddles a block boundary; other sizes
#: round the block down to a multiple); bounds the per-block temporaries
#: regardless of size
ENCODE_BLOCK = 1 << 14


def codes_dtype_for_radius(radius: int) -> np.dtype:
    """The narrowest unsigned dtype holding every code in (0, 2*radius)."""
    return np.dtype(np.uint16 if 2 * radius <= np.iinfo(np.uint16).max else np.uint32)


# ---------------------------------------------------------------------------
# Quantize / codes building blocks (from szlike/quantizer.py)
# ---------------------------------------------------------------------------


def _grid_dtype(magnitude, kernel: str, shape, error_bound=None) -> np.dtype:
    """``int32`` when *magnitude* (a bound on every intermediate of the
    kernel, see the module docstring) proves it exact, else ``int64`` —
    counted and logged, because the wide path costs about twice the time."""
    if magnitude < 1 << 31:
        return np.dtype(np.int32)
    from repro.kernels.backends import note_wide_grid  # backends imports this module

    note_wide_grid(kernel, shape, error_bound, magnitude)
    return np.dtype(np.int64)


def grid_extent(x: np.ndarray, error_bound: float) -> float:
    """The largest grid index magnitude ``rint(max|x| / (2 eb))`` of *x*
    (dividing by a positive and rint are monotonic, so it belongs to an
    extreme input: half the bytes to scan).  A ``ValueError`` when it
    does not fit ``int64``, the widest grid: the cast would wrap the
    index and the value would decode silently wrong."""
    magnitude = max(-float(x.min()), float(x.max()))
    q_max = np.rint(magnitude / (2.0 * error_bound))
    if q_max >= 2.0**63:
        raise ValueError(
            f"error bound {error_bound:g} is too small for max|x| = {magnitude:g}: "
            f"its grid index {q_max:g} does not fit int64"
        )
    return q_max


def apply_outliers(
    codes: np.ndarray, outliers: np.ndarray, radius: int, dtype=np.int64, markers=None
) -> np.ndarray:
    """Flat *dtype* residuals ``code - radius`` from codes (the inverse of
    the code mapping; the caller picked a *dtype* that holds them).

    Marker positions (code 0) take their residual from *outliers* in
    order of appearance; a marker/outlier count mismatch is corruption.
    *markers* is the marker count when the caller has counted them
    already, else they are counted here.
    """
    flat = codes.reshape(-1)
    delta = np.subtract(flat, radius, dtype=dtype, casting="unsafe")
    n_out = flat.size - int(np.count_nonzero(flat)) if markers is None else markers
    if n_out != outliers.size:
        raise ValueError(
            f"outlier bookkeeping mismatch: {n_out} markers vs {outliers.size} stored values"
        )
    if n_out:
        delta[flat == 0] = outliers
    return delta


# ---------------------------------------------------------------------------
# Lorenzo building blocks (from szlike/lorenzo.py)
# ---------------------------------------------------------------------------


def validate_lorenzo(arr: np.ndarray, ndim: int) -> int:
    """*ndim* itself: 1-3 predicted trailing axes of *arr*, or 0, no
    prediction (the residuals are the grid indices)."""
    if ndim < 0 or ndim > 3:
        raise ValueError(f"Lorenzo prediction supports 0-3 dims, got {ndim}")
    if arr.ndim < ndim:
        raise ValueError(
            f"array with {arr.ndim} axes cannot be Lorenzo-predicted over {ndim} axes"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError("Lorenzo transform requires integer (pre-quantized) input")
    return ndim


def _diff_into(src: np.ndarray, axis: int, dst: np.ndarray) -> None:
    """Finite difference along *axis* from *src* into *dst* (boundary
    element copied).  *dst* must not alias *src*."""
    first = [slice(None)] * src.ndim
    first[axis] = slice(0, 1)
    if src.flags.c_contiguous and dst.flags.c_contiguous:
        # One long lagged subtract over the flat buffers instead of one
        # short one per row; what it writes across a boundary is
        # overwritten by the boundary copy below.
        lag = math.prod(src.shape[axis + 1 :])
        s, d = src.reshape(-1), dst.reshape(-1)
        np.subtract(s[lag:], s[: s.size - lag], out=d[lag:])
    else:
        hi = [slice(None)] * src.ndim
        lo = [slice(None)] * src.ndim
        hi[axis] = slice(1, None)
        lo[axis] = slice(None, -1)
        np.subtract(src[tuple(hi)], src[tuple(lo)], out=dst[tuple(hi)])
    dst[tuple(first)] = src[tuple(first)]


def diff_axes(q: np.ndarray, ndim: int, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Per-axis finite differences ping-ponging between *out* and *work*
    (*work* may be *q* itself).  Returns whichever buffer holds the
    final residuals."""
    src, dst = q, out
    for axis in range(q.ndim - ndim, q.ndim):
        _diff_into(src, axis, dst)
        src, dst = dst, (work if dst is out else out)
    return src


def diff_axes_alloc(q: np.ndarray, ndim: int) -> np.ndarray:
    """Allocating form of :func:`diff_axes` (one ``np.diff`` per axis)."""
    res = q
    for axis in range(q.ndim - ndim, q.ndim):
        res = np.diff(res, axis=axis, prepend=np.zeros_like(res.take([0], axis=axis)))
    return res


def cumsum_axes(delta: np.ndarray, ndim: int, out: np.ndarray = None) -> np.ndarray:
    """Invert :func:`diff_axes` (cumulative sums along each axis);
    ``out=delta`` accumulates in place."""
    res = delta
    for axis in range(delta.ndim - ndim, delta.ndim):
        res = np.cumsum(res, axis=axis, dtype=delta.dtype, out=out)
    return res


# ---------------------------------------------------------------------------
# Huffman building blocks (from szlike/huffman.py)
# ---------------------------------------------------------------------------


def block_bincount(symbols: np.ndarray, minlength: int, block: int) -> np.ndarray:
    """``np.bincount(symbols, minlength=minlength)`` over a flat stream,
    *block* symbols at a time: ``bincount`` widens its input to ``intp``,
    so a whole-stream call on ``uint16`` codes allocates four times the
    stream; here the widened copy is O(block).  A symbol at or beyond
    *minlength* lengthens the result, as ``np.bincount`` does."""
    hist = np.zeros(minlength, dtype=np.intp)
    for a in range(0, symbols.size, block):
        part = np.bincount(symbols[a : a + block])
        if part.size > hist.size:
            hist = np.pad(hist, (0, part.size - hist.size))
        hist[: part.size] += part
    return hist


def pack_words(symbols: np.ndarray, lengths: np.ndarray, codes: np.ndarray, chunk_size: int, hist=None):
    """Pair-packed blocked encoder (the low-allocation hot path).

    One gather from a fused ``(code << 8) | length`` table, then adjacent
    codewords merge into *pairs* of <= 32 bits (``c_even << len_odd |
    c_odd``), so everything below runs over n/2 elements.  A pair spans
    at most two adjacent big-endian 32-bit output words: shift it into a
    64-bit window at its bit position, split into (high word, low word)
    halves, and merge all contributions per word with ``bincount`` —
    pairs occupy disjoint bits, so integer addition *is* bitwise OR (and
    the float64 weight sums stay exact: each word's total is < 2^32).

    *hist* is the symbol histogram when the caller already holds it
    (``compress`` does); it sizes the output exactly and answers "does
    every symbol have a codeword?" in O(alphabet).  Without it one
    ``bincount`` over the stream rebuilds it.  Scratch is O(block)
    temporaries plus one borrowed word array: ~1x the packed payload
    plus a constant, versus the bit-plane encoder's 8x.

    Returns ``(payload bytes, total_bits, chunk_offsets int64)``.
    """
    n = symbols.size
    block = max(chunk_size, (ENCODE_BLOCK // chunk_size) * chunk_size)
    if hist is None:  # a symbol beyond the codebook lengthens it: raised below
        hist = block_bincount(symbols, lengths.size, block)
    if hist[lengths.size :].any():
        raise IndexError(f"symbol beyond the {lengths.size}-entry codebook")
    hist = hist[: lengths.size]
    used = lengths[: hist.size]
    if ((hist > 0) & (used == 0)).any():
        bad = int(symbols[lengths[symbols] == 0][0])
        raise ValueError(f"symbol {bad} has no codeword in this codebook")
    total_bits = int(np.dot(hist, used.astype(np.int64)))

    table = (codes.astype(np.uint32) << 8) | lengths
    # block is a multiple of chunk_size, so every chunk starts at the
    # same block-local symbols: pair starts[i] >> 1, and — only for an
    # odd chunk_size — that pair's second codeword
    starts = np.arange(0, min(block, n), chunk_size)
    start_pair, start_odd = starts >> 1, starts & 1
    # The word array doubles as the output byte buffer: a borrowed uint8
    # array viewed as big-endian uint32 for the merge writes, sliced to
    # the exact payload length at the end — no byteswap copy, no trim copy.
    with WORKSPACE.take((4 * (((total_bits + 31) >> 5) + 1),), np.uint8) as out8:  # +1 word: lo spill
        out8.fill(0)
        words = out8.view(">u4")
        chunk_parts = []
        base_bits = 0
        for a in range(0, n, block):
            s = symbols[a : a + block]
            m = s.size
            half = (m + 1) >> 1
            if m & 1:  # pad the last pair with an empty codeword
                cl = np.zeros(2 * half, dtype=np.uint32)
                table.take(s, out=cl[:m])
            else:
                cl = table.take(s)
            even, odd = cl[0::2], cl[1::2]
            pair = ((even >> 8) << (odd & 0xFF)) | (odd >> 8)
            # Bit positions relative to the block's first output word w0, so
            # they fit uint32 (a block holds at most 16 * block bits): one
            # in-place cumsum turns [r0, len_0, len_1, ...] into every pair's
            # start and, in the last slot, the block's end.
            w0, r0 = base_bits >> 5, base_bits & 31
            ends = np.empty(half + 1, dtype=np.uint32)
            ends[0] = r0
            plen = ends[1:]
            np.add(even, odd, out=plen)
            plen &= 0xFF  # lengths are <= 16 each: the sum never carries out of the low byte
            shift = 64 - plen  # before the cumsum overwrites the lengths
            np.cumsum(ends, out=ends)
            off = ends[:-1]
            n_here = -(-m // chunk_size)
            part = off[start_pair[:n_here]].astype(np.int64)
            if chunk_size & 1:
                part += start_odd[:n_here] * (even[start_pair[:n_here]] & 0xFF)
            part += base_bits - r0
            chunk_parts.append(part)
            # 64-bit window: bit r = off & 31 within word w, so the pair sits
            # at shift (64 - r - len); top half lands in word w, bottom half
            # in word w + 1.
            w = off >> 5
            shift -= off & 31
            val = pair.astype(np.uint64) << shift.astype(np.uint64)
            n_local = int(w[-1]) + 2
            acc = np.bincount(w, weights=val >> 32, minlength=n_local)
            lo = np.bincount(w, weights=val & 0xFFFFFFFF, minlength=n_local)
            acc[1:] += lo[:-1]
            words[w0 : w0 + n_local] |= acc.astype(">u4")
            base_bits += int(ends[-1]) - r0
        payload = out8[: (total_bits + 7) >> 3].tobytes()
    if chunk_parts:
        chunk_offsets = np.concatenate(chunk_parts) if len(chunk_parts) > 1 else chunk_parts[0]
    else:
        chunk_offsets = np.zeros(0, dtype=np.int64)
    return payload, total_bits, chunk_offsets


def unpack_window(
    payload: bytes,
    total_bits: int,
    count: int,
    tsym: np.ndarray,
    tlen: np.ndarray,
    L: int,
    chunk_offsets: np.ndarray,
    chunk_size: int,
    out: np.ndarray = None,
) -> np.ndarray:
    """Data-parallel chunked decode reading L-bit windows in place.

    All chunks advance one symbol per vectorized step — ``min(chunk_size,
    count)`` steps over ``n_chunks`` lanes, so callers want chunks of
    ~``sqrt(count)`` symbols.  The 24-bit big-endian window starting at
    every payload byte (three bytes cover any 16-bit codeword at any bit
    phase) is built once per call, making each step one gather + shift +
    mask; scratch is that window array (4x the payload) and the padded
    payload, both borrowed from the workspace, and O(#chunks) per-step
    temporaries.  The payload is padded by what a chunk of maximal
    codewords can over-run (2 bytes per step, +4 for the window), so no
    cursor — not even one started by a hostile offset just below
    ``total_bits`` — can gather out of bounds.  The caller validated the
    chunk metadata and built the dense ``(tsym, tlen)`` tables; the
    symbols come back in ``tsym``'s dtype, in *out* when given.
    """
    if out is None:
        out = np.empty(count, dtype=tsym.dtype)
    n = len(payload)
    with WORKSPACE.take((n + 2 * chunk_size + 4,), np.uint8) as buf, WORKSPACE.take(
        (n + 2 * chunk_size + 2,), np.int32
    ) as win:
        buf[:n] = np.frombuffer(payload, dtype=np.uint8)
        buf[n:] = 0
        win[...] = buf[:-2]
        win <<= 8
        win |= buf[1:-1]
        win <<= 8
        win |= buf[2:]
        pos = chunk_offsets.astype(np.int64)
        base = 24 - L
        mask = (1 << L) - 1
        for i in range(min(chunk_size, count)):
            p = (win[pos >> 3] >> (base - (pos & 7))) & mask
            lanes = out[i::chunk_size]  # symbol i of every chunk that has one
            lanes[...] = tsym[p[: lanes.size]]
            pos += tlen[p]
    return out


# ---------------------------------------------------------------------------
# The five-kernel backend contract (reference implementations)
# ---------------------------------------------------------------------------


def _numpy_quantize_encode(x, error_bound, radius, ndim, pool, stack):
    """Quantize → Lorenzo-predict → bounded codes over pooled scratch.

    Returns ``(codes, outliers, flat_delta)``; *codes* and *flat_delta*
    reference pooled memory owned by *stack*, so they are valid only
    until the stack closes.  Stage attribution matches the historical
    pipeline: "quantize" covers the grid round, "predict" the residual
    transform and code mapping.
    """
    if not 0 < error_bound < math.inf:
        raise ValueError(f"error bound must be positive and finite, got {error_bound}")
    if radius < 2:
        raise ValueError(f"radius must be >= 2, got {radius}")
    take = pool.take
    with profiler.stage("quantize"):
        q_max = grid_extent(x, error_bound)
        # dtype=float64 forces the division into double precision even
        # for float32 input — the arithmetic of the allocating
        # ``prequantize``, so the two quantize bit-identically (rint keeps
        # ties-to-even like cuSZ's round).
        work = stack.enter_context(take(x.shape, np.float64))
        np.divide(x, 2.0 * error_bound, out=work, dtype=np.float64)
        np.rint(work, out=work)
        dtype = _grid_dtype(q_max * 2.0**ndim + radius, "quantize_encode", x.shape, error_bound)
        qa = stack.enter_context(take(x.shape, dtype))
        np.copyto(qa, work, casting="unsafe")  # values are integral floats
    with profiler.stage("predict"):
        qb = stack.enter_context(take(x.shape, dtype))
        # Ping-pong between the two integer buffers; qa's contents are
        # disposable once the first difference lands in qb.
        delta = diff_axes(qa, ndim, out=qb, work=qa)
        flat = delta.reshape(-1)
        shifted = (qa if delta is qb else qb).reshape(-1)
        inlier = stack.enter_context(take(flat.shape, bool))
        codes = stack.enter_context(take(flat.shape, codes_dtype_for_radius(radius)))
        # code = delta + radius where 0 < code < 2r, i.e. where
        # unsigned(code - 1) < 2r - 1: one compare instead of two and an and
        np.add(flat, radius - 1, out=shifted)
        np.less(shifted.view(f"u{dtype.itemsize}"), 2 * radius - 1, out=inlier)
        np.add(flat, radius, out=codes, casting="unsafe")
        if inlier.all():  # the usual case: nothing escapes
            outliers = np.empty(0, dtype=np.int64)
        else:
            escaped = np.logical_not(inlier, out=inlier)
            codes[escaped] = 0
            outliers = flat[escaped].astype(np.int64)
    return codes, outliers, flat


def _numpy_quantize_decode(codes, outliers, radius, shape, ndim, markers=None):
    """Invert the encode front half: codes + outliers → grid indices
    (*markers*: the caller's count of the code-0 markers, if it has one)."""
    span = math.prod(shape[max(len(shape) - ndim, 0) :])
    big = max(radius, int(codes.max()) - radius) if codes.size else radius
    if outliers.size:
        big = max(big, -int(outliers.min()), int(outliers.max()))
    dtype = _grid_dtype(span * big, "quantize_decode", shape)
    delta = apply_outliers(codes, outliers, radius, dtype, markers).reshape(shape)
    validate_lorenzo(delta, ndim)
    return cumsum_axes(delta, ndim, out=delta)


def _numpy_lorenzo_predict(q, ndim, out=None, work=None):
    """Residuals of the Lorenzo predictor over the last *ndim* axes."""
    validate_lorenzo(q, ndim)
    if out is None:
        return diff_axes_alloc(q, ndim)
    if ndim >= 2 and work is None:
        raise ValueError("lorenzo_encode with out= needs a work buffer for ndim >= 2")
    return diff_axes(q, ndim, out=out, work=work)


def _numpy_huffman_pack_words(symbols, lengths, codes, chunk_size, hist=None):
    return pack_words(symbols, lengths, codes, chunk_size, hist)


def _numpy_huffman_unpack_window(
    payload, total_bits, count, tsym, tlen, L, chunk_offsets, chunk_size, out=None
):
    return unpack_window(payload, total_bits, count, tsym, tlen, L, chunk_offsets, chunk_size, out)
