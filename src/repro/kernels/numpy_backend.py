"""Reference NumPy implementations of the five hot kernels.

This module is the single source of truth for the inner loops of the
SZ pipeline's hot path — extracted, behavior-identical, from
``compression/szlike/quantizer.py`` / ``lorenzo.py`` / ``huffman.py``
(which now delegate here).  Two layers live in this file:

* **Building blocks** (public names): ``prequantize_grid_into``,
  ``bounded_codes_into``, ``apply_outliers``, ``diff_axes`` /
  ``cumsum_axes``, ``pack_words``, ``unpack_window``.  The szlike
  modules call these to keep their public reference API
  (``prequantize_into``, ``lorenzo_encode``, ...) working unchanged.
* **The backend contract** (``_numpy_*`` names): the five kernels every
  :class:`~repro.kernels.backends.KernelBackend` exposes —
  ``quantize_encode`` (fused quantize→predict→codes over pooled
  scratch), ``quantize_decode`` (codes+outliers→grid indices),
  ``lorenzo_predict``, ``huffman_pack_words``,
  ``huffman_unpack_window``.  Code under ``compression/szlike/`` must
  reach these via :func:`repro.kernels.get_backend` — never by their
  private names (reprolint rule BKD001) — so a configured backend is
  never silently bypassed.

This module imports only numpy and the stage profiler: the kernels
layer sits *below* the codec layer and must never import from it.
"""

from __future__ import annotations

import numpy as np

from repro.utils import profiler

__all__ = [
    "prequantize_grid_into",
    "bounded_codes_into",
    "apply_outliers",
    "validate_lorenzo",
    "diff_axes",
    "diff_axes_alloc",
    "cumsum_axes",
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


def prequantize_grid_into(x: np.ndarray, error_bound: float, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``round(x / 2eb)`` onto int64 *out* via the float64 staging *work*.

    dtype=float64 forces the division loop into double precision even
    for float32 input — the same arithmetic the allocating
    ``prequantize`` performs, so the two paths quantize bit-identically
    (rint keeps ties-to-even like cuSZ's round).
    """
    if error_bound <= 0:
        raise ValueError(f"error bound must be positive, got {error_bound}")
    np.divide(x, 2.0 * error_bound, out=work, dtype=np.float64)
    np.rint(work, out=work)
    np.copyto(out, work, casting="unsafe")  # values are integral floats
    return out


def bounded_codes_into(
    delta: np.ndarray,
    radius: int,
    *,
    shifted: np.ndarray,
    mask: np.ndarray,
    work_mask: np.ndarray,
    codes: np.ndarray,
):
    """Map residuals to codes ``delta + radius`` in ``(0, 2*radius)``.

    Residuals outside the code range escape into the returned int64
    outlier array (marker code 0); all large buffers are caller-owned.
    Returns ``(codes, outliers)``.
    """
    if radius < 2:
        raise ValueError(f"radius must be >= 2, got {radius}")
    flat = delta.reshape(-1)
    np.add(flat, radius, out=shifted)
    np.greater(shifted, 0, out=mask)
    np.less(shifted, 2 * radius, out=work_mask)
    np.logical_and(mask, work_mask, out=mask)
    codes[...] = 0
    np.copyto(codes, shifted, where=mask, casting="unsafe")
    np.logical_not(mask, out=work_mask)
    outliers = flat[work_mask].astype(np.int64)
    return codes, outliers


def apply_outliers(codes: np.ndarray, outliers: np.ndarray, radius: int) -> np.ndarray:
    """Invert :func:`bounded_codes_into`: flat int64 residuals from codes.

    Marker positions (code 0) take their residual from *outliers* in
    order of appearance; a marker/outlier count mismatch is corruption.
    """
    delta = codes.reshape(-1).astype(np.int64) - radius
    mask = codes.reshape(-1) == 0
    n_out = int(mask.sum())
    if n_out != outliers.size:
        raise ValueError(
            f"outlier bookkeeping mismatch: {n_out} markers vs {outliers.size} stored values"
        )
    if n_out:
        delta[mask] = outliers
    return delta


# ---------------------------------------------------------------------------
# Lorenzo building blocks (from szlike/lorenzo.py)
# ---------------------------------------------------------------------------


def validate_lorenzo(arr: np.ndarray, ndim: int) -> int:
    if ndim < 1 or ndim > 3:
        raise ValueError(f"Lorenzo prediction supports 1-3 dims, got {ndim}")
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
    hi = [slice(None)] * src.ndim
    lo = [slice(None)] * src.ndim
    first = [slice(None)] * src.ndim
    hi[axis] = slice(1, None)
    lo[axis] = slice(None, -1)
    first[axis] = slice(0, 1)
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


def cumsum_axes(delta: np.ndarray, ndim: int) -> np.ndarray:
    """Invert :func:`diff_axes` (cumulative sums along each axis)."""
    out = delta
    for axis in range(delta.ndim - ndim, delta.ndim):
        out = np.cumsum(out, axis=axis, dtype=delta.dtype)
    return out


# ---------------------------------------------------------------------------
# Huffman building blocks (from szlike/huffman.py)
# ---------------------------------------------------------------------------


def pack_words(symbols: np.ndarray, lengths: np.ndarray, codes: np.ndarray, chunk_size: int):
    """Word-packed blocked encoder (the low-allocation hot path).

    Every codeword is <= 16 bits, so it spans at most two adjacent
    big-endian 16-bit output words.  Per block: shift each codeword into
    a 32-bit window at its absolute bit position, split into (high word,
    low word) halves, and merge all contributions per word with
    ``bincount`` — codewords occupy disjoint bits, so integer addition
    *is* bitwise OR (and the float64 weight sums stay exact: each word's
    total is < 2^16).

    Two passes over the symbol stream (a cheap per-block length sum
    sizes the output exactly), O(block) temporaries, and one
    output-sized uint16 word array: peak scratch is ~1x the packed
    payload plus a constant, versus the bit-plane encoder's 8x.

    Returns ``(payload bytes, total_bits, chunk_offsets int64)``.
    """
    codes64 = codes.astype(np.int64)
    n = symbols.size
    block = ENCODE_BLOCK if not chunk_size else max(
        chunk_size, (ENCODE_BLOCK // chunk_size) * chunk_size
    )

    # Pass 1: per-block bit totals -> exact output size, no O(n) scratch.
    total_bits = 0
    for a in range(0, n, block):
        lens = lengths[symbols[a : a + block]]
        if not lens.all():
            sl = symbols[a : a + block]
            bad = int(sl[lens == 0][0])
            raise ValueError(f"symbol {bad} has no codeword in this codebook")
        total_bits += int(lens.sum(dtype=np.int64))

    n_words = (total_bits + 15) >> 4
    # The word array doubles as the output byte buffer: a uint8 array
    # viewed as big-endian uint16 for the merge writes, sliced to the
    # exact payload length at the end — no byteswap copy, no trim copy.
    out8 = np.zeros(2 * (n_words + 1), dtype=np.uint8)  # +1 word: lo spill
    words = out8.view(">u2")
    chunk_parts = []
    base_bits = 0
    for a in range(0, n, block):
        s = symbols[a : a + block]
        lens = lengths[s].astype(np.int64)
        off = np.empty(s.size, dtype=np.int64)
        off[0] = base_bits
        np.cumsum(lens[:-1], out=off[1:])
        off[1:] += base_bits
        block_bits = int(off[-1] - base_bits + lens[-1])
        if chunk_size:
            # block is a multiple of chunk_size, so every chunk start
            # falls on a block-local index multiple of chunk_size
            chunk_parts.append(off[::chunk_size].copy())
        w = off >> 4
        w0 = int(w[0])
        # 32-bit window: bit r = off & 15 within word w, so the codeword
        # sits at shift (32 - r - len); top half lands in word w, bottom
        # half in word w + 1.
        val32 = codes64[s] << (32 - (off & 15) - lens)
        w -= w0
        n_local = int(w[-1]) + 2
        acc = np.bincount(w, weights=val32 >> 16, minlength=n_local)
        lo = np.bincount(w, weights=val32 & 0xFFFF, minlength=n_local)
        acc[1:] += lo[:-1]
        words[w0 : w0 + n_local] |= acc.astype(">u2")
        base_bits += block_bits

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
) -> np.ndarray:
    """Data-parallel chunked decode reading L-bit windows in place.

    All chunks advance one symbol per vectorized step — ``min(chunk_size,
    count)`` steps over ``n_chunks`` lanes, so callers want chunks of
    ~``sqrt(count)`` symbols.  The 24-bit big-endian window starting at
    every payload byte (three bytes cover any 16-bit codeword at any bit
    phase) is built once per call, making each step one gather + shift +
    mask; scratch is that window array (4x the payload), the output, and
    O(#chunks) per-step temporaries.  The buffer is padded by what a
    chunk of maximal codewords can over-run (2 bytes per step, +4 for
    the window), so no cursor — not even one started by a hostile offset
    just below ``total_bits`` — can gather out of bounds.  The caller
    validated the chunk metadata and built the dense ``(tsym, tlen)``
    tables.
    """
    n_chunks = chunk_offsets.size
    buf = np.frombuffer(payload + bytes(2 * chunk_size + 4), dtype=np.uint8)
    win = buf[:-2].astype(np.int32)
    win <<= 8
    win |= buf[1:-1]
    win <<= 8
    win |= buf[2:]
    out = np.empty((n_chunks, chunk_size), dtype=np.uint32)
    pos = chunk_offsets.astype(np.int64)
    base = 24 - L
    mask = (1 << L) - 1
    for i in range(min(chunk_size, count)):
        p = (win[pos >> 3] >> (base - (pos & 7))) & mask
        out[:, i] = tsym[p]
        pos += tlen[p]
    return out.reshape(-1)[:count]


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
    take = pool.take
    with profiler.stage("quantize"):
        work = stack.enter_context(take(x.shape, np.float64))
        qa = stack.enter_context(take(x.shape, np.int64))
        prequantize_grid_into(x, error_bound, out=qa, work=work)
    with profiler.stage("predict"):
        qb = stack.enter_context(take(x.shape, np.int64))
        # Ping-pong between the two int64 buffers; qa's contents are
        # disposable once the first difference lands in qb.
        delta = diff_axes(qa, ndim, out=qb, work=qa)
        flat = delta.reshape(-1)
        other = (qa if delta is qb else qb).reshape(-1)
        mask = stack.enter_context(take(flat.shape, bool))
        work_mask = stack.enter_context(take(flat.shape, bool))
        codes = stack.enter_context(take(flat.shape, codes_dtype_for_radius(radius)))
        codes, outliers = bounded_codes_into(
            delta, radius, shifted=other, mask=mask, work_mask=work_mask, codes=codes
        )
    return codes, outliers, flat


def _numpy_quantize_decode(codes, outliers, radius, shape, ndim):
    """Invert the encode front half: codes + outliers → int64 grid indices."""
    delta = apply_outliers(codes, outliers, radius).reshape(shape)
    validate_lorenzo(delta, ndim)
    return cumsum_axes(delta, ndim)


def _numpy_lorenzo_predict(q, ndim, out=None, work=None):
    """Residuals of the Lorenzo predictor over the last *ndim* axes."""
    validate_lorenzo(q, ndim)
    if out is None:
        return diff_axes_alloc(q, ndim)
    if ndim >= 2 and work is None:
        raise ValueError("lorenzo_encode with out= needs a work buffer for ndim >= 2")
    return diff_axes(q, ndim, out=out, work=work)


def _numpy_huffman_pack_words(symbols, lengths, codes, chunk_size):
    return pack_words(symbols, lengths, codes, chunk_size)


def _numpy_huffman_unpack_window(payload, total_bits, count, tsym, tlen, L, chunk_offsets, chunk_size):
    return unpack_window(payload, total_bits, count, tsym, tlen, L, chunk_offsets, chunk_size)
