"""Compiled (Numba) implementations of the five hot kernels.

The inner loops live here as *plain Python functions* written in the
njit-compilable subset — :func:`compile_kernels` wraps each with
``numba.njit(cache=True)`` at probe time.  Keeping them importable
without numba means:

* the numpy-only containers (and CI legs) can still bit-identity-test
  the loop *algorithms* against the reference backend by running them
  uncompiled (:func:`python_loop_backend`), and
* probing never pays an import cost when numba is absent — the
  ``import numba`` happens in :mod:`repro.kernels.backends`, not here.

Compared to the NumPy reference the loops fuse the quantize+predict
front half into one pass over the input (the grid round lands directly
in the residual buffer, the per-axis differences run in place on it,
and the code mapping branches per element — no float64 staging array,
no mask/shifted temporaries) and the Huffman encoder packs branch-per
symbol through a 24-bit accumulator instead of the bincount-merge
temporaries.  Bit-identity with the reference backend is a contract:
it is checked at warmup and enforced by the backend-parametrized codec
contract suite.
"""

from __future__ import annotations

import numpy as np

from repro.utils import profiler

from repro.kernels.numpy_backend import (
    _numpy_huffman_pack_words,
    _numpy_huffman_unpack_window,
    _numpy_lorenzo_predict,
    _numpy_quantize_decode,
    _numpy_quantize_encode,
    codes_dtype_for_radius,
    grid_extent,
    validate_lorenzo,
)

__all__ = ["LOOP_NAMES", "compile_kernels", "make_kernel_functions", "python_loops"]


# ---------------------------------------------------------------------------
# njit-compilable inner loops (plain Python; numba specializes per dtype)
# ---------------------------------------------------------------------------


def _quantize_grid(x, denom, out):
    """``out[i] = int64(rint(float64(x[i]) / denom))`` — the float64
    cast keeps float32 input on the exact arithmetic the reference
    backend uses, so the two quantize bit-identically."""
    for i in range(x.size):
        out[i] = np.int64(np.rint(np.float64(x[i]) / denom))


def _diff_inplace(a):
    """In-place backward finite difference along axis 1 of an
    ``(outer, n, inner)`` view — equals the reference's out-of-place
    forward diff along that axis."""
    for o in range(a.shape[0]):
        for i in range(a.shape[1] - 1, 0, -1):
            for k in range(a.shape[2]):
                a[o, i, k] -= a[o, i - 1, k]


def _cumsum_inplace(a):
    """In-place cumulative sum along axis 1 of an ``(outer, n, inner)``
    view (the inverse of :func:`_diff_inplace`)."""
    for o in range(a.shape[0]):
        for i in range(1, a.shape[1]):
            for k in range(a.shape[2]):
                a[o, i, k] += a[o, i - 1, k]


def _count_outliers(flat, radius):
    n = 0
    two_r = 2 * radius
    for i in range(flat.size):
        s = flat[i] + radius
        if s <= 0 or s >= two_r:
            n += 1
    return n


def _fill_codes(flat, radius, codes, outliers):
    """Branch-per-element code mapping: inliers get ``delta + radius``,
    outliers get the marker 0 and land in *outliers* in positional
    order (exactly the reference's mask semantics)."""
    j = 0
    two_r = 2 * radius
    for i in range(flat.size):
        s = flat[i] + radius
        if s > 0 and s < two_r:
            codes[i] = s
        else:
            codes[i] = 0
            outliers[j] = flat[i]
            j += 1
    return j


def _decode_codes(codes, outliers, radius, out):
    """Invert :func:`_fill_codes`; returns the marker count so the
    wrapper can raise the bookkeeping-mismatch contract error."""
    markers = 0
    n_avail = outliers.size
    for i in range(codes.size):
        c = np.int64(codes[i])
        if c == 0:
            if markers < n_avail:
                out[i] = outliers[markers]
            else:
                out[i] = 0  # discarded: the wrapper raises on mismatch
            markers += 1
        else:
            out[i] = c - radius
    return markers


def _pack_pass1(symbols, lengths):
    """Total bit count + index of the first uncovered symbol (-1 if all
    covered) — sizes the output exactly, like the reference's pass 1."""
    total = 0
    first_bad = -1
    for i in range(symbols.size):
        l = np.int64(lengths[symbols[i]])
        if l == 0 and first_bad < 0:
            first_bad = i
        total += l
    return total, first_bad


def _pack_pass2(symbols, lengths, codes64, chunk_size, out8, chunk_offsets):
    """Branch-per-symbol big-endian bit packer through a small
    accumulator: at most 7 pending bits + one <=16-bit codeword live in
    ``acc``, bytes stream out MSB-first — byte-identical to the
    reference's word-merge layout, with zero O(n) temporaries."""
    acc = 0
    nbits = 0
    bitpos = 0
    byte_i = 0
    for i in range(symbols.size):
        if i % chunk_size == 0:
            chunk_offsets[i // chunk_size] = bitpos
        s = symbols[i]
        l = np.int64(lengths[s])
        acc = (acc << l) | codes64[s]
        nbits += l
        bitpos += l
        while nbits >= 8:
            nbits -= 8
            out8[byte_i] = (acc >> nbits) & 0xFF
            byte_i += 1
        # keep only the pending low bits: acc stays < 2^8 between
        # symbols, so the int64 accumulator can never overflow
        acc &= (1 << nbits) - 1
    if nbits > 0:
        out8[byte_i] = (acc << (8 - nbits)) & 0xFF
    return byte_i


def _unpack_loop(buf, offsets, chunk_size, count, tsym, tlen, L, out):
    """Per-chunk sequential window decode: gather 3 bytes around the
    bit cursor, index the dense tables, advance.  Chunks are
    independent; *buf* carries the reference's ``2 * chunk_size + 4``
    guard bytes, so a cursor that over-runs a corrupt stream reads the
    same zeros the reference reads."""
    mask = (1 << L) - 1
    for j in range(offsets.size):
        pos = offsets[j]
        base = j * chunk_size
        n_here = chunk_size
        if base + n_here > count:
            n_here = count - base
        for i in range(n_here):
            byte = pos >> 3
            window = (
                (np.int64(buf[byte]) << 16)
                | (np.int64(buf[byte + 1]) << 8)
                | np.int64(buf[byte + 2])
            )
            p = (window >> (24 - (pos & 7) - L)) & mask
            out[base + i] = tsym[p]
            pos = pos + tlen[p]


LOOP_NAMES = (
    "quantize_grid",
    "diff_inplace",
    "cumsum_inplace",
    "count_outliers",
    "fill_codes",
    "decode_codes",
    "pack_pass1",
    "pack_pass2",
    "unpack_loop",
)

_LOOPS = {
    "quantize_grid": _quantize_grid,
    "diff_inplace": _diff_inplace,
    "cumsum_inplace": _cumsum_inplace,
    "count_outliers": _count_outliers,
    "fill_codes": _fill_codes,
    "decode_codes": _decode_codes,
    "pack_pass1": _pack_pass1,
    "pack_pass2": _pack_pass2,
    "unpack_loop": _unpack_loop,
}


def python_loops():
    """The uncompiled loops — the numba *algorithms* runnable anywhere
    (slowly), so numpy-only environments can bit-identity-test them."""
    return dict(_LOOPS)


def compile_kernels(jit):
    """Wrap every inner loop with *jit* (``numba.njit(cache=True)``)."""
    return {name: jit(fn) for name, fn in _LOOPS.items()}


# ---------------------------------------------------------------------------
# The five-kernel contract over the compiled loops
# ---------------------------------------------------------------------------


def _axis_views(flat, shape, ndim):
    """``(outer, n, inner)`` int64 views of *flat* for each predicted
    axis, in the same per-axis order the reference composes them."""
    views = []
    nd = len(shape)
    for axis in range(nd - ndim, nd):
        outer = int(np.prod(shape[:axis])) if axis else 1
        n = int(shape[axis])
        inner = int(np.prod(shape[axis + 1 :])) if axis + 1 < nd else 1
        views.append(flat.reshape(outer, n, inner))
    return views


def make_kernel_functions(loops, on_fallback):
    """The five backend callables over a *loops* dict (compiled or not).

    Any exception out of a compiled loop degrades to the reference
    NumPy implementation — counted via *on_fallback*, never raised
    (contract errors are raised by the wrappers *before* the compiled
    sections, so they surface identically on both backends).
    """

    def quantize_encode(x, error_bound, radius, ndim, pool, stack):
        if not 0 < error_bound < np.inf:
            raise ValueError(f"error bound must be positive and finite, got {error_bound}")
        if radius < 2:
            raise ValueError(f"radius must be >= 2, got {radius}")
        grid_extent(x, error_bound)  # int64 grid: a wrapped index is a silently wrong value
        try:
            xc = np.ascontiguousarray(x)
            delta = stack.enter_context(pool.take(xc.shape, np.int64))
            flat = delta.reshape(-1)
            with profiler.stage("quantize"):
                loops["quantize_grid"](xc.reshape(-1), 2.0 * float(error_bound), flat)
            with profiler.stage("predict"):
                for view in _axis_views(flat, xc.shape, min(ndim, xc.ndim)):
                    loops["diff_inplace"](view)
                codes = stack.enter_context(
                    pool.take(flat.shape, codes_dtype_for_radius(radius))
                )
                n_out = loops["count_outliers"](flat, radius)
                outliers = np.empty(int(n_out), dtype=np.int64)
                loops["fill_codes"](flat, radius, codes, outliers)
            return codes, outliers, flat
        except Exception:
            on_fallback("quantize_encode")
            return _numpy_quantize_encode(x, error_bound, radius, ndim, pool, stack)

    def quantize_decode(codes, outliers, radius, shape, ndim, markers=None):
        # the loop counts the markers as it decodes them, so a caller's
        # count (*markers*) saves nothing here; the reference takes it
        counted = None
        try:
            flat_codes = np.ascontiguousarray(codes).reshape(-1)
            out64 = np.asarray(outliers, dtype=np.int64)
            q = np.empty(flat_codes.size, dtype=np.int64)
            counted = int(loops["decode_codes"](flat_codes, out64, radius, q))
            if counted == outliers.size:
                for view in _axis_views(q, tuple(shape), min(ndim, len(shape))):
                    loops["cumsum_inplace"](view)
                return q.reshape(shape)
        except Exception:
            on_fallback("quantize_decode")
            return _numpy_quantize_decode(codes, outliers, radius, shape, ndim, markers)
        raise ValueError(
            f"outlier bookkeeping mismatch: {counted} markers vs "
            f"{outliers.size} stored values"
        )

    def lorenzo_predict(q, ndim, out=None, work=None):
        validate_lorenzo(q, ndim)
        if out is not None and ndim >= 2 and work is None:
            raise ValueError("lorenzo_encode with out= needs a work buffer for ndim >= 2")
        try:
            if out is None:
                res = np.ascontiguousarray(q).copy()
            else:
                np.copyto(out, q)
                res = out
            for view in _axis_views(res.reshape(-1), q.shape, ndim):
                loops["diff_inplace"](view)
            return res
        except Exception:
            on_fallback("lorenzo_predict")
            return _numpy_lorenzo_predict(q, ndim, out=out, work=work)

    def huffman_pack_words(symbols, lengths, codes, chunk_size, hist=None):
        # *hist* is the reference packer's shortcut; the compiled sizing
        # pass is already one cheap loop, so it is accepted and unused
        first_bad = None
        try:
            sym = np.ascontiguousarray(symbols).reshape(-1)
            total_bits, first_bad = loops["pack_pass1"](sym, lengths)
            total_bits, first_bad = int(total_bits), int(first_bad)
            if first_bad < 0:
                n_chunks = -(-sym.size // chunk_size)
                out8 = np.zeros((total_bits + 7) >> 3, dtype=np.uint8)
                chunk_offsets = np.zeros(n_chunks, dtype=np.int64)
                loops["pack_pass2"](
                    sym, lengths, codes.astype(np.int64), chunk_size, out8, chunk_offsets
                )
                return out8.tobytes(), total_bits, chunk_offsets
        except Exception:
            on_fallback("huffman_pack_words")
            return _numpy_huffman_pack_words(symbols, lengths, codes, chunk_size, hist)
        raise ValueError(
            f"symbol {int(np.ascontiguousarray(symbols).reshape(-1)[first_bad])} "
            f"has no codeword in this codebook"
        )

    def huffman_unpack_window(
        payload, total_bits, count, tsym, tlen, L, chunk_offsets, chunk_size, out=None
    ):
        try:
            buf = np.frombuffer(payload + bytes(2 * chunk_size + 4), dtype=np.uint8)
            syms = np.empty(count, dtype=tsym.dtype) if out is None else out
            loops["unpack_loop"](
                buf,
                np.ascontiguousarray(chunk_offsets, dtype=np.int64),
                chunk_size,
                count,
                tsym,
                tlen,
                L,
                syms,
            )
            return syms
        except Exception:
            on_fallback("huffman_unpack_window")
            return _numpy_huffman_unpack_window(
                payload, total_bits, count, tsym, tlen, L, chunk_offsets, chunk_size, out
            )

    return {
        "quantize_encode": quantize_encode,
        "quantize_decode": quantize_decode,
        "lorenzo_predict": lorenzo_predict,
        "huffman_pack_words": huffman_pack_words,
        "huffman_unpack_window": huffman_unpack_window,
    }
