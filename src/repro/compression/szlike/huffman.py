"""Canonical, length-limited Huffman codec, fully vectorized.

cuSZ's entropy stage is a customized Huffman coder over the quantization
codes.  We reproduce it with HPC-flavoured twists so that neither
direction needs a Python-level per-symbol loop:

* **Encode** is *pair-packed and blocked*: symbols are processed in
  fixed-size blocks; within a block adjacent codewords (<= 16 bits each)
  merge into pairs of <= 32 bits, each pair (it spans at most two
  adjacent 32-bit output words) is shifted to its bit position and the
  per-word contributions are merged with ``bincount`` — disjoint bits
  make integer addition equal to bitwise OR.  Peak scratch is one
  output-sized word array plus O(block) temporaries, versus the
  8x-payload bit-expansion the previous bit-plane encoder materialized
  (kept as ``_encode_bitplane``, the reference implementation the
  packed path is property-tested against).

* **Decode** is sequential in nature (each codeword's start depends on
  the previous lengths), which is the same obstacle cuSZ's GPU decoder
  faces.  The decoder is *chunked*, as cuSZ's is: the encoder records
  the bit offset of every symbol chunk; chunks decode independently,
  and the decoder iterates over symbol slots while processing **all
  chunks simultaneously**.  Each step reads the current codeword's
  L-bit window out of a 24-bit window-at-byte view of the payload (one
  gather + shift + mask), so scratch is ~4x the payload (borrowed
  from the workspace, as the symbols are when the caller passes
  ``out=``) plus O(#chunks) per step plus the dense decode table (3 bytes per
  prefix), which is **built per decode call in the workspace**, not kept
  on the codebook: a book lives as long as its blob or its
  :class:`~repro.compression.szlike.codebook_cache.CodebookCache` entry,
  and six 14-16-bit tables held for a run cost more resident memory than
  rebuilding one per call costs time.  The build is one broadcast slice
  assignment per code length over the canonical order, with no
  prefix-sized temporary.
  cuSZ sizes its chunks so that *chunks ~ hardware lanes*; here the
  "hardware" is one vectorized call that costs
  ``3.8 us x steps + 12.4 ns x symbols``, so the geometry is **per
  tensor** (:func:`chunk_size_for`): as many lanes as the fixed cost
  per step asks for, as few as the bytes of the chunk table allow.
  It is a pure function of the symbol count, so encoder, decoder and
  the byte accounting agree by construction and a blob carries no
  chunk-size field.  Decode ms by chunk size (best of 15, one vCPU of
  the numba-less dev container; the payload bytes are the same at
  every size):

  ===============================  =====  =====  =====  =====
  symbols                           c=32   c=64  c=128  c=256
  ===============================  =====  =====  =====  =====
  327 680 in six tensors, step 0    3.40   4.34   5.47   9.01
  the same six tensors, step 39     3.14   4.02   5.48   8.56
  262 144, one stream, 7 bits/sym   2.88   2.53   2.80   3.41
  524 288, one stream, 7 bits/sym   7.86   8.98   6.94   6.64
  ===============================  =====  =====  =====  =====

  The six tensors are the ``train_sz`` activations (16 384 to 131 072
  symbols each; the sqrt rule gave them 256, one of them 128): 64
  takes a training step from 1 408 to 384 vectorized steps, and 32
  would buy ~0.9 ms more for twice the table.  Past ~2 048 lanes a
  step's gathers leave the cache and more lanes are *slower*, so the
  chunk doubles with the count from there.

Code lengths are limited to :data:`MAX_CODE_LENGTH` bits by frequency
flattening, keeping the prefix table at 64Ki entries.

The symbol histogram is a first-class input: :func:`histogram`,
:meth:`HuffmanCodebook.from_frequencies`, and :func:`entropy_bits_from_hist`
let one blocked ``bincount`` feed the codebook build, the encoder's
payload sizing, and the codebook cache's staleness check instead of each
running its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.compression.lossless import shrink
from repro.kernels import get_backend
from repro.kernels.numpy_backend import ENCODE_BLOCK as ENCODE_BLOCK  # noqa: F401 (re-export)
from repro.kernels.numpy_backend import block_bincount
from repro.utils.scratch import WORKSPACE

__all__ = [
    "MAX_CODE_LENGTH",
    "HuffmanCodebook",
    "build_codebook",
    "histogram",
    "huffman_encode",
    "huffman_decode",
    "chunk_size_for",
    "chunk_layout",
    "chunk_meta_nbytes",
    "entropy_bits_from_hist",
]

MAX_CODE_LENGTH = 16


def _huffman_lengths(freqs: np.ndarray) -> np.ndarray:
    """Code length per symbol from frequencies (0 for absent symbols).

    Two queues: the leaves sorted by (frequency, symbol) and the internal
    nodes in creation order, whose frequencies never fall.  Each merge
    takes the two smallest heads, a tie going to the leaf — the tree of a
    heap keyed ``(frequency, symbol or creation count past every symbol)``.
    A node's depth is its parent's plus one, read back from the root."""
    present = np.nonzero(freqs)[0]
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    if present.size == 0:
        raise ValueError("cannot build a Huffman code over an empty input")
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths
    leaves = present[np.lexsort((present, freqs[present]))]
    # nodes 0 .. n-1 are the leaves in queue order, node n + k the k-th merge
    weight = freqs[leaves].tolist()
    n = len(weight)
    parent = [0] * (2 * n - 1)
    leaf, node = 0, n  # the two queue heads
    for new in range(n, 2 * n - 1):
        total = 0
        for _ in range(2):
            if leaf < n and (node == new or weight[leaf] <= weight[node]):
                pick, leaf = leaf, leaf + 1
            else:
                pick, node = node, node + 1
            parent[pick] = new
            total += weight[pick]
        weight.append(total)
    depth = [0] * (2 * n - 1)
    for i in range(2 * n - 3, -1, -1):
        depth[i] = depth[parent[i]] + 1
    lengths[leaves] = depth[:n]
    return lengths


def _limit_lengths(freqs: np.ndarray, max_length: int) -> np.ndarray:
    """Huffman lengths capped at *max_length* via frequency flattening."""
    f = freqs.astype(np.int64, copy=True)
    lengths = _huffman_lengths(f)
    while int(lengths.max()) > max_length:
        nz = f > 0
        f[nz] = (f[nz] + 1) // 2
        lengths = _huffman_lengths(f)
    return lengths


def _canonical_order(lengths: np.ndarray) -> tuple:
    """The present symbols in canonical (length, symbol) order, with their
    lengths as ``int64``."""
    syms = np.nonzero(lengths)[0]
    lens = lengths[syms].astype(np.int64)
    order = np.lexsort((syms, lens))
    return syms[order], lens[order]


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codes (increasing by (length, symbol)) from lengths.

    Left-justified to the longest length ``L``, each code starts where
    the previous one's ``2^(L - l)`` prefixes end: one ``cumsum`` of the
    widths, shifted back down to each code's own length."""
    codes = np.zeros(lengths.size, dtype=np.uint32)
    syms, lens = _canonical_order(lengths)
    if syms.size == 0:
        return codes
    shift = int(lens[-1]) - lens
    start = np.cumsum(1 << shift) - (1 << shift)
    codes[syms] = start >> shift
    return codes


@dataclass
class HuffmanCodebook:
    """Canonical codebook: per-symbol code lengths (lengths define codes)."""

    lengths: np.ndarray  # uint8, one entry per alphabet symbol
    codes: np.ndarray  # uint32 canonical codewords
    #: the serialized length table (:meth:`section`), deflated once
    _section: Optional[bytes] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_frequencies(cls, freqs: np.ndarray, max_length: int = MAX_CODE_LENGTH) -> "HuffmanCodebook":
        lengths = _limit_lengths(np.asarray(freqs), max_length)
        return cls(lengths=lengths, codes=_canonical_codes(lengths))

    @classmethod
    def from_lengths(cls, lengths: np.ndarray) -> "HuffmanCodebook":
        """The canonical book of stored *lengths*.  Only what
        :meth:`from_frequencies` builds is accepted: a complete prefix
        code (Kraft sum exactly 1), one symbol of length 1, or no symbol.
        Anything else — a blob's length byte flipped — is a
        ``ValueError``, never a book that decodes to wrong symbols."""
        lengths = np.asarray(lengths)
        # decode tables have 2^L entries: one flipped length byte must not size them
        if lengths.size and not 0 <= int(lengths.min()) <= int(lengths.max()) <= MAX_CODE_LENGTH:
            raise ValueError(f"codebook length outside [0, MAX_CODE_LENGTH = {MAX_CODE_LENGTH}]")
        lengths = lengths.astype(np.uint8)
        used = lengths[lengths > 0].astype(np.int64)
        kraft = int(np.sum(1 << (MAX_CODE_LENGTH - used)))
        if used.size > 1 and kraft != 1 << MAX_CODE_LENGTH or used.size == 1 and used[0] != 1:
            raise ValueError("codebook lengths are not a complete prefix code")
        return cls(lengths=lengths, codes=_canonical_codes(lengths))

    @property
    def max_length(self) -> int:
        nz = self.lengths[self.lengths > 0]
        return int(nz.max()) if nz.size else 0

    def section(self) -> bytes:
        """The serialized codebook: one length byte per alphabet symbol
        (canonical codes follow from the lengths), deflated — most of a
        1 024-entry table is zeros — or raw when that is not larger;
        a reader tells the two apart by the section's length.  Built
        once per codebook and cached on it."""
        if self._section is None:
            self._section = shrink(np.asarray(self.lengths, dtype=np.uint8).tobytes(), 6)
        return self._section

    @property
    def nbytes(self) -> int:
        """Serialized size: the length of :meth:`section`, which is what
        :func:`repro.compression.szlike.serialize.dumps` writes."""
        return len(self.section())

    @property
    def symbol_dtype(self) -> np.dtype:
        """What every decode path returns: the narrowest dtype holding a symbol."""
        return np.dtype(np.uint16 if self.lengths.size <= 1 << 16 else np.uint32)

    def kraft_sum(self) -> float:
        nz = self.lengths[self.lengths > 0].astype(np.float64)
        return float(np.sum(2.0 ** -nz))

    def decode_tables(self) -> tuple:
        """Dense decode tables ``(tsym, tlen)`` over all ``2^L`` L-bit
        prefixes, freshly allocated: ``tsym`` in :attr:`symbol_dtype`,
        ``tlen`` as ``uint8`` — 3 bytes per prefix, 192 KiB for a 16-bit
        book.  :func:`huffman_decode` fills borrowed ones instead."""
        L = self.max_length
        if L == 0:
            raise ValueError("codebook is empty")
        tables = np.empty(1 << L, dtype=self.symbol_dtype), np.empty(1 << L, dtype=np.uint8)
        self._fill_decode_tables(*tables)
        return tables

    def _fill_decode_tables(self, tsym: np.ndarray, tlen: np.ndarray) -> None:
        """Write the decode tables into *tsym* / *tlen* (``2^L`` entries
        each, contents undefined).  Canonical codes cover the prefixes in
        (length, symbol) order, each code of length ``l`` ``2^(L - l)``
        wide, so the codes of one length fill one contiguous run: a
        ``(count, width)`` view of it takes their symbols by broadcast.
        A single-symbol book's one 1-bit code leaves the upper half as
        (symbol 0, length 1) padding."""
        L = self.max_length
        syms, lens = _canonical_order(self.lengths)
        syms = syms.astype(tsym.dtype)  # a broadcast that casts is ~2x slower
        per_length = np.bincount(lens, minlength=L + 1).tolist()
        pos = at = 0
        for length in range(1, L + 1):
            count, width = per_length[length], 1 << (L - length)
            if count:
                end = pos + count * width
                tsym[pos:end].reshape(count, width)[...] = syms[at : at + count, None]
                tlen[pos:end] = length
                pos, at = end, at + count
        tsym[pos:] = 0
        tlen[pos:] = 1


def histogram(symbols: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Symbol frequency histogram (the one ``bincount`` the codebook
    build, the encoder and the cache staleness check share), counted
    block by block: ``np.bincount(symbols, minlength=alphabet_size)``
    without its stream-sized ``intp`` copy of the input."""
    return block_bincount(symbols.reshape(-1), alphabet_size, ENCODE_BLOCK)


def build_codebook(symbols: np.ndarray, alphabet_size: int) -> HuffmanCodebook:
    """Build a codebook from observed symbol data."""
    return HuffmanCodebook.from_frequencies(histogram(symbols, alphabet_size))


#: largest symbols-per-chunk :func:`chunk_size_for` picks, reached at
#: 2^18 + 1 symbols: from there a step already spreads its ~3.8 us over
#: >= 1 024 lanes (see the table in the module docstring).
DEFAULT_CHUNK = 256


def chunk_size_for(count: int) -> int:
    """Symbols per decode chunk of a *count*-symbol stream, a power of
    two in ``[16, DEFAULT_CHUNK]`` that never falls as *count* grows:
    the smallest one >= ``sqrt(count)`` while that is <= 64 (lanes ~
    steps), 64 up to 2^17 symbols, then the smallest that keeps the
    lanes at or under 2 048 (128 up to 2^18)."""
    bits = (count - 1).bit_length()
    return max(16, min(64, 1 << (bits + 1) // 2), min(DEFAULT_CHUNK, 1 << max(bits - 11, 0)))


def chunk_layout(count: int) -> tuple:
    """``(chunk_size, n_chunks, width)`` of the serialized chunk table:
    every chunk's bit length minus one (1 .. ``chunk_size *
    MAX_CODE_LENGTH`` bits) in exactly *width* bits — 8 at 16 symbols
    per chunk, 10 at 64, 12 at 256."""
    chunk_size = chunk_size_for(count)
    return chunk_size, -(-count // chunk_size), (chunk_size * MAX_CODE_LENGTH - 1).bit_length()


def chunk_meta_nbytes(count: int) -> int:
    """Serialized chunk-table bytes of a *count*-symbol stream (what
    ``CompressedTensor.nbytes`` charges)."""
    _, n_chunks, width = chunk_layout(count)
    return -(-n_chunks * width // 8)


def _encode_bitplane(symbols: np.ndarray, codebook: HuffmanCodebook, chunk_size: int):
    """Reference encoder: one boolean scatter per codeword bit plane.

    Materializes a ``total_bits``-long uint8 array (8x the packed
    payload); kept as the property-test oracle for the word-packed path
    and as the legacy baseline ``benchmarks/bench_hotpath.py`` measures
    against.
    """
    lens = codebook.lengths[symbols].astype(np.int64)
    if np.any(lens == 0):
        bad = int(symbols[lens == 0][0])
        raise ValueError(f"symbol {bad} has no codeword in this codebook")
    offsets = np.empty(symbols.size, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(lens[:-1], out=offsets[1:])
    total_bits = int(lens.sum())
    bits = np.zeros(total_bits, dtype=np.uint8)
    codevals = codebook.codes[symbols]
    for k in range(int(lens.max())):
        mask = lens > k
        shift = (lens[mask] - 1 - k).astype(np.uint32)
        bits[offsets[mask] + k] = (codevals[mask] >> shift) & 1
    return np.packbits(bits).tobytes(), total_bits, offsets[::chunk_size].copy()


def _check_chunk_size(chunk_size: int) -> None:
    """Every stream carries a chunk table: a chunk holds one symbol or more."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")


def huffman_encode(
    symbols: np.ndarray,
    codebook: HuffmanCodebook,
    chunk_size: Optional[int] = None,
    kernels=None,
    hist: Optional[np.ndarray] = None,
):
    """Encode *symbols* -> ``(payload bytes, total_bits, chunk_offsets)``.

    ``chunk_offsets`` records the starting bit of every *chunk_size*-symbol
    chunk (cuSZ's coarse-grained decode metadata); ``None`` derives the
    size from the symbol count (:func:`chunk_size_for`).  The kernel is
    blocked word-packing with O(block) scratch, byte-identical to the
    bit-plane oracle :func:`_encode_bitplane`.
    *kernels* is a :class:`~repro.kernels.backends.KernelBackend` for
    its inner loop (default: the NumPy reference); *hist* is the
    :func:`histogram` of *symbols* when the caller already holds it (it
    sizes the payload and vets codeword coverage without a pass over
    the stream).
    """
    symbols = symbols.reshape(-1)
    if symbols.size == 0:
        return b"", 0, np.zeros(0, dtype=np.int64)
    if chunk_size is None:
        chunk_size = chunk_size_for(symbols.size)
    _check_chunk_size(chunk_size)
    kernels = kernels if kernels is not None else get_backend("numpy")
    return kernels.huffman_pack_words(
        symbols, codebook.lengths, codebook.codes, chunk_size, hist=hist
    )


def huffman_decode(
    payload: bytes,
    total_bits: int,
    count: int,
    codebook: HuffmanCodebook,
    chunk_offsets: np.ndarray,
    chunk_size: Optional[int] = None,
    kernels=None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Decode *count* symbols from *payload*, all chunks at once.

    *chunk_offsets* is the encoder's chunk table; ``chunk_size=None``
    derives the geometry from *count* exactly as the encoder did.
    *out*, a *count*-long array in the book's :attr:`~HuffmanCodebook.symbol_dtype`,
    receives the symbols instead of a fresh array.
    Metadata validation and the dense-table build (into two workspace
    takes, released on return) live here (identical errors on every
    backend); the window-gather loop is a backend
    kernel (``huffman_unpack_window``, *kernels* selects the backend,
    default: the NumPy reference).  The NumPy reference advances all
    chunks one symbol per vectorized step, gathering each codeword's
    window from a 24-bit window-at-byte view of the payload (three bytes
    cover any 16-bit codeword at any bit phase); the compiled backend
    walks each chunk sequentially.
    """
    if count == 0:
        return np.zeros(0, dtype=codebook.symbol_dtype) if out is None else out
    L = codebook.max_length
    if L == 0:
        raise ValueError("codebook is empty")
    if 8 * len(payload) < total_bits:
        raise ValueError(f"payload holds {8 * len(payload)} bits, expected {total_bits}")
    if chunk_size is None:
        chunk_size = chunk_size_for(count)
    _check_chunk_size(chunk_size)
    n_chunks = chunk_offsets.size
    if n_chunks != -(-count // chunk_size):
        raise ValueError("chunk metadata inconsistent with symbol count")
    pos = chunk_offsets.astype(np.int64, copy=False)  # the kernel works on its own copy
    if int(pos.min()) < 0 or int(pos.max()) >= max(total_bits, 1):
        raise ValueError("chunk offsets out of range")
    kernels = kernels if kernels is not None else get_backend("numpy")
    with WORKSPACE.take((1 << L,), codebook.symbol_dtype) as tsym, WORKSPACE.take(
        (1 << L,), np.uint8
    ) as tlen:
        codebook._fill_decode_tables(tsym, tlen)
        return kernels.huffman_unpack_window(
            payload, total_bits, count, tsym, tlen, L, pos, chunk_size, out=out
        )


def entropy_bits_from_hist(hist: np.ndarray) -> float:
    """Shannon-entropy lower bound (total bits) from a symbol histogram."""
    count = int(hist.sum())
    if count == 0:
        return 0.0
    freqs = hist[hist > 0].astype(np.float64)
    p = freqs / count
    return float(-np.sum(p * np.log2(p)) * count)
