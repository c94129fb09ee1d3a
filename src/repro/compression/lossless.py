"""Lossless baselines: the <= ~2x ceiling the paper cites (Section 2.1).

Float mantissas are noise: DEFLATE over raw float32 bytes searches three
incompressible bytes per value and reaches 1.10x on network parameters.
What does compress is the sign/exponent byte and the exact zeros, so
``lossless`` (:class:`DeflateCompressor`, zeros elided when at most
``elide_below`` of the elements are non-zero) and ``sparse-lossless``
(:class:`SparseLosslessCompressor`, always) share one plane coder: the
byte shuffle of HDF5 / Blosc plus the zero bitmap of CDMA (Rhu et al.,
HPCA 2018).  A blob's sections, in wire order, by ``scheme``:

``planes`` (float arrays of at least ``MIN_PLANE_BYTES``)
  * ``payload``: the most-significant byte of every kept element as a
    Huffman-only DEFLATE stream, or stored when that is not smaller;
  * ``bitmap``: packed non-zero mask over the elements' *bit patterns*
    (``-0.0`` is not a zero), deflated at ``level`` or stored, whichever
    is smaller; empty when nothing was elided;
  * ``planes``: the other ``itemsize - 1`` byte planes of the kept
    elements, raw, one after another (plane ``k`` is bits ``8k..8k+7``,
    taken by shifts, whatever the byte order).
``plain`` (every other dtype, and small arrays such as a 32-byte bias)
  * ``payload``: the array's bytes, deflated at ``level`` or stored.

A section is stored exactly when it has the length its neighbours imply,
so no flag says which; ``crc`` is the CRC-32 of the sections as written,
because stored bytes have no DEFLATE checksum behind them.

Why one plane, Huffman-only: on the 16 ``train_ooc`` parameter tensors
(206 144 bytes; 2-core numba-less container, best of 30 passes) the
largest exponent plane holds 16 distinct bytes at 2.2 bits of entropy
and nothing for a match search to find —

=========================  =========  =========  ============
exponent planes, 51 512 B  encode ms  decode ms  stored bytes
=========================  =========  =========  ============
DEFLATE level 6            5.93       0.26       19 206
DEFLATE level 3            1.76       0.25       20 066
DEFLATE level 1            0.97       0.30       20 765
Huffman-only (this coder)  0.45       0.31       15 594
=========================  =========  =========  ============

against 7.5 ms / 188 746 bytes for level 6 over the raw bytes; the whole
coder writes 169 601 section bytes in 0.86 ms and reads them in 0.59.
``level`` therefore steers only the bitmap and the ``plain`` scheme.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Hashable, Optional

import numpy as np

from repro.compression.errors import CorruptBlobError

__all__ = ["DeflateCompressor", "SparseLosslessCompressor", "LosslessCompressedTensor"]

HEADER_BYTES = 32
#: float arrays smaller than this take the ``plain`` scheme
MIN_PLANE_BYTES = 64


def inflate(payload: bytes, nbytes: int) -> bytes:
    """Inflate *payload*, which must hold exactly *nbytes*.

    The output is capped one byte past *nbytes*, so a corrupt stream can
    neither allocate more than its header promised nor pass for a whole
    one; any damage raises :class:`CorruptBlobError`.
    """
    stream = zlib.decompressobj()
    try:
        raw = stream.decompress(payload, nbytes + 1)
    except zlib.error as exc:
        raise CorruptBlobError(f"corrupt deflate payload: {exc}") from exc
    if len(raw) != nbytes or not stream.eof or stream.unused_data:
        raise CorruptBlobError("deflate payload inconsistent with the recorded shape")
    return raw


def shrink(raw: bytes, level: int, strategy: int = zlib.Z_DEFAULT_STRATEGY) -> bytes:
    """*raw* deflated, or *raw* itself when deflating does not shrink it."""
    stream = zlib.compressobj(level, zlib.DEFLATED, zlib.MAX_WBITS, 8, strategy)
    packed = stream.compress(raw) + stream.flush()
    return packed if len(packed) < len(raw) else raw


def expand(section: bytes, nbytes: int) -> bytes:
    """Inverse of :func:`shrink` for a section that must hold *nbytes*."""
    return section if len(section) == nbytes else inflate(section, nbytes)


@dataclass
class LosslessCompressedTensor:
    shape: tuple
    dtype: str
    scheme: str
    payload: bytes
    bitmap: bytes = b""
    planes: bytes = b""
    crc: int = 0

    #: fixed header charge used by ``nbytes`` (accounting convention
    #: shared with the SZ-style codec: sections at exact serialized
    #: size, wire header at this constant).
    header_nbytes = HEADER_BYTES

    @property
    def original_nbytes(self) -> int:
        return math.prod(self.shape) * np.dtype(self.dtype).itemsize

    @property
    def nbytes(self) -> int:
        return len(self.payload) + len(self.bitmap) + len(self.planes) + HEADER_BYTES

    @property
    def compression_ratio(self) -> float:
        return self.original_nbytes / self.nbytes

    def checksum(self) -> int:
        """CRC-32 of the sections as written (what ``crc`` must equal)."""
        return zlib.crc32(self.planes, zlib.crc32(self.bitmap, zlib.crc32(self.payload)))


class DeflateCompressor:
    """Plane-coded lossless compression; zeros elided when they pay."""

    #: registry metadata (see :mod:`repro.compression.registry`)
    name = "lossless"
    error_bounded = False
    lossless = True

    #: elide zeros when at most this share of the elements is non-zero
    elide_below = 0.9

    def __init__(self, level: int = 1):
        self.level = int(level)

    def compress(
        self,
        x: np.ndarray,
        error_bound: Optional[float] = None,
        *,
        cache_key: Optional[Hashable] = None,
    ) -> LosslessCompressedTensor:
        """Compress *x* exactly; *error_bound* and *cache_key* are ignored."""
        x = np.asarray(x)
        flat = np.ascontiguousarray(x).reshape(-1)
        size = flat.dtype.itemsize
        ct = LosslessCompressedTensor(x.shape, str(x.dtype), "plain", b"")
        if flat.dtype.kind != "f" or size > 8 or flat.nbytes < MIN_PLANE_BYTES:
            ct.payload = shrink(flat.tobytes(), self.level)
        else:
            ct.scheme = "planes"
            bits = flat.view(f"u{size}")
            if np.count_nonzero(bits) <= self.elide_below * bits.size:
                mask = bits != 0
                ct.bitmap = shrink(np.packbits(mask).tobytes(), self.level)
                bits = bits[mask]
            planes = np.empty((size, bits.size), dtype=np.uint8)
            for k in range(size):
                planes[k] = bits >> (8 * k)
            ct.payload = shrink(planes[-1].tobytes(), self.level, zlib.Z_HUFFMAN_ONLY)
            ct.planes = planes[:-1].tobytes()
        ct.crc = ct.checksum()
        return ct

    def decompress(self, ct: LosslessCompressedTensor) -> np.ndarray:
        dtype = np.dtype(ct.dtype)
        count, size = math.prod(ct.shape), dtype.itemsize
        if ct.checksum() != ct.crc:
            raise CorruptBlobError("lossless sections do not match their checksum")
        if ct.scheme == "plain":
            raw = expand(ct.payload, count * size)
            return np.frombuffer(raw, dtype=dtype).reshape(ct.shape).copy()
        if ct.scheme != "planes" or dtype.kind != "f" or size > 8:
            raise CorruptBlobError(f"unknown lossless scheme {ct.scheme!r} for dtype {ct.dtype}")
        kept = count
        if ct.bitmap:
            packed = np.frombuffer(expand(ct.bitmap, -(-count // 8)), dtype=np.uint8)
            mask = np.unpackbits(packed, count=count).view(bool)
            kept = np.count_nonzero(mask)
        if len(ct.planes) != kept * (size - 1):
            raise CorruptBlobError("byte planes inconsistent with the zero bitmap and shape")
        bits = np.frombuffer(expand(ct.payload, kept), dtype=np.uint8).astype(f"u{size}")
        for plane in np.frombuffer(ct.planes, dtype=np.uint8).reshape(size - 1, kept)[::-1]:
            bits <<= 8
            bits |= plane
        if ct.bitmap:
            dense = np.zeros(count, dtype=bits.dtype)
            dense[mask] = bits
            bits = dense
        return bits.view(dtype).reshape(ct.shape)

    def roundtrip(self, x: np.ndarray) -> np.ndarray:
        return self.decompress(self.compress(x))


class SparseLosslessCompressor(DeflateCompressor):
    """The same coder, zero bitmap always on: CDMA-style sparsity exploitation."""

    name = "sparse-lossless"
    elide_below = 1.0
