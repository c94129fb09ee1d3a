"""Lossless baselines: the <= ~2x ceiling the paper cites (Section 2.1).

Two codecs are provided:

* :class:`DeflateCompressor` — plain DEFLATE over the raw float bytes
  (GZIP-class, the generic lossless baseline).
* :class:`SparseLosslessCompressor` — sparsity-aware: a zero bitmap plus
  DEFLATE-compressed non-zero payload, modeling CDMA-style "compressing
  DMA engine" schemes (Rhu et al., HPCA 2018) that exploit ReLU-induced
  activation sparsity.  Exactly lossless, bounded by the non-zero ratio.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["DeflateCompressor", "SparseLosslessCompressor", "LosslessCompressedTensor"]

HEADER_BYTES = 32


def inflate(payload: bytes, nbytes: int) -> bytes:
    """Inflate *payload*, which must hold exactly *nbytes*.

    The output is capped one byte past *nbytes*, so a corrupt stream can
    neither allocate more than its header promised nor pass for a whole
    one; any damage raises ``ValueError``.
    """
    stream = zlib.decompressobj()
    try:
        raw = stream.decompress(payload, nbytes + 1)
    except zlib.error as exc:
        raise ValueError(f"corrupt deflate payload: {exc}") from exc
    if len(raw) != nbytes or not stream.eof or stream.unused_data:
        raise ValueError("deflate payload inconsistent with the recorded shape")
    return raw


@dataclass
class LosslessCompressedTensor:
    shape: tuple
    dtype: str
    scheme: str
    payload: bytes
    bitmap: bytes = b""

    #: fixed header charge used by ``nbytes`` (accounting convention
    #: shared with the SZ-style codec: sections at exact serialized
    #: size, wire header at this constant).
    header_nbytes = HEADER_BYTES

    @property
    def original_nbytes(self) -> int:
        return math.prod(self.shape) * np.dtype(self.dtype).itemsize

    @property
    def nbytes(self) -> int:
        return len(self.payload) + len(self.bitmap) + HEADER_BYTES

    @property
    def compression_ratio(self) -> float:
        return self.original_nbytes / self.nbytes


class DeflateCompressor:
    """GZIP-class lossless compression of the raw tensor bytes."""

    def __init__(self, level: int = 6):
        self.level = int(level)

    def compress(self, x: np.ndarray) -> LosslessCompressedTensor:
        x = np.ascontiguousarray(x)
        return LosslessCompressedTensor(
            shape=x.shape, dtype=str(x.dtype), scheme="deflate",
            payload=zlib.compress(x.tobytes(), self.level),
        )

    def decompress(self, ct: LosslessCompressedTensor) -> np.ndarray:
        raw = inflate(ct.payload, ct.original_nbytes)
        return np.frombuffer(raw, dtype=ct.dtype).reshape(ct.shape).copy()

    def roundtrip(self, x: np.ndarray) -> np.ndarray:
        return self.decompress(self.compress(x))


class SparseLosslessCompressor:
    """Zero-bitmap + DEFLATE(non-zeros): CDMA-style sparsity exploitation."""

    def __init__(self, level: int = 6):
        self.level = int(level)

    def compress(self, x: np.ndarray) -> LosslessCompressedTensor:
        x = np.ascontiguousarray(x)
        flat = x.reshape(-1)
        nz_mask = flat != 0
        bitmap = np.packbits(nz_mask).tobytes()
        payload = zlib.compress(flat[nz_mask].tobytes(), self.level)
        return LosslessCompressedTensor(
            shape=x.shape, dtype=str(x.dtype), scheme="sparse",
            payload=payload, bitmap=bitmap,
        )

    def decompress(self, ct: LosslessCompressedTensor) -> np.ndarray:
        n = math.prod(ct.shape)
        if len(ct.bitmap) != -(-n // 8):
            raise ValueError("zero bitmap inconsistent with the recorded shape")
        nz_mask = np.unpackbits(np.frombuffer(ct.bitmap, dtype=np.uint8))[:n].astype(bool)
        nnz_bytes = np.count_nonzero(nz_mask) * np.dtype(ct.dtype).itemsize
        values = np.frombuffer(inflate(ct.payload, nnz_bytes), dtype=ct.dtype)
        flat = np.zeros(n, dtype=ct.dtype)
        flat[nz_mask] = values
        return flat.reshape(ct.shape)

    def roundtrip(self, x: np.ndarray) -> np.ndarray:
        return self.decompress(self.compress(x))
