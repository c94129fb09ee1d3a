"""JPEG-ACT-style baseline: transform-based lossy compression of activations.

JPEG-ACT (Evans et al., ISCA 2020) — the paper's state-of-the-art
comparator — applies a modified JPEG pipeline to activation tensors with
dedicated GPU hardware.  We reproduce the *algorithmic* pipeline in
software: 8x8 block DCT over each feature map, quantization with a scaled
JPEG luminance matrix, and an entropy stage over the quantized integer
coefficients.

The defining contrast with the SZ-style compressor is that the error is
controlled only indirectly through the ``quality`` knob: there is **no
per-element absolute error bound**, which is exactly the drawback the
paper argues against (Section 2.1).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Hashable, Optional

import numpy as np

from repro.compression.lossless import inflate

__all__ = ["JpegLikeCompressor", "JpegCompressedTensor", "JPEG_LUMINANCE_Q"]

# The ISO/IEC 10918-1 Annex K luminance quantization table.
JPEG_LUMINANCE_Q = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)

HEADER_BYTES = 64
#: DEFLATE level of the quantized-coefficient payload
ZLIB_LEVEL = 6


def _quality_scale(quality: int) -> np.ndarray:
    """Scaled quantization matrix per the IJG quality convention."""
    if not 1 <= quality <= 100:
        raise ValueError(f"quality must be in [1, 100], got {quality}")
    s = 5000.0 / quality if quality < 50 else 200.0 - 2.0 * quality
    q = np.floor((JPEG_LUMINANCE_Q * s + 50.0) / 100.0)
    return np.clip(q, 1.0, None)


def _blockify(plane: np.ndarray, block: int = 8):
    """Pad the trailing 2 axes to multiples of *block* and tile into blocks."""
    *lead, h, w = plane.shape
    ph = (-h) % block
    pw = (-w) % block
    if ph or pw:
        pad = [(0, 0)] * len(lead) + [(0, ph), (0, pw)]
        plane = np.pad(plane, pad, mode="edge")
    H, W = h + ph, w + pw
    tiled = plane.reshape(*lead, H // block, block, W // block, block)
    tiled = np.moveaxis(tiled, -3, -2)  # (..., H/b, W/b, b, b)
    return tiled, (h, w)


def _unblockify(tiled: np.ndarray, hw):
    h, w = hw
    tiled = np.moveaxis(tiled, -2, -3)
    *lead, nh, b1, nw, b2 = tiled.shape
    plane = tiled.reshape(*lead, nh * b1, nw * b2)
    return plane[..., :h, :w]


@dataclass
class JpegCompressedTensor:
    shape: tuple
    dtype: str
    quality: int
    scale: float
    payload: bytes
    coeff_dtype: str
    padded_shape: tuple

    #: fixed header charge used by ``nbytes`` (accounting convention
    #: shared with the SZ-style codec: sections at exact serialized
    #: size, wire header at this constant).
    header_nbytes = HEADER_BYTES

    @property
    def original_nbytes(self) -> int:
        return int(np.prod(self.shape)) * np.dtype(self.dtype).itemsize

    @property
    def nbytes(self) -> int:
        return len(self.payload) + HEADER_BYTES

    @property
    def compression_ratio(self) -> float:
        return self.original_nbytes / self.nbytes


class JpegLikeCompressor:
    """8x8 DCT + quantization-matrix codec applied to float tensors.

    ``quality`` plays the JPEG role (1 = coarsest). Activation tensors are
    rescaled into the nominal [-128, 128) JPEG sample range before the
    transform, mirroring JPEG-ACT's fixed-point front end.
    """

    #: registry metadata (see :mod:`repro.compression.registry`)
    name = "jpeg"
    error_bounded = False
    lossless = False

    def __init__(self, quality: int = 50):
        # scipy.fft is paid by whoever builds a jpeg codec, not by
        # ``import repro`` and not inside a step or on a worker thread
        from scipy.fft import dctn, idctn

        self._dctn, self._idctn = dctn, idctn
        self.quality = int(quality)
        self.qmatrix = _quality_scale(self.quality)

    def compress(
        self,
        x: np.ndarray,
        error_bound: Optional[float] = None,
        *,
        cache_key: Optional[Hashable] = None,
    ) -> JpegCompressedTensor:
        """Compress *x* at :attr:`quality`; *error_bound* and *cache_key*
        are ignored, because quality is the only control this family has."""
        x = np.asarray(x)
        if not np.issubdtype(x.dtype, np.floating):
            raise TypeError(f"expected floating-point input, got {x.dtype}")
        if x.ndim < 2:
            raise ValueError("JPEG-like codec needs at least 2 spatial axes")
        amax = float(np.abs(x).max())
        scale = amax / 127.0 if amax > 0 else 1.0
        tiled, hw = _blockify(x.astype(np.float64) / scale)
        coeffs = self._dctn(tiled, axes=(-2, -1), norm="ortho")
        quant = np.rint(coeffs / self.qmatrix)
        info = np.iinfo(np.int16)
        coeff_dtype = "int16" if (quant.min() >= info.min and quant.max() <= info.max) else "int32"
        quant = quant.astype(coeff_dtype)
        payload = zlib.compress(quant.tobytes(), ZLIB_LEVEL)
        return JpegCompressedTensor(
            shape=x.shape,
            dtype=str(x.dtype),
            quality=self.quality,
            scale=scale,
            payload=payload,
            coeff_dtype=coeff_dtype,
            padded_shape=quant.shape,
        )

    def decompress(self, ct: JpegCompressedTensor) -> np.ndarray:
        coeff_nbytes = math.prod(ct.padded_shape) * np.dtype(ct.coeff_dtype).itemsize
        quant = np.frombuffer(inflate(ct.payload, coeff_nbytes), dtype=ct.coeff_dtype)
        quant = quant.reshape(ct.padded_shape).astype(np.float64)
        coeffs = quant * _quality_scale(ct.quality)  # the blob's table, not self's
        tiled = self._idctn(coeffs, axes=(-2, -1), norm="ortho")
        hw = (ct.shape[-2], ct.shape[-1])
        plane = _unblockify(tiled, hw)
        return (plane * ct.scale).astype(np.dtype(ct.dtype))

    def roundtrip(self, x: np.ndarray) -> np.ndarray:
        return self.decompress(self.compress(x))
