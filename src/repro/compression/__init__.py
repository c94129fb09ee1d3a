"""Compression substrate: SZ-style error-bounded compressor, baselines,
and the unified codec registry (:mod:`repro.compression.registry`)."""

from repro.compression.errors import CorruptBlobError
from repro.compression.szlike import (
    CodebookCache,
    CodebookTable,
    CompressedTensor,
    SharedCodebookCache,
    SZCompressor,
)
from repro.compression.jpeg_like import JpegLikeCompressor, JpegCompressedTensor
from repro.compression.lossless import (
    DeflateCompressor,
    SparseLosslessCompressor,
    LosslessCompressedTensor,
)
from repro.compression.registry import (
    Codec,
    available_codecs,
    get_codec,
)
from repro.compression.metrics import (
    compression_ratio,
    error_stats,
    max_abs_error,
    mse,
    normality_pvalue,
    psnr,
    uniformity_pvalue,
)

__all__ = [
    "CorruptBlobError",
    "SZCompressor",
    "CodebookCache",
    "CodebookTable",
    "SharedCodebookCache",
    "CompressedTensor",
    "JpegLikeCompressor",
    "JpegCompressedTensor",
    "DeflateCompressor",
    "SparseLosslessCompressor",
    "LosslessCompressedTensor",
    "Codec",
    "available_codecs",
    "get_codec",
    "compression_ratio",
    "error_stats",
    "max_abs_error",
    "mse",
    "normality_pvalue",
    "psnr",
    "uniformity_pvalue",
]
