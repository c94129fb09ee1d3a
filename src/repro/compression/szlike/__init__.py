"""SZ/cuSZ-style error-bounded lossy compressor (CPU re-implementation)."""

from repro.compression.szlike.compressor import SZCompressor, CompressedTensor
from repro.compression.szlike.codebook_cache import (
    CodebookCache, CodebookTable, SharedCodebookCache,
)
from repro.compression.szlike.huffman import (
    HuffmanCodebook,
    build_codebook,
    entropy_bits_from_hist,
    histogram,
    huffman_decode,
    huffman_encode,
)
from repro.compression.szlike.lorenzo import lorenzo_decode, lorenzo_encode
from repro.compression.szlike.serialize import dumps, loads
from repro.compression.szlike.quantizer import (
    QuantizedResiduals,
    codes_from_residuals,
    prequantize,
    reconstruct,
    residuals_from_codes,
)

__all__ = [
    "SZCompressor",
    "dumps",
    "loads",
    "CompressedTensor",
    "CodebookCache",
    "CodebookTable",
    "SharedCodebookCache",
    "HuffmanCodebook",
    "build_codebook",
    "entropy_bits_from_hist",
    "histogram",
    "huffman_decode",
    "huffman_encode",
    "lorenzo_decode",
    "lorenzo_encode",
    "QuantizedResiduals",
    "codes_from_residuals",
    "prequantize",
    "reconstruct",
    "residuals_from_codes",
]
