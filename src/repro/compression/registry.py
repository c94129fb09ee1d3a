"""Unified codec registry: one API over every compression backend.

The framework originally hard-wired :class:`SZCompressor` into the
compressing saved-tensor context.  Real deployments of the paper's idea
(cuSZ-style codecs behind a ``pack_hook``) swap codecs freely, so this
module defines the contract every codec speaks and a fixed string-keyed
table for constructing them:

* :class:`Codec` — the protocol: ``compress(x, error_bound=None, *,
  cache_key=None)`` and ``decompress(ct)`` over self-describing
  compressed objects, plus ``name`` / ``error_bounded`` / ``lossless``
  class attributes.  Each codec class implements it itself.  Every codec
  accepts ``error_bound``; codecs without per-element error control (the
  JPEG-class baseline, the lossless baselines) ignore it — which is
  exactly the drawback the paper argues against (Section 2.1) and the
  contract makes explicit.  ``cache_key`` names the tensor stream (the
  saved-tensor context passes the layer name); only szlike uses it.
* :func:`get_codec` / :func:`available_codecs` — the table.
  ``get_codec("szlike", error_bound=1e-3)`` replaces direct constructor
  calls throughout examples and benchmarks.
* :func:`dumps` / :func:`loads` — byte-level serialization for *any*
  registered codec's compressed object (dispatch by type / magic), the
  physical representation a byte arena or a spill file stores.

Every codec lives in the process that built it and runs on its caller's
thread.  A codec is described declaratively by its registry key and constructor
options (``CodecSpec(name, options)`` in :mod:`repro.api.config`); the
registry only builds codecs, it never reverse-engineers a spec from an
instance.

Accounting convention (shared with ``CompressedTensor.nbytes``): every
compressed object's ``nbytes`` counts its binary sections at their exact
serialized size and the variable wire header at the object's fixed
``header_nbytes`` charge, so ``ct.nbytes == len(dumps(ct)) -
wire_header_nbytes(blob) + ct.header_nbytes`` holds for every codec.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any, Hashable, List, Optional, Protocol, Tuple

import numpy as np

from repro.compression.errors import CorruptBlobError
from repro.compression.jpeg_like import JpegCompressedTensor, JpegLikeCompressor
from repro.compression.lossless import (
    DeflateCompressor,
    LosslessCompressedTensor,
    SparseLosslessCompressor,
)
from repro.compression.szlike import CompressedTensor, SZCompressor
from repro.compression.szlike import serialize as _szser

__all__ = [
    "Codec",
    "get_codec",
    "available_codecs",
    "dumps",
    "loads",
    "wire_header_nbytes",
]


# ---------------------------------------------------------------------------
# The protocol
# ---------------------------------------------------------------------------


class Codec(Protocol):
    """What every registered codec provides."""

    #: registry key the codec was built from
    name: str
    #: True when a per-element absolute error bound is honored
    error_bounded: bool
    #: True when decompress(compress(x)) == x bit-for-bit
    lossless: bool

    def compress(
        self,
        x: np.ndarray,
        error_bound: Optional[float] = None,
        *,
        cache_key: Optional[Hashable] = None,
    ) -> Any:
        """Compress *x*; codecs without error control ignore the bound,
        codecs without per-stream state ignore the key."""
        ...

    def decompress(self, ct: Any) -> np.ndarray:
        ...


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY = {
    codec.name: codec
    for codec in (SZCompressor, JpegLikeCompressor, DeflateCompressor, SparseLosslessCompressor)
}


def get_codec(name: str, **kwargs) -> Codec:
    """Construct a codec by registry key, e.g. ``get_codec("szlike", error_bound=1e-3)``."""
    try:
        cls = _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown codec {name!r}; available: {', '.join(available_codecs())}"
        ) from None
    return cls(**kwargs)


def available_codecs() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


# ---------------------------------------------------------------------------
# Generic serialization (what a byte arena physically stores)
# ---------------------------------------------------------------------------

_JPEG_MAGIC = b"JLRP"
_LOSSLESS_MAGIC = b"LLRP"
#: magic + header-length word
_GENERIC_FRAMING_BYTES = 8


def _dumps_generic(magic: bytes, header: dict, sections: List[bytes]) -> bytes:
    hbytes = json.dumps(header, separators=(",", ":")).encode()
    return b"".join([magic, struct.pack("<I", len(hbytes)), hbytes, *sections])


def _split_generic(data: bytes) -> Tuple[dict, int]:
    (hlen,) = struct.unpack_from("<I", data, 4)
    header = json.loads(data[_GENERIC_FRAMING_BYTES : _GENERIC_FRAMING_BYTES + hlen].decode())
    if not isinstance(header, dict):
        raise CorruptBlobError("serialized tensor header is not an object")
    return header, _GENERIC_FRAMING_BYTES + hlen


def _sizes(*values) -> tuple:
    """Header lengths and dimensions: non-negative ints, nothing else."""
    if any(type(v) is not int or v < 0 for v in values):
        raise CorruptBlobError("length or shape field malformed")
    return values


def dumps(ct: Any) -> bytes:
    """Serialize any codec's compressed object to a self-describing blob."""
    if isinstance(ct, CompressedTensor):
        return _szser.dumps(ct)
    if isinstance(ct, JpegCompressedTensor):
        header = {
            "shape": list(ct.shape),
            "dtype": ct.dtype,
            "quality": ct.quality,
            "scale": ct.scale,
            "coeff_dtype": ct.coeff_dtype,
            "padded_shape": list(ct.padded_shape),
            "plen": len(ct.payload),
        }
        return _dumps_generic(_JPEG_MAGIC, header, [ct.payload])
    if isinstance(ct, LosslessCompressedTensor):
        header = {
            "shape": list(ct.shape),
            "dtype": ct.dtype,
            "scheme": ct.scheme,
            "plen": len(ct.payload),
            "blen": len(ct.bitmap),
            "crc": ct.crc,
        }
        return _dumps_generic(_LOSSLESS_MAGIC, header, [ct.payload, ct.bitmap, ct.planes])
    raise TypeError(f"don't know how to serialize {type(ct).__name__}")


def loads(data: bytes) -> Any:
    """Inverse of :func:`dumps` (dispatch on the 4-byte magic).

    Lengths, shapes and dtypes are checked before anything is sized from
    them; a malformed or truncated blob raises :class:`CorruptBlobError`.
    """
    try:
        return _loads(data)
    except CorruptBlobError:
        raise
    except (KeyError, TypeError, ValueError, struct.error) as exc:
        raise CorruptBlobError(f"malformed serialized tensor: {exc!r}") from exc


def _loads(data: bytes) -> Any:
    magic = bytes(data[:4])
    if magic == _szser._MAGIC:
        return _szser.loads(data)
    if magic == _JPEG_MAGIC:
        header, pos = _split_generic(data)
        (plen,) = _sizes(header["plen"])
        shape = _sizes(*header["shape"])
        padded_shape = tuple(header["padded_shape"])
        if pos + plen != len(data):
            raise CorruptBlobError("trailing bytes in serialized tensor")
        if (
            header["coeff_dtype"] not in ("int16", "int32")
            or len(shape) < 2
            or padded_shape != (*shape[:-2], -(-shape[-2] // 8), -(-shape[-1] // 8), 8, 8)
        ):
            raise CorruptBlobError("coefficient layout inconsistent with the shape")
        quality, scale = header["quality"], header["scale"]
        if (
            type(quality) is not int
            or not 1 <= quality <= 100
            or type(scale) is not float
            or not math.isfinite(scale)
            or scale <= 0
            or np.dtype(header["dtype"]).kind != "f"
        ):
            raise CorruptBlobError("quality, scale or dtype malformed")
        return JpegCompressedTensor(
            shape=shape,
            dtype=str(np.dtype(header["dtype"])),
            quality=quality,
            scale=scale,
            payload=bytes(data[pos:]),
            coeff_dtype=header["coeff_dtype"],
            padded_shape=padded_shape,
        )
    if magic == _LOSSLESS_MAGIC:
        header, pos = _split_generic(data)
        plen, blen, crc = _sizes(header["plen"], header["blen"], header["crc"])
        if pos + plen + blen > len(data):
            raise CorruptBlobError("serialized tensor shorter than its sections")
        # the byte planes are the rest of the blob; the decoder holds
        # their length to the shape and the zero bitmap
        return LosslessCompressedTensor(
            shape=_sizes(*header["shape"]),
            dtype=str(np.dtype(header["dtype"])),
            scheme=header["scheme"],
            payload=bytes(data[pos : pos + plen]),
            bitmap=bytes(data[pos + plen : pos + plen + blen]),
            planes=bytes(data[pos + plen + blen :]),
            crc=crc,
        )
    raise CorruptBlobError("not a serialized compressed tensor (bad magic)")


def wire_header_nbytes(data: bytes) -> int:
    """Framing + header bytes of *data* (the part ``nbytes`` charges at
    the object's fixed ``header_nbytes``), for any codec's blob."""
    magic = bytes(data[:4])
    if magic == _szser._MAGIC:
        return _szser.wire_header_nbytes(data)
    if magic in (_JPEG_MAGIC, _LOSSLESS_MAGIC):
        (hlen,) = struct.unpack_from("<I", data, 4)
        return _GENERIC_FRAMING_BYTES + hlen
    raise CorruptBlobError("not a serialized compressed tensor (bad magic)")
