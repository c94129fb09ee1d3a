"""Unified codec registry: one API over every compression backend.

The framework originally hard-wired :class:`SZCompressor` into the
compressing saved-tensor context.  Real deployments of the paper's idea
(cuSZ-style codecs behind a ``pack_hook``) swap codecs freely, so this
module defines the contract every codec speaks and a string-keyed
registry for constructing them:

* :class:`Codec` — the protocol: ``compress(x, error_bound=None)`` and
  ``decompress(ct)`` over self-describing compressed objects, plus
  ``name`` / ``error_bounded`` / ``lossless`` metadata attributes.
  ``error_bound`` is accepted by every codec; codecs without per-element
  error control (the JPEG-class baseline, the lossless baselines) ignore
  it — which is exactly the drawback the paper argues against
  (Section 2.1) and the contract makes explicit.
* :func:`register_codec` / :func:`get_codec` / :func:`available_codecs`
  — the registry.  ``get_codec("szlike", error_bound=1e-3)`` replaces
  direct constructor calls throughout examples and benchmarks.
* :func:`dumps` / :func:`loads` — byte-level serialization for *any*
  registered codec's compressed object (dispatch by type / magic), the
  physical representation a byte arena or a spill file stores.
* :class:`ChunkedCodec` — a wrapper that splits activations along the
  batch axis and compresses/decompresses the chunks concurrently in a
  thread pool (zlib and the vectorized NumPy stages release the GIL).
  Each chunk is a self-contained blob with its own codebook.  Every
  codec lives in the process that built it.

A codec is described declaratively by its registry key and constructor
options (``CodecSpec(name, options)`` in :mod:`repro.api.config`); the
registry only builds codecs, it never reverse-engineers a spec from an
instance.

Accounting convention (shared with ``CompressedTensor.nbytes``): every
compressed object's ``nbytes`` counts its binary sections at their exact
serialized size and the variable wire header at the object's fixed
``header_nbytes`` charge, so ``ct.nbytes == len(dumps(ct)) -
wire_header_nbytes(blob) + ct.header_nbytes`` holds for every leaf
codec.  A :class:`ChunkedCompressedTensor` nests: its ``nbytes`` sums
the chunks' (convention-following) footprints plus its own fixed
container-header charge.
"""

from __future__ import annotations

import json
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple, runtime_checkable

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
    "register_codec",
    "get_codec",
    "available_codecs",
    "dumps",
    "loads",
    "wire_header_nbytes",
    "ChunkedCodec",
    "ChunkedCompressedTensor",
    "CHUNK_HEADER_BYTES",
]


# ---------------------------------------------------------------------------
# The protocol
# ---------------------------------------------------------------------------


@runtime_checkable
class Codec(Protocol):
    """What every registered codec provides."""

    #: registry key the codec was built from
    name: str
    #: True when a per-element absolute error bound is honored
    error_bounded: bool
    #: True when decompress(compress(x)) == x bit-for-bit
    lossless: bool

    def compress(self, x: np.ndarray, error_bound: Optional[float] = None) -> Any:
        """Compress *x*; codecs without error control ignore the bound."""
        ...

    def decompress(self, ct: Any) -> np.ndarray:
        ...


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[..., Codec]] = {}


def register_codec(name: str, factory: Optional[Callable[..., Codec]] = None):
    """Register *factory* under *name* (usable as a decorator)."""

    def _register(f: Callable[..., Codec]):
        key = name.lower()
        if key in _REGISTRY:
            raise ValueError(f"codec {key!r} is already registered")
        _REGISTRY[key] = f
        return f

    return _register(factory) if factory is not None else _register


def get_codec(name: str, **kwargs) -> Codec:
    """Construct a codec by registry key, e.g. ``get_codec("szlike", error_bound=1e-3)``."""
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown codec {name!r}; available: {', '.join(available_codecs())}"
        ) from None
    return factory(**kwargs)


def available_codecs() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


# ---------------------------------------------------------------------------
# Adapters for the non-SZ codecs (normalize the compress signature)
# ---------------------------------------------------------------------------


class _IgnoreBoundMixin:
    """Adapter for codecs without per-element error control.

    ``error_bound`` is accepted and ignored — the only control these
    families offer is their own knob (quality / level), which is exactly
    the drawback the paper argues against (Section 2.1).
    """

    error_bounded = False

    def compress(self, x, error_bound=None):
        return super().compress(x)

    def roundtrip(self, x, error_bound=None):
        return self.decompress(self.compress(x))


class JpegCodec(_IgnoreBoundMixin, JpegLikeCompressor):
    """JPEG-ACT-style baseline behind the unified Codec API."""

    name = "jpeg"
    lossless = False


class DeflateCodec(_IgnoreBoundMixin, DeflateCompressor):
    """GZIP-class lossless baseline behind the unified Codec API."""

    name = "lossless"
    lossless = True


class SparseLosslessCodec(_IgnoreBoundMixin, SparseLosslessCompressor):
    """CDMA-style sparsity-aware lossless baseline behind the Codec API."""

    name = "sparse-lossless"
    lossless = True


register_codec("szlike", SZCompressor)
register_codec("jpeg", JpegCodec)
register_codec("lossless", DeflateCodec)
register_codec("sparse-lossless", SparseLosslessCodec)


# ---------------------------------------------------------------------------
# Generic serialization (what a byte arena physically stores)
# ---------------------------------------------------------------------------

_JPEG_MAGIC = b"JLRP"
_LOSSLESS_MAGIC = b"LLRP"
_CHUNKED_MAGIC = b"CKRP"
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
    if isinstance(ct, ChunkedCompressedTensor):
        blobs = [dumps(c) for c in ct.chunks]
        header = {
            "shape": list(ct.shape),
            "dtype": ct.dtype,
            "axis": ct.axis,
            "chunk_lengths": [len(b) for b in blobs],
        }
        return _dumps_generic(_CHUNKED_MAGIC, header, blobs)
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
    if magic == _CHUNKED_MAGIC:
        header, pos = _split_generic(data)
        chunks = []
        for length in _sizes(*header["chunk_lengths"]):
            chunks.append(loads(data[pos : pos + length]))
            pos += length
        if pos != len(data):
            raise CorruptBlobError("trailing bytes in serialized tensor")
        # the header must describe the chunks it frames: the writer only
        # splits along axis 0 and never changes the dtype
        shape = _sizes(*header["shape"])
        dtype = np.dtype(header["dtype"])
        if header["axis"] != 0 or any(np.dtype(c.dtype) != dtype for c in chunks):
            raise CorruptBlobError("chunked header axis or dtype disagrees with its chunks")
        shapes = [tuple(c.shape) for c in chunks]
        if len(shapes) > 1 and all(s and s[1:] == shapes[0][1:] for s in shapes):
            shapes = [(sum(s[0] for s in shapes), *shapes[0][1:])]
        if shapes != [shape]:
            raise CorruptBlobError("chunk shapes do not concatenate to the header shape")
        return ChunkedCompressedTensor(shape=shape, dtype=str(dtype), axis=0, chunks=chunks)
    raise CorruptBlobError("not a serialized compressed tensor (bad magic)")


def wire_header_nbytes(data: bytes) -> int:
    """Framing + header bytes of *data* (the part ``nbytes`` charges at
    the object's fixed ``header_nbytes``), for any codec's blob."""
    magic = bytes(data[:4])
    if magic == _szser._MAGIC:
        return _szser.wire_header_nbytes(data)
    if magic in (_JPEG_MAGIC, _LOSSLESS_MAGIC, _CHUNKED_MAGIC):
        (hlen,) = struct.unpack_from("<I", data, 4)
        return _GENERIC_FRAMING_BYTES + hlen
    raise CorruptBlobError("not a serialized compressed tensor (bad magic)")


# ---------------------------------------------------------------------------
# Chunked parallel compression
# ---------------------------------------------------------------------------

#: fixed charge for the chunked container's own wire header
CHUNK_HEADER_BYTES = 32


@dataclass
class ChunkedCompressedTensor:
    """Container for per-chunk compressed objects (split along one axis).

    Each chunk is a self-contained compressed object of the inner codec
    — a Huffman chunk carries its own codebook — so any chunk decodes
    on its own and the container is only framing.
    """

    shape: tuple
    dtype: str
    axis: int
    chunks: List[Any] = field(default_factory=list)

    header_nbytes = CHUNK_HEADER_BYTES

    @property
    def original_nbytes(self) -> int:
        return int(np.prod(self.shape)) * np.dtype(self.dtype).itemsize if self.shape else 0

    @property
    def nbytes(self) -> int:
        """Sum of the chunk footprints (each following the exact-sections
        convention) plus the container header."""
        return sum(c.nbytes for c in self.chunks) + CHUNK_HEADER_BYTES

    @property
    def compression_ratio(self) -> float:
        return self.original_nbytes / self.nbytes if self.nbytes else 0.0

    @property
    def error_bound(self):
        """The (uniform) absolute bound the chunks were compressed under,
        or None for codecs without one."""
        if not self.chunks:
            return None
        return getattr(self.chunks[0], "error_bound", None)


class ChunkedCodec:
    """Split along the batch axis, compress/decompress chunks concurrently.

    Parameters
    ----------
    inner:
        A :class:`Codec` instance or a registry key (extra kwargs go to
        :func:`get_codec`).
    workers:
        Worker threads.  zlib's deflate/inflate and NumPy's vectorized
        kernels drop the GIL, so threads deliver real concurrency
        without serialization cost.  The pool starts on the first call
        that splits a tensor and stops in :meth:`close`.
    min_chunk_nbytes:
        Tensors smaller than ``2 * min_chunk_nbytes`` are not split —
        chunking overhead would swamp the win.

    Equivalence contract: the reconstruction is bit-identical to the
    unchunked path whenever the inner codec treats leading-axis slices
    independently — true for the SZ-style codec (Lorenzo prediction
    covers only trailing axes), the JPEG-like codec would differ only via
    its per-tensor scale, and lossless codecs are exact either way.  A
    relative-mode error bound is resolved **once on the whole tensor** so
    every chunk compresses under the same absolute bound.

    Every chunk is compressed independently, with its own Huffman
    codebook.  Under a ``cache_key`` chunk *i* of a split tensor
    amortizes its book through the inner codec's cross-iteration cache
    under its own key ``(cache_key, "chunk", i)``, so its reuse
    decisions depend only on that chunk's history.
    """

    name = "chunked"
    #: compress accepts cache_key= (forwarded to the inner codec's
    #: cross-iteration codebook cache)
    supports_cache_key = True

    def __init__(
        self,
        inner: Any = "szlike",
        *,
        workers: int = 4,
        min_chunk_nbytes: int = 1 << 20,
        **inner_kwargs,
    ):
        if isinstance(inner, str):
            inner = get_codec(inner, **inner_kwargs)
        elif inner_kwargs:
            raise TypeError("inner_kwargs are only valid with a registry-key inner")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if min_chunk_nbytes < 1:
            raise ValueError(f"min_chunk_nbytes must be >= 1, got {min_chunk_nbytes}")
        self.inner = inner
        self.workers = int(workers)
        self.min_chunk_nbytes = int(min_chunk_nbytes)
        self.error_bounded = bool(getattr(inner, "error_bounded", False))
        self.lossless = bool(getattr(inner, "lossless", False))
        # Persistent pool: compress/decompress sit on the per-layer
        # per-iteration pack/unpack hot path, so worker churn per call
        # would be pure overhead.
        self._pool: Optional[ThreadPoolExecutor] = None

    # -- helpers ---------------------------------------------------------
    def _num_chunks(self, x: np.ndarray) -> int:
        if x.ndim == 0 or x.shape[0] < 2 or x.nbytes < 2 * self.min_chunk_nbytes:
            return 1
        by_size = max(1, x.nbytes // self.min_chunk_nbytes)
        return int(min(self.workers, x.shape[0], by_size))

    def _run(self, fn, arg_lists: List[tuple]) -> List[Any]:
        """``[fn(*args) for args in arg_lists]``, on the thread pool when
        there is more than one chunk and more than one worker."""
        if self.workers <= 1 or len(arg_lists) <= 1:
            return [fn(*args) for args in arg_lists]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="chunked-codec"
            )
        return list(self._pool.map(lambda args: fn(*args), arg_lists))

    def _compress_part(self, part: np.ndarray, error_bound, kwargs: dict):
        return self.inner.compress(part, error_bound=error_bound, **kwargs)

    def close(self) -> None:
        """Stop the worker threads (a later call that splits a tensor
        starts a new pool)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    # -- Codec API -------------------------------------------------------
    def compress(
        self,
        x: np.ndarray,
        error_bound: Optional[float] = None,
        *,
        cache_key: Optional[Any] = None,
    ) -> ChunkedCompressedTensor:
        x = np.asarray(x)
        if error_bound is None and hasattr(self.inner, "resolve_error_bound"):
            error_bound = self.inner.resolve_error_bound(x)
        n = self._num_chunks(x)
        parts = np.array_split(x, n, axis=0) if n > 1 else [x]
        # An unsplit tensor amortizes under the caller's key; chunk i of a
        # split one under its own stable key, so its book reuse decisions
        # depend only on that chunk's history (the per-key independence
        # the cache's determinism rests on).
        keyed = cache_key is not None and getattr(self.inner, "supports_cache_key", False)
        kwargs = [
            {"cache_key": cache_key if n == 1 else (cache_key, "chunk", i)} if keyed else {}
            for i in range(n)
        ]
        chunks = self._run(
            self._compress_part, [(p, error_bound, kw) for p, kw in zip(parts, kwargs)]
        )
        return ChunkedCompressedTensor(shape=x.shape, dtype=str(x.dtype), axis=0, chunks=chunks)

    def decompress(self, ct: ChunkedCompressedTensor) -> np.ndarray:
        if not isinstance(ct, ChunkedCompressedTensor):
            return self.inner.decompress(ct)
        parts = self._run(self.inner.decompress, [(c,) for c in ct.chunks])
        out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=ct.axis)
        return out.reshape(ct.shape)

    def roundtrip(self, x: np.ndarray, error_bound: Optional[float] = None) -> np.ndarray:
        return self.decompress(self.compress(x, error_bound))


register_codec("chunked", ChunkedCodec)
