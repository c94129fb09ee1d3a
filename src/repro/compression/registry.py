"""Unified codec registry: one API over every compression backend.

The framework originally hard-wired :class:`SZCompressor` into the
compressing saved-tensor context.  Real deployments of the paper's idea
(cuSZ-style codecs behind a ``pack_hook``) swap codecs freely, so this
module defines the contract every codec speaks and a string-keyed
registry for constructing them:

* :class:`Codec` — the protocol: ``compress(x, error_bound=None)``,
  ``decompress(ct)``, ``estimate_nbytes(x, error_bound=None)``, plus
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
  Every codec lives in the process that built it.

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

import inspect
import json
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
    "spec_of",
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

    def estimate_nbytes(self, x: np.ndarray, error_bound: Optional[float] = None) -> float:
        """Expected compressed footprint of *x* (monitoring path)."""
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


def _ctor_defaults(cls) -> Dict[str, Any]:
    """Constructor-parameter defaults of *cls* — the single source of
    truth ``spec_of`` compares against (no hand-copied default tables
    that could drift when a constructor changes)."""
    return {
        name: p.default
        for name, p in inspect.signature(cls.__init__).parameters.items()
        if p.default is not inspect.Parameter.empty
    }


def _nondefault_options(codec, attrs, defaults) -> Dict[str, Any]:
    return {
        attr: getattr(codec, attr)
        for attr in attrs
        if getattr(codec, attr) != defaults[attr]
    }


def spec_of(codec: Codec) -> Dict[str, Any]:
    """Declarative ``{"name": ..., "options": {...}}`` spec for *codec*.

    The inverse of :func:`get_codec`: ``get_codec(spec["name"],
    **spec["options"])`` builds an equivalent instance.  Only
    non-default constructor options are emitted, so a default-built
    codec round-trips to ``{"name": ..., "options": {}}`` — the stable
    canonical form the api layer serializes to JSON.

    Raises :class:`TypeError` for codec types the registry cannot
    describe (hand-rolled codecs outside the registry), and
    :class:`ValueError` for ablation-only modes
    (``emulate_zero_drift``) that are deliberately not serializable.
    """
    if isinstance(codec, SZCompressor):
        if codec.emulate_zero_drift:
            raise ValueError(
                "SZCompressor(emulate_zero_drift=True) is an ablation-only mode "
                "and cannot be captured in a declarative codec spec"
            )
        d = _ctor_defaults(SZCompressor)
        options = _nondefault_options(
            codec,
            ("error_bound", "mode", "dict_size", "lorenzo_ndim", "entropy",
             "zero_filter", "zlib_level", "kernel_backend"),
            d,
        )
        if codec.codebook_cache is not None:
            options["codebook_cache"] = True
            if codec.codebook_cache.refresh_interval != d["codebook_refresh"]:
                options["codebook_refresh"] = codec.codebook_cache.refresh_interval
            if codec.codebook_cache.delta != d["codebook_delta"]:
                options["codebook_delta"] = codec.codebook_cache.delta
        return {"name": "szlike", "options": options}
    if isinstance(codec, JpegCodec):
        options = _nondefault_options(
            codec, ("quality", "zlib_level"), _ctor_defaults(JpegLikeCompressor)
        )
        return {"name": "jpeg", "options": options}
    if isinstance(codec, (DeflateCodec, SparseLosslessCodec)):
        options = _nondefault_options(codec, ("level",), _ctor_defaults(type(codec)))
        return {"name": codec.name, "options": options}
    if isinstance(codec, ChunkedCodec):
        inner_spec = spec_of(codec.inner)
        options = {"inner": inner_spec["name"], **inner_spec["options"]}
        options.update(
            _nondefault_options(
                codec,
                ("workers", "min_chunk_nbytes", "share_codebook"),
                _ctor_defaults(ChunkedCodec),
            )
        )
        return {"name": "chunked", "options": options}
    raise TypeError(
        f"cannot describe {type(codec).__name__} as a registry spec; "
        f"declarative configs need a registry codec "
        f"({', '.join(available_codecs())})"
    )


# ---------------------------------------------------------------------------
# Adapters for the non-SZ codecs (normalize the compress signature)
# ---------------------------------------------------------------------------


class _IgnoreBoundMixin:
    """Adapter for codecs without per-element error control.

    ``error_bound`` is accepted and ignored — the only control these
    families offer is their own knob (quality / level), which is exactly
    the drawback the paper argues against (Section 2.1).  The size
    estimate compresses for real: these pipelines are cheap enough that
    the estimate is the actual figure, exact by construction.
    """

    error_bounded = False

    def compress(self, x, error_bound=None):
        return super().compress(x)

    def estimate_nbytes(self, x, error_bound=None):
        return float(self.compress(x).nbytes)

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
        sections = list(blobs)
        if ct.shared_codebook is not None:
            # the shared codebook section is written once, after the chunks
            sections.append(ct.shared_codebook.section())
            header["shared_codebook_len"] = len(sections[-1])
        return _dumps_generic(_CHUNKED_MAGIC, header, sections)
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
        return JpegCompressedTensor(
            shape=shape,
            dtype=str(np.dtype(header["dtype"])),
            quality=header["quality"],
            scale=float(header["scale"]),
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
        shared = None
        (cb_len,) = _sizes(header.get("shared_codebook_len", 0))
        if cb_len:
            # the container owns the book of every chunk that serialized
            # only a reference; they share one alphabet of 2 * radius codes
            users = [c for c in chunks if getattr(c, "codebook_shared", False)]
            if not users:
                raise CorruptBlobError("shared codebook without a chunk that refers to it")
            shared = _szser.codebook_from_section(data[pos : pos + cb_len], 2 * users[0].radius)
            pos += cb_len
            for c in users:
                if c.codebook is None:
                    c.codebook = shared
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
        return ChunkedCompressedTensor(
            shape=shape, dtype=str(dtype), axis=0, chunks=chunks, shared_codebook=shared,
        )
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

    When the inner codec is Huffman-based, the chunks share **one**
    canonical codebook (built or cache-fetched once per compress call
    instead of once per chunk).  The container owns it: chunks are
    flagged ``codebook_shared`` so their own ``nbytes``/serialized form
    carry only a reference, and the container charges/serializes the
    length table exactly once — "charge on first use, reference
    thereafter".
    """

    shape: tuple
    dtype: str
    axis: int
    chunks: List[Any] = field(default_factory=list)
    #: the one codebook the chunks reference (None when each chunk owns
    #: its own, e.g. non-Huffman inner codecs)
    shared_codebook: Optional[Any] = None

    header_nbytes = CHUNK_HEADER_BYTES

    @property
    def original_nbytes(self) -> int:
        return int(np.prod(self.shape)) * np.dtype(self.dtype).itemsize if self.shape else 0

    @property
    def nbytes(self) -> int:
        """Sum of the chunk footprints plus the container header, plus
        the shared codebook charged exactly once.

        Each chunk's own ``nbytes`` already follows the exact-sections
        convention (shared-codebook chunks charge only their reference).
        """
        n = sum(c.nbytes for c in self.chunks) + CHUNK_HEADER_BYTES
        if self.shared_codebook is not None:
            n += self.shared_codebook.nbytes
        return n

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

    Codebook sharing: when the inner codec supports it (the
    Huffman-based SZ compressor, ``supports_codebook_sharing``), the
    first chunk is compressed inline on the calling thread and its
    canonical codebook — freshly built with the escape marker reserved,
    or fetched from the inner codec's cross-iteration cache — is
    injected into the remaining chunks' compress calls.  That removes
    the per-chunk GIL-bound tree builds and makes the whole tensor's
    entropy stage amortizable across training steps via ``cache_key``; chunk
    symbols the shared book does not cover escape to the outlier
    channel, so the error bound is unaffected.  Disable with
    ``share_codebook=False`` to restore per-chunk builds.
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
        share_codebook: bool = True,
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
        self.share_codebook = bool(share_codebook)
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
        supports_key = getattr(self.inner, "supports_cache_key", False)
        shared = None
        if n > 1 and self.share_codebook and getattr(
            self.inner, "supports_codebook_sharing", False
        ):
            # Compress the first chunk inline — its book (built with the
            # escape marker reserved, or fetched from the inner codec's
            # cross-iteration cache) becomes the shared book for the
            # remaining chunks, which skip their own builds.  Batch-axis
            # slices of one activation share their code distribution, so
            # the first chunk is a representative sample; any symbol it
            # missed escapes through the inner codec's outlier channel.
            first = self.inner.compress(
                parts[0], error_bound=error_bound,
                cache_key=cache_key, reserve_marker=True,
            )
            shared = first.codebook  # None for book-less entropy stages
            kwargs = {"codebook": shared} if shared is not None else {}
            rest = self._run(self._compress_part, [(p, error_bound, kwargs) for p in parts[1:]])
            chunks = [first] + rest
        elif n == 1 and cache_key is not None and supports_key:
            # unsplit tensors still amortize through the inner cache
            chunks = [self.inner.compress(parts[0], error_bound=error_bound, cache_key=cache_key)]
        else:
            # Without codebook sharing, chunks amortize individually: each
            # chunk index gets its own stable cache key, so its book reuse
            # decisions depend only on that chunk's own history (the same
            # per-key independence the cache's determinism rests on).
            chunk_keys = supports_key and cache_key is not None
            chunks = self._run(
                self._compress_part,
                [
                    (p, error_bound, {"cache_key": (cache_key, "chunk", i)} if chunk_keys else {})
                    for i, p in enumerate(parts)
                ],
            )
        container_book = None
        if shared is not None:
            # The container owns the shared book; chunks that actually
            # used it (a chunk falls back to a private build when the
            # injected book lacks a usable outlier marker) carry only a
            # reference in their own nbytes/serialized form.
            for c in chunks:
                if c.codebook is not None and np.array_equal(c.codebook.lengths, shared.lengths):
                    c.codebook = shared
                    c.codebook_shared = True
                    container_book = shared
        return ChunkedCompressedTensor(
            shape=x.shape, dtype=str(x.dtype), axis=0, chunks=chunks,
            shared_codebook=container_book,
        )

    def decompress(self, ct: ChunkedCompressedTensor) -> np.ndarray:
        if not isinstance(ct, ChunkedCompressedTensor):
            return self.inner.decompress(ct)
        parts = self._run(self.inner.decompress, [(c,) for c in ct.chunks])
        out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=ct.axis)
        return out.reshape(ct.shape)

    def estimate_nbytes(self, x: np.ndarray, error_bound: Optional[float] = None) -> float:
        """Expected compressed footprint, cache-aware: under codebook
        sharing the container-owned book is charged **once**, with the
        first chunk, matching :attr:`ChunkedCompressedTensor.nbytes`
        (shared-book chunks carry only a reference)."""
        x = np.asarray(x)
        if error_bound is None and hasattr(self.inner, "resolve_error_bound"):
            error_bound = self.inner.resolve_error_bound(x)
        n = self._num_chunks(x)
        parts = np.array_split(x, n, axis=0) if n > 1 else [x]
        shares = self.share_codebook and getattr(self.inner, "supports_codebook_sharing", False)
        bookless = {"own_codebook": False} if shares else {}
        ests = self._run(
            lambda p, kw: self.inner.estimate_nbytes(p, error_bound=error_bound, **kw),
            [(p, bookless if i else {}) for i, p in enumerate(parts)],
        )
        return float(sum(ests)) + CHUNK_HEADER_BYTES

    def roundtrip(self, x: np.ndarray, error_bound: Optional[float] = None) -> np.ndarray:
        return self.decompress(self.compress(x, error_bound))


register_codec("chunked", ChunkedCodec)
