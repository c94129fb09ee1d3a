"""Byte-level serialization of compressed tensors.

``CompressedTensor.nbytes`` is an accounting estimate; this module makes
it concrete: a compressed tensor becomes one self-describing byte string
(JSON header + binary sections) that can be written to disk, shipped over
a socket, or held in a byte arena — what an actual deployment of the
framework would store instead of live Python objects.

Format v3 sections, in wire order: **payload** (behind an 8-byte length
word); **outliers**; **chunk table** (Huffman stages) — every decode
chunk's bit length minus one in ``width`` bits, one big-endian bit
string padded to a byte, geometry and width being
:func:`~repro.compression.szlike.huffman.chunk_layout` of the symbol
count (10 bits per 64 symbols on the ``train_sz`` activations;
:func:`loads` rebuilds the bit offsets with one ``cumsum``);
**codebook** (every Huffman stage) — :meth:`HuffmanCodebook.section`, the
``2 * radius`` length bytes deflated, or raw when the section is exactly
that long; it is the rest of the blob.  v2 spent 2 bytes per chunk and
1 024 per codebook, which priced chunks at 256 symbols; v3 holds four
times the chunks in fewer bytes (333 719 against 334 771 for the six
``train_sz`` tensors at step 0).  No v2 reader: blobs live for a session.

A blob is self-contained: a Huffman blob without its codebook section,
or with a header key this writer never emits, is corrupt.  Its
``lorenzo_ndim`` is the predictor ``compress`` chose: 1 to
``min(3, len(shape))`` Lorenzo axes, or 0 for grid indices stored
unpredicted.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from repro.compression.errors import CorruptBlobError
from repro.compression.lossless import expand
from repro.compression.szlike.compressor import _ENTROPY_STAGES, CompressedTensor
from repro.compression.szlike.huffman import (
    MAX_CODE_LENGTH,
    HuffmanCodebook,
    chunk_layout,
    chunk_meta_nbytes,
)

__all__ = ["dumps", "loads", "wire_header_nbytes", "WIRE_FRAMING_BYTES"]

_MAGIC = b"SZRP"
_VERSION = 3

#: fixed framing: magic + header-length word + payload-length word
WIRE_FRAMING_BYTES = 16
#: every key of a v3 header (``dumps`` writes exactly these)
_HEADER_KEYS = frozenset((
    "v", "shape", "dtype", "eb", "radius", "lorenzo_ndim", "entropy", "total_bits", "count",
    "zero_filter", "raw_codes_dtype", "outlier_dtype", "outlier_count", "has_codebook",
    "chunk_count",
))


def wire_header_nbytes(data: bytes) -> int:
    """Bytes of *data* spent on framing plus the JSON header.

    This is exactly the portion :attr:`CompressedTensor.nbytes` charges
    at the fixed ``HEADER_BYTES`` convention, so for any compressed
    tensor ``ct``::

        ct.nbytes == len(dumps(ct)) - wire_header_nbytes(dumps(ct)) + HEADER_BYTES
    """
    if data[:4] != _MAGIC:
        raise CorruptBlobError("not a serialized compressed tensor (bad magic)")
    (hlen,) = struct.unpack_from("<I", data, 4)
    return WIRE_FRAMING_BYTES + hlen


def _pack_uints(values: np.ndarray, width: int) -> bytes:
    """*values* (each < 2^width, 8 <= width <= 16) as one big-endian bit
    string.  An output byte overlaps at most two values, so it is eight
    bits out of ``value << width | next value`` — shifts and one gather
    over ``size * width / 8`` bytes, no bit matrix."""
    v = np.zeros(values.size + 1, dtype=np.uint32)
    v[:-1] = values
    pair = (v[:-1] << width) | v[1:]
    bit = np.arange(-(-values.size * width // 8)) << 3  # where each output byte starts
    first = bit // width
    return (pair[first] >> (2 * width - 8 - bit + first * width)).astype(np.uint8).tobytes()


def _unpack_uints(data: bytes, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_uints`, as ``int64``: value *i* is *width*
    bits out of the 24-bit window at byte ``i * width >> 3``."""
    buf = np.frombuffer(data + b"\0\0", dtype=np.uint8)
    win = (buf[:-2].astype(np.uint32) << 16) | (buf[1:-1].astype(np.uint32) << 8) | buf[2:]
    bit = np.arange(count, dtype=np.int64) * width
    return (win[bit >> 3] >> (24 - width - (bit & 7))) & ((1 << width) - 1)


def dumps(ct: CompressedTensor) -> bytes:
    """Serialize *ct* to a self-describing byte string."""
    header = {
        "v": _VERSION,
        "shape": list(ct.shape),
        "dtype": ct.dtype,
        "eb": ct.error_bound,
        "radius": ct.radius,
        "lorenzo_ndim": ct.lorenzo_ndim,
        "entropy": ct.entropy,
        "total_bits": ct.total_bits,
        "count": ct.count,
        "zero_filter": ct.zero_filter,
        "raw_codes_dtype": ct.raw_codes_dtype,
        "outlier_dtype": str(ct.outliers.dtype),
        "outlier_count": int(ct.outliers.size),
        "has_codebook": ct.codebook is not None,
        "chunk_count": 0 if ct.chunk_offsets is None else int(ct.chunk_offsets.size),
    }
    hbytes = json.dumps(header, separators=(",", ":")).encode()
    parts = [_MAGIC, struct.pack("<I", len(hbytes)), hbytes]
    parts.append(struct.pack("<Q", len(ct.payload)))
    parts.append(ct.payload)
    parts.append(ct.outliers.tobytes())
    if ct.chunk_offsets is not None:
        ends = np.append(ct.chunk_offsets[1:], ct.total_bits)
        parts.append(_pack_uints(ends - ct.chunk_offsets - 1, chunk_layout(ct.count)[2]))
    if ct.codebook is not None:
        parts.append(ct.codebook.section())
    return b"".join(parts)


def loads(data: bytes) -> CompressedTensor:
    """Inverse of :func:`dumps`.

    The header is checked against itself and every section against the
    header before anything is decoded or sized from it: a malformed,
    truncated or older-format blob raises :class:`CorruptBlobError`.
    """
    try:
        return _loads(data)
    except CorruptBlobError:
        raise
    except (KeyError, TypeError, ValueError, struct.error) as exc:
        raise CorruptBlobError(f"malformed serialized tensor: {exc!r}") from exc


def _loads(data: bytes) -> CompressedTensor:
    if data[:4] != _MAGIC:
        raise CorruptBlobError("not a serialized compressed tensor (bad magic)")
    (hlen,) = struct.unpack_from("<I", data, 4)
    header = json.loads(data[8 : 8 + hlen].decode())
    if header["v"] != _VERSION:
        raise CorruptBlobError(f"unsupported version {header['v']}")
    if set(header) != _HEADER_KEYS:
        raise CorruptBlobError(f"malformed header: keys {sorted(set(header) ^ _HEADER_KEYS)}")
    count, shape, entropy = header["count"], header["shape"], header["entropy"]
    total_bits, radius, n_outliers = header["total_bits"], header["radius"], header["outlier_count"]
    if (
        entropy not in _ENTROPY_STAGES
        or any(type(d) is not int or d < 0 for d in (count, total_bits, radius, n_outliers, *shape))
        or count != math.prod(shape)
    ):
        raise CorruptBlobError("entropy stage, shape, symbol count or a length field malformed")
    # every field as the writer can emit it, so no accepted blob decodes
    # to a wrong or non-finite value
    eb, ndim = header["eb"], header["lorenzo_ndim"]
    if (
        type(eb) is not float
        or not math.isfinite(eb)
        or eb <= 0
        or type(ndim) is not int
        or not 0 <= ndim <= min(3, len(shape))
        or np.dtype(header["dtype"]).kind != "f"
        or type(header["zero_filter"]) is not bool
        or np.dtype(header["raw_codes_dtype"]).kind != "u"
        or header["outlier_dtype"] not in ("int32", "int64")
    ):
        raise CorruptBlobError("error bound, Lorenzo axes, a dtype or a flag malformed")
    chunk_size, n_chunks, width = chunk_layout(count)
    huffman = entropy == "huffman"
    if header["chunk_count"] != (n_chunks if huffman else 0):
        raise CorruptBlobError("chunk count inconsistent with the symbol count")
    if header["has_codebook"] is not huffman:
        raise CorruptBlobError("a Huffman blob carries its codebook, no other blob has one")
    (plen,) = struct.unpack_from("<Q", data, 8 + hlen)
    if entropy == "huffman" and plen != (total_bits + 7) >> 3:
        raise CorruptBlobError("payload length inconsistent with its bit count")
    pos = WIRE_FRAMING_BYTES + hlen

    def section(nbytes: int) -> bytes:
        nonlocal pos
        pos += nbytes
        if pos > len(data):
            raise CorruptBlobError("serialized tensor shorter than its sections")
        return bytes(data[pos - nbytes : pos])

    payload = section(plen)
    odt = np.dtype(header["outlier_dtype"])
    outliers = np.frombuffer(section(n_outliers * odt.itemsize), dtype=odt).copy()
    chunk_offsets = None
    if header["chunk_count"]:
        lens = _unpack_uints(section(chunk_meta_nbytes(count)), n_chunks, width) + 1
        # the last chunk may be short: it cannot hold more bits than its symbols allow
        if (
            int(lens.sum()) != total_bits
            or int(lens[-1]) > (count - (n_chunks - 1) * chunk_size) * MAX_CODE_LENGTH
        ):
            raise CorruptBlobError("chunk bit lengths inconsistent with the payload")
        chunk_offsets = np.cumsum(lens) - lens
    codebook = None
    if huffman:
        # alphabet size = 2 * radius quantization codes; the section is the rest of the blob
        book_section = section(len(data) - pos)
        lengths = np.frombuffer(expand(book_section, 2 * radius), dtype=np.uint8)
        codebook = HuffmanCodebook.from_lengths(lengths)  # rejects lengths above MAX_CODE_LENGTH
        codebook._section = book_section
    if pos != len(data):
        raise CorruptBlobError(f"trailing bytes in serialized tensor ({len(data) - pos})")
    return CompressedTensor(
        shape=tuple(shape),
        dtype=str(np.dtype(header["dtype"])),
        error_bound=header["eb"],
        radius=radius,
        lorenzo_ndim=header["lorenzo_ndim"],
        entropy=entropy,
        payload=payload,
        total_bits=total_bits,
        count=count,
        outliers=outliers,
        chunk_offsets=chunk_offsets,
        codebook=codebook,
        zero_filter=header["zero_filter"],
        raw_codes_dtype=str(np.dtype(header["raw_codes_dtype"])),
    )
