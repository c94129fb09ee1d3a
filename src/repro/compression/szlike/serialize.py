"""Byte-level serialization of compressed tensors.

``CompressedTensor.nbytes`` is an accounting estimate; this module makes
it concrete: a compressed tensor becomes one self-describing byte string
(JSON header + binary sections) that can be written to disk, shipped over
a socket, or held in a byte arena — what an actual deployment of the
framework would store instead of live Python objects.

Format v2 sections: payload, outliers, chunk metadata, codebook lengths.
Chunk metadata is one **bit length per decode chunk** (``uint16``; the
chunk geometry is :func:`~repro.compression.szlike.huffman.chunk_layout`
of the symbol count, so it is not stored), 2 bytes per 16-256 symbols;
:func:`loads` rebuilds the absolute bit offsets with one ``cumsum``.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from repro.compression.szlike.compressor import _ENTROPY_STAGES, CompressedTensor
from repro.compression.szlike.huffman import MAX_CODE_LENGTH, HuffmanCodebook, chunk_layout

__all__ = ["dumps", "loads", "wire_header_nbytes", "WIRE_FRAMING_BYTES"]

_MAGIC = b"SZRP"
_VERSION = 2

#: fixed framing: magic + header-length word + payload-length word
WIRE_FRAMING_BYTES = 16


def wire_header_nbytes(data: bytes) -> int:
    """Bytes of *data* spent on framing plus the JSON header.

    This is exactly the portion :attr:`CompressedTensor.nbytes` charges
    at the fixed ``HEADER_BYTES`` convention, so for any compressed
    tensor ``ct``::

        ct.nbytes == len(dumps(ct)) - wire_header_nbytes(dumps(ct)) + HEADER_BYTES
    """
    if data[:4] != _MAGIC:
        raise ValueError("not a serialized compressed tensor (bad magic)")
    (hlen,) = struct.unpack_from("<I", data, 4)
    return WIRE_FRAMING_BYTES + hlen


def dumps(ct: CompressedTensor) -> bytes:
    """Serialize *ct* to a self-describing byte string."""
    # A shared codebook is serialized by its owning container (one length
    # table for all chunks); the chunk itself carries only the reference
    # flag — exactly what its ``nbytes`` charges.
    write_codebook = ct.codebook is not None and not ct.codebook_shared
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
        "has_codebook": write_codebook,
        "chunk_count": 0 if ct.chunk_offsets is None else int(ct.chunk_offsets.size),
    }
    if ct.codebook_shared:
        header["codebook_shared"] = True
    hbytes = json.dumps(header, separators=(",", ":")).encode()
    parts = [_MAGIC, struct.pack("<I", len(hbytes)), hbytes]
    parts.append(struct.pack("<Q", len(ct.payload)))
    parts.append(ct.payload)
    parts.append(ct.outliers.tobytes())
    if ct.chunk_offsets is not None:
        ends = np.append(ct.chunk_offsets[1:], ct.total_bits)
        parts.append((ends - ct.chunk_offsets).astype(chunk_layout(ct.count)[2]).tobytes())
    if write_codebook:
        parts.append(ct.codebook.lengths.astype(np.uint8).tobytes())
    return b"".join(parts)


def loads(data: bytes) -> CompressedTensor:
    """Inverse of :func:`dumps`.

    The header is checked against itself and the sections against the
    header before anything is decoded or sized from them: a malformed,
    truncated or v1 blob (no v1 reader is kept) raises ``ValueError``.
    """
    try:
        return _loads(data)
    except (KeyError, TypeError, struct.error) as exc:
        raise ValueError(f"malformed serialized tensor: {exc!r}") from exc


def _loads(data: bytes) -> CompressedTensor:
    if data[:4] != _MAGIC:
        raise ValueError("not a serialized compressed tensor (bad magic)")
    (hlen,) = struct.unpack_from("<I", data, 4)
    pos = 8
    header = json.loads(data[pos : pos + hlen].decode())
    pos += hlen
    if header["v"] != _VERSION:
        raise ValueError(f"unsupported version {header['v']}")
    count, shape, entropy = header["count"], header["shape"], header["entropy"]
    if (
        entropy not in _ENTROPY_STAGES
        or any(type(d) is not int or d < 0 for d in (count, *shape))
        or count != math.prod(shape)
    ):
        raise ValueError("entropy stage, shape or symbol count malformed")
    chunk_size, n_chunks, cdt = chunk_layout(count)
    if header["chunk_count"] != (n_chunks if entropy.startswith("huffman") else 0):
        raise ValueError("chunk count inconsistent with the symbol count")
    (plen,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    payload = bytes(data[pos : pos + plen])
    pos += plen
    odt = np.dtype(header["outlier_dtype"])
    osz = header["outlier_count"] * odt.itemsize
    outliers = np.frombuffer(data[pos : pos + osz], dtype=odt).copy()
    pos += osz
    chunk_offsets = None
    if header["chunk_count"]:
        csz = n_chunks * cdt.itemsize
        lens = np.frombuffer(data[pos : pos + csz], dtype=cdt).astype(np.int64)
        pos += csz
        if (
            lens.size != n_chunks
            or int(lens.max()) > chunk_size * MAX_CODE_LENGTH
            or int(lens.sum()) != header["total_bits"]
        ):
            raise ValueError("chunk bit lengths inconsistent with the payload")
        chunk_offsets = np.cumsum(lens) - lens
    codebook = None
    if header["has_codebook"]:
        # alphabet size = 2 * radius quantization codes
        asz = 2 * header["radius"]
        lengths = np.frombuffer(data[pos : pos + asz], dtype=np.uint8).copy()
        pos += asz
        codebook = HuffmanCodebook.from_lengths(lengths)  # rejects lengths above MAX_CODE_LENGTH
    if pos != len(data):
        raise ValueError(f"trailing bytes in serialized tensor ({len(data) - pos})")
    return CompressedTensor(
        shape=tuple(shape),
        dtype=str(np.dtype(header["dtype"])),
        error_bound=header["eb"],
        radius=header["radius"],
        lorenzo_ndim=header["lorenzo_ndim"],
        entropy=entropy,
        payload=payload,
        total_bits=header["total_bits"],
        count=count,
        outliers=outliers,
        chunk_offsets=chunk_offsets,
        codebook=codebook,
        zero_filter=header["zero_filter"],
        raw_codes_dtype=str(np.dtype(header["raw_codes_dtype"])),
        # a shared-codebook chunk comes back bookless; the chunked
        # container's loads() re-attaches the shared book
        codebook_shared=header.get("codebook_shared", False),
    )
