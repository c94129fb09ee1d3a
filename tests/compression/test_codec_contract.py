"""Hypothesis contract of the non-szlike codecs and the chunked container.

The szlike codec has its own byte-level contract
(``test_szlike_contract.py``).  This suite holds ``jpeg``, ``lossless``,
``sparse-lossless`` and ``chunked`` over every leaf codec to what every
blob promises, over that suite's ``tensors()`` strategy: the decode has
the input's shape and dtype, the registry wire format round-trips
bit-equal, ``nbytes`` is the blob's length with each variable wire
header swapped for its fixed charge, and no truncation of a blob decodes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from test_szlike_contract import tensors

from repro.compression import CorruptBlobError, get_codec
from repro.compression.registry import dumps, loads, wire_header_nbytes

LEAVES = ("jpeg", "lossless", "sparse-lossless")
CODECS = [*LEAVES, *(f"chunked[{inner}]" for inner in ("szlike", *LEAVES))]


def make(name):
    if name.startswith("chunked["):
        # a one-byte floor splits every tensor with two or more rows
        return get_codec("chunked", inner=name[len("chunked[") : -1], workers=2, min_chunk_nbytes=1)
    return get_codec(name)


def charged(ct, blob: bytes) -> int:
    """What the accounting convention says ``ct.nbytes`` is: the blob with
    every variable wire header (the container's and each chunk's)
    replaced by the object's fixed ``header_nbytes``."""
    n = len(blob) - wire_header_nbytes(blob) + ct.header_nbytes
    for chunk in getattr(ct, "chunks", ()):
        n += chunk.header_nbytes - wire_header_nbytes(dumps(chunk))
    return n


@pytest.mark.parametrize("name", CODECS)
@given(tensors())
@settings(max_examples=40, deadline=None)
def test_blob_contract(name, tensor):
    x, eb = tensor
    codec = make(name)
    try:
        if "jpeg" in name and x.ndim < 2:  # 8x8 blocks need two axes: a typed refusal
            with pytest.raises(ValueError):
                codec.compress(x, error_bound=eb)
            return
        ct = codec.compress(x, error_bound=eb)
        y = codec.decompress(ct)
        assert (y.shape, y.dtype) == (x.shape, x.dtype)
        if codec.lossless:
            assert y.tobytes() == x.tobytes()
        blob = dumps(ct)
        assert codec.decompress(loads(blob)).tobytes() == y.tobytes()
        assert ct.nbytes == charged(ct, blob)
        for cut in range(len(blob)):
            with pytest.raises(CorruptBlobError):
                codec.decompress(loads(blob[:cut]))
    finally:
        getattr(codec, "close", lambda: None)()

