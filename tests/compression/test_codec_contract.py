"""Hypothesis contract of every codec's blob, through the registry.

The szlike codec also has its own byte-level contract
(``test_szlike_contract.py``).  This suite holds ``jpeg``, ``lossless``,
``sparse-lossless`` and ``szlike`` on each entropy stage to what every
blob promises, over that suite's ``tensors()`` strategy: the decode has
the input's shape and dtype, the registry wire format round-trips
bit-equal, ``nbytes`` is the blob's length with each variable wire
header swapped for its fixed charge, and no truncation of a blob decodes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from test_szlike_contract import ENTROPY_STAGES, tensors

from repro.compression import CorruptBlobError, get_codec
from repro.compression.registry import dumps, loads, wire_header_nbytes

CODECS = ["jpeg", "lossless", "sparse-lossless", *(f"szlike[{e}]" for e in ENTROPY_STAGES)]


def make(name):
    if name.startswith("szlike["):
        return get_codec("szlike", entropy=name[len("szlike[") : -1])
    return get_codec(name)


@pytest.mark.parametrize("name", CODECS)
@given(tensors())
@settings(max_examples=40, deadline=None)
def test_blob_contract(name, tensor):
    x, eb = tensor
    codec = make(name)
    if name == "jpeg" and x.ndim < 2:  # 8x8 blocks need two axes: a typed refusal
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
    # the variable wire header is charged at the object's fixed size
    assert ct.nbytes == len(blob) - wire_header_nbytes(blob) + ct.header_nbytes
    for cut in range(len(blob)):
        with pytest.raises(CorruptBlobError):
            codec.decompress(loads(blob[:cut]))

