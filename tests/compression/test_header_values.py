"""A blob header holds only values its writer can emit.

``loads`` checks each header field against what ``dumps`` could have
written for the blob's other fields: a value no writer emits (a bound
that is not a finite positive float, a Lorenzo axis count the shape
cannot have (0, no prediction, is one a writer emits), a non-floating
dtype, a non-bool flag, a signed code dtype, a float outlier dtype, a
JPEG quality outside 1..100) is a
``CorruptBlobError`` at ``loads``, never a wrong or non-finite decode.
A JPEG blob dequantizes with the table of the quality it records.
"""

import json
import struct

import numpy as np
import pytest

from repro.compression import CorruptBlobError, SZCompressor, get_codec
from repro.compression.registry import dumps, loads

NAN, INF = float("nan"), float("inf")

#: (field, value) edits of one ``SZRP`` header field
SZ_EDITS = [
    ("eb", -0.01), ("eb", 0.0), ("eb", NAN), ("eb", INF), ("eb", -INF), ("eb", "0.01"),
    ("eb", 1), ("eb", None),
    ("lorenzo_ndim", -1), ("lorenzo_ndim", 9), ("lorenzo_ndim", 4), ("lorenzo_ndim", 1.5),
    ("lorenzo_ndim", "2"), ("lorenzo_ndim", True),
    ("dtype", "complex64"), ("dtype", "int32"), ("dtype", "bool"), ("dtype", "uint8"),
    ("zero_filter", "no"), ("zero_filter", 1), ("zero_filter", None),
    ("raw_codes_dtype", "int16"), ("raw_codes_dtype", "float32"),
    ("outlier_dtype", "float64"), ("outlier_dtype", "int16"), ("outlier_dtype", "uint32"),
]
#: (field, value) edits of one ``JLRP`` (JPEG) header field
JPEG_EDITS = [
    ("scale", NAN), ("scale", -1.0), ("scale", 0.0), ("scale", INF), ("scale", "1.0"),
    ("dtype", "int32"), ("dtype", "complex64"),
    ("quality", 0), ("quality", 101), ("quality", 50.5), ("quality", "50"), ("quality", True),
]


def _relu(shape=(2, 3, 8, 8), seed=3):
    rng = np.random.default_rng(seed)
    return np.maximum(rng.standard_normal(shape), 0).astype(np.float32)


def _edit(blob: bytes, **changes) -> bytes:
    """*blob* with header fields replaced; for ``SZRP`` the length word
    after the header moves with it, so only the header changes."""
    (hlen,) = struct.unpack_from("<I", blob, 4)
    header = {**json.loads(blob[8 : 8 + hlen]), **changes}
    hbytes = json.dumps(header, separators=(",", ":")).encode()
    return blob[:4] + struct.pack("<I", len(hbytes)) + hbytes + blob[8 + hlen :]


@pytest.fixture(scope="module")
def sz_blob():
    return dumps(SZCompressor(0.01).compress(_relu()))


@pytest.fixture(scope="module")
def jpeg_blob():
    return dumps(get_codec("jpeg", quality=90).compress(_relu()))


@pytest.mark.parametrize("field,value", SZ_EDITS, ids=[f"{f}={v!r}" for f, v in SZ_EDITS])
def test_szlike_header_value_no_writer_emits(sz_blob, field, value):
    assert loads(_edit(sz_blob)).error_bound == 0.01  # the edit alone is what fails
    with pytest.raises(CorruptBlobError):
        loads(_edit(sz_blob, **{field: value}))


@pytest.mark.parametrize("field,value", JPEG_EDITS, ids=[f"{f}={v!r}" for f, v in JPEG_EDITS])
def test_jpeg_header_value_no_writer_emits(jpeg_blob, field, value):
    assert loads(_edit(jpeg_blob)).quality == 90
    with pytest.raises(CorruptBlobError):
        loads(_edit(jpeg_blob, **{field: value}))


@pytest.mark.parametrize(
    "shape,kwargs",
    [
        ((2, 3, 8, 8), dict(lorenzo_ndim=3)),
        ((2, 3, 8, 8), dict(lorenzo_ndim=1, zero_filter=False)),
        ((64,), dict(lorenzo_ndim=3)),  # the writer clamps to the tensor's axes
        ((5, 7), dict(mode="rel", entropy="zlib")),
        ((4, 4, 4), dict(dict_size=1 << 17, entropy="none")),  # uint32 codes
    ],
)
@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_every_writable_header_loads(shape, kwargs, dtype):
    x = _relu(shape).astype(dtype)
    x.reshape(-1)[0] = 1e4  # an outlier
    codec = SZCompressor(0.01, **kwargs)
    ct = codec.compress(x)
    back = loads(dumps(ct))
    assert (back.lorenzo_ndim, back.dtype, back.raw_codes_dtype) == (
        ct.lorenzo_ndim, ct.dtype, ct.raw_codes_dtype)
    np.testing.assert_array_equal(codec.decompress(back), codec.decompress(ct))


def test_jpeg_blob_decodes_with_its_own_quality():
    """A quality-90 blob decodes bit-equal through a quality-50 codec and
    through its own."""
    x = np.random.default_rng(0).standard_normal((2, 3, 16, 16)).astype(np.float32)
    own = get_codec("jpeg", quality=90)
    blob = dumps(own.compress(x))
    want = own.decompress(loads(blob))
    assert float(np.abs(want - x).max()) < 1.0
    for other in (get_codec("jpeg"), get_codec("jpeg", quality=50), get_codec("jpeg", quality=5)):
        np.testing.assert_array_equal(other.decompress(loads(blob)), want)
