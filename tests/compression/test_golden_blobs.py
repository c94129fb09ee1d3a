"""Format v3 is bytes, not behaviour: the committed golden blobs.

``golden/`` holds ``serialize.dumps`` bytes written by
``golden/make_golden.py`` when the container became format v3, and
reconstructions written at the commit *before* the codec's hot path
moved to narrow dtypes.  Every backend must reproduce them byte for byte
and decode them bit for bit, so a change of format, chunk geometry or
arithmetic is a deliberate act (regenerate the files and say so), never
a side effect.  Format v3 was such an act on the container alone: the
Huffman bitstream of every case is the one its v2 blob carried.  The
per-tensor predictor choice was another, on the codes alone: eight cases
now store their grid indices unpredicted, and every reconstruction is
the one written before it.

The baseline codecs' formats are pinned beside them: the ``lossless``
and ``sparse-lossless`` blobs are re-encoded byte for byte, the ``jpeg``
blob only decoded (its forward DCT is scipy's, so its bytes are not this
repository's to pin).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.compression import registry
from repro.compression.szlike import SZCompressor
from repro.compression.szlike.compressor import HEADER_BYTES
from repro.compression.szlike.huffman import chunk_size_for, huffman_decode, huffman_encode
from repro.compression.szlike.serialize import dumps, loads, wire_header_nbytes
from repro.kernels import available_backends
from repro.kernels.backends import KernelBackend
from repro.kernels import numba_backend

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def _codec(backend: str, **options) -> SZCompressor:
    if backend != "python-loops":
        return SZCompressor(kernel_backend=backend, **options)
    codec = SZCompressor(kernel_backend="numpy", **options)
    fallbacks = []
    fns = numba_backend.make_kernel_functions(numba_backend.python_loops(), fallbacks.append)
    codec._kernels = KernelBackend(name="python-loops", **fns)
    codec.fallbacks = fallbacks
    return codec


@pytest.mark.parametrize("backend", [*available_backends(), "python-loops"])
@pytest.mark.parametrize("name", list(make_golden.CASES))
def test_golden_blob_reproduced_and_decoded(name, backend):
    want_blob = (GOLDEN / f"{name}.blob").read_bytes()
    want = np.load(GOLDEN / f"{name}.npy")
    codec, ct = make_golden.compress_case(name, lambda **kw: _codec(backend, **kw))
    blob = dumps(ct)
    assert blob == want_blob
    assert ct.nbytes == len(want_blob) - wire_header_nbytes(want_blob) + HEADER_BYTES
    got = codec.decompress(loads(want_blob))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros included
    assert getattr(codec, "fallbacks", []) == []  # the loops ran, not the reference


def _v2_chunk_size(count: int) -> int:
    """Format v2's geometry: smallest power of two >= sqrt(count) in [16, 256]."""
    return min(256, max(16, 1 << ((count - 1).bit_length() + 1) // 2))


HUFFMAN_CASES = [
    name for name, case in make_golden.CASES.items()
    if case()[0].get("entropy", "huffman") == "huffman"
]


@pytest.mark.parametrize("name", HUFFMAN_CASES)
def test_payload_section_is_the_bitstream_of_the_v2_geometry(name):
    """The container changed, the bitstream did not: a blob's payload
    section is what ``huffman_encode`` writes for its code stream at the
    parent format's chunk size, and the v3 chunk table samples that same
    stream four times as often."""
    ct = loads((GOLDEN / f"{name}.blob").read_bytes())
    codes = huffman_decode(ct.payload, ct.total_bits, ct.count, ct.codebook, ct.chunk_offsets)
    v2 = _v2_chunk_size(ct.count)
    payload, total_bits, offsets = huffman_encode(codes, ct.codebook, v2)
    assert (payload, total_bits) == (ct.payload, ct.total_bits)
    finer = v2 // chunk_size_for(ct.count)  # every v2 chunk start is a v3 chunk start
    assert finer == (1 if ct.count <= 4096 else v2 // 64)
    np.testing.assert_array_equal(ct.chunk_offsets[::finer], offsets)


@pytest.mark.parametrize("name", list(make_golden.BASELINE_CASES))
def test_baseline_golden_blob_decoded(name):
    key, options, x = make_golden.BASELINE_CASES[name]()
    want = np.load(GOLDEN / f"{name}.npy")
    codec = registry.get_codec(key, **options)
    got = codec.decompress(registry.loads((GOLDEN / f"{name}.blob").read_bytes()))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if codec.lossless:
        assert got.tobytes() == x.tobytes()


@pytest.mark.parametrize(
    "name", [n for n, case in make_golden.BASELINE_CASES.items() if case()[0] != "jpeg"]
)
def test_lossless_golden_blob_reproduced(name):
    key, options, x = make_golden.BASELINE_CASES[name]()
    blob = registry.dumps(registry.get_codec(key, **options).compress(x))
    assert blob == (GOLDEN / f"{name}.blob").read_bytes()


def test_every_case_has_its_files_and_no_strays():
    names = {p.stem for p in GOLDEN.iterdir() if p.suffix in (".blob", ".npy")}
    assert names == set(make_golden.CASES) | set(make_golden.BASELINE_CASES)


def test_wide_grid_case_needs_int64():
    """The one golden tensor whose grid indices overflow int32."""
    _, calls = make_golden.CASES["wide_grid_int64"]()
    x, eb = calls[-1]
    assert np.abs(x).max() / eb > 2**29
    assert np.abs(np.rint(x / (2 * eb))).max() * 4 >= 2**31


def test_white_noise_is_stored_unpredicted_and_a_smooth_field_is_predicted():
    """The choice on the committed blobs: the post-ReLU and dense noise
    cases record no prediction; the integrated-noise field and the
    constant keep 2-D Lorenzo, where it saves bits; a tie (all zeros,
    one element, a grid where every value is an outlier either way)
    keeps Lorenzo too."""
    ndims = {
        name: loads((GOLDEN / f"{name}.blob").read_bytes()).lorenzo_ndim
        for name in make_golden.CASES
    }
    assert {name for name, ndim in ndims.items() if ndim} == {
        "smooth_f32_lorenzo", "constant", "all_zero", "one_element", "wide_grid_int64"
    }
    assert all(ndims[f"relu_f32_{n}x{n}"] == 0 for n in (8, 16, 32))
