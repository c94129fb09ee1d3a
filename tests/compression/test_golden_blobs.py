"""Format v2 is bytes, not behaviour: the committed golden blobs.

``golden/`` holds ``serialize.dumps`` bytes and reconstructions written
by ``golden/make_golden.py`` at the commit *before* the codec's hot path
moved to narrow dtypes.  Every backend must reproduce them byte for byte
and decode them bit for bit, so a change of format, chunk geometry or
arithmetic is a deliberate act (regenerate the files and say so), never
a side effect.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.compression.szlike import SZCompressor
from repro.compression.szlike.compressor import HEADER_BYTES
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


def test_every_case_has_its_files_and_no_strays():
    names = {p.stem for p in GOLDEN.iterdir() if p.suffix in (".blob", ".npy")}
    assert names == set(make_golden.CASES)


def test_wide_grid_case_needs_int64():
    """The one golden tensor whose grid indices overflow int32."""
    _, calls = make_golden.CASES["wide_grid_int64"]()
    x, eb = calls[-1]
    assert np.abs(x).max() / eb > 2**29
    assert np.abs(np.rint(x / (2 * eb))).max() * 4 >= 2**31
