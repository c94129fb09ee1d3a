"""The library surface ``benchmarks/e2e`` drives, pinned in tier-1.

The end-to-end benchmark may not be edited by a change that claims a
gain, and it reaches into the library by name and by positional
argument.  Everything it imports, unpacks, calls or reads is exercised
here with exactly that shape, so a signature drift fails this file
instead of the benchmark run.
"""

from __future__ import annotations

import inspect
from contextlib import ExitStack

import numpy as np

from repro.utils import profiler
from repro.utils.scratch import ScratchPool


def _activation():
    rng = np.random.default_rng(17)
    return np.maximum(rng.standard_normal((2, 4, 16, 16)), 0).astype(np.float32)


def test_kernel_throughput_probe_call_shapes():
    """``layers.kernel_throughputs``, call for call."""
    from repro.compression.registry import get_codec
    from repro.compression.szlike.huffman import DEFAULT_CHUNK, HuffmanCodebook, histogram
    from repro.kernels import get_backend

    assert isinstance(DEFAULT_CHUNK, int) and DEFAULT_CHUNK > 0
    codec = get_codec("szlike", error_bound=1e-3, entropy="huffman", codebook_cache=True)
    x, eb = _activation(), 1e-3
    backend = get_backend(codec.kernel_backend_selected)
    radius, ndim = codec.radius, min(codec.lorenzo_ndim, x.ndim)
    pool = ScratchPool()
    with ExitStack() as stack:
        codes, outliers, _ = backend.quantize_encode(x, eb, radius, ndim, pool, stack)
        codes = np.array(codes, copy=True)
        outliers = np.array(outliers, dtype=np.int64, copy=True)
    codes32 = codes.astype(np.uint32)
    q = backend.quantize_decode(codes32, outliers, radius, x.shape, ndim)
    assert backend.lorenzo_predict(q, ndim).shape == x.shape
    book = HuffmanCodebook.from_frequencies(histogram(codes, codec.dict_size))
    payload, total_bits, offsets = backend.huffman_pack_words(
        codes, book.lengths, book.codes, DEFAULT_CHUNK
    )
    tsym, tlen = book.decode_tables()
    decoded = backend.huffman_unpack_window(
        payload, total_bits, int(codes.size), tsym, tlen, book.max_length,
        offsets.astype(np.int64), DEFAULT_CHUNK,
    )
    np.testing.assert_array_equal(decoded, codes)
    assert isinstance(payload, bytes) and len(payload) == (total_bits + 7) // 8


def test_codec_attributes_stats_keys_and_stage_names():
    from repro.compression.registry import get_codec
    from repro.core import engine
    from repro.kernels import kernel_stats

    codec = get_codec("szlike", error_bound=1e-3, entropy="huffman", codebook_cache=True)
    assert codec.kernel_backend_selected in ("numpy", "numba")
    assert (codec.radius, codec.dict_size) == (512, 1024) and codec.lorenzo_ndim == 2
    x = _activation()
    with profiler.StageProfiler() as prof:
        ct = codec.compress(x, error_bound=1e-3, cache_key="layer0")
        y = codec.decompress(ct)
    assert np.abs(x - y).max() <= ct.error_bound * (1 + 1e-5)
    assert 0 < ct.nbytes < x.nbytes
    assert {"quantize", "predict", "encode", "decode"} <= set(prof.snapshot())
    assert 'profiler.stage("engine-wait")' in inspect.getsource(engine)
    stats = codec.codebook_cache.stats()
    assert {"hits", "builds"} <= set(stats) and any(k.startswith("rebuilds_") for k in stats)
    assert {"auto_fallbacks", "runtime_fallbacks"} <= set(kernel_stats())
