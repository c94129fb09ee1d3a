"""The library surface ``benchmarks/e2e`` drives, pinned in tier-1.

The end-to-end benchmark may not be edited by a change that claims a
gain, and it reaches into the library by name and by positional
argument.  Everything it imports, unpacks, calls or reads is exercised
here with exactly that shape, so a signature drift fails this file
instead of the benchmark run.
"""

from __future__ import annotations

import os
import threading
from contextlib import ExitStack

import numpy as np

from repro.utils import profiler
from repro.utils.scratch import ScratchPool


E2E_CONFIGS = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "e2e", "configs"
)


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
    stats = codec.codebook_cache.stats()
    assert {"hits", "builds"} <= set(stats) and any(k.startswith("rebuilds_") for k in stats)
    assert {"auto_fallbacks", "runtime_fallbacks"} <= set(kernel_stats())


def _e2e_session(config: str, batch: int):
    """A session from a committed benchmark config, on a small VGG."""
    from repro.api import SessionConfig, build_session
    from repro.models.registry import build_scaled_model

    net = build_scaled_model(
        "vgg16", num_classes=8, image_size=16, batch=batch, rng=np.random.default_rng(7)
    )
    return build_session(net, SessionConfig.from_json(os.path.join(E2E_CONFIGS, config)))


def test_out_of_core_session_is_inline_and_matches_in_memory():
    """``train_ooc.json`` (still naming the removed engine's keys) builds
    a session that starts no thread, exposes the three engine calls the
    trace wraps and the pack counter it reads, and trains bit-identically
    to ``train_sz.json``."""
    from repro.nn import SyntheticImageDataset, batches

    dataset = SyntheticImageDataset(num_classes=8, image_size=16, seed=4)
    losses = {}
    for config in ("train_ooc.json", "train_sz.json"):
        threads = threading.active_count()
        with _e2e_session(config, batch=8) as session:
            for attr in ("submit_pack", "obtain", "flush"):
                assert callable(getattr(session.engine, attr))
            losses[config] = [
                session.train_step(*b).loss for b in batches(dataset, 8, 3, seed=1)
            ]
            assert threading.active_count() == threads
            # core.engine.* is on train_ooc's path only: arena packs count
            out_of_core = config == "train_ooc.json"
            assert (session.engine.packs_submitted > 0) == out_of_core
            if out_of_core:
                assert session.param_store.storage.spill_count > 0
    assert losses["train_ooc.json"] == losses["train_sz.json"]
