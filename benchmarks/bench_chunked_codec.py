"""Chunked parallel compression: wall-clock win on the pack/unpack path.

The compressing context sits on the hot path of every training
iteration — each conv activation is compressed on forward and
decompressed on backward.  :class:`ChunkedCodec` splits the activation
along the batch axis and runs the chunks through a thread pool (zlib and
the vectorized NumPy stages release the GIL); each worker count is
measured here against the single-threaded path.  Every chunk is a
self-contained blob — a Huffman chunk builds and carries its own
codebook — so the parallel rows pay one codebook build and one codebook
section per chunk, and the compression ratio they report includes them.

Set ``REPRO_BENCH_QUICK=1`` for a CI-scale smoke run (smaller tensor,
fewer repeats, no speedup assertion — containers may have one core).
"""

import os
import time

import numpy as np
import pytest

from _common import metric, smooth_activation, write_bench_json, write_report
from repro.compression import ChunkedCodec, get_codec

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))
#: VGG-16 conv3-class activation at batch 32 (the acceptance tensor)
SHAPE = (8, 16, 28, 28) if QUICK else (32, 64, 56, 56)
REPEATS = 1 if QUICK else 3
MIN_CHUNK = 1 << 14 if QUICK else 1 << 20
WORKER_COUNTS = (2, 4) if QUICK else (2, 4, 8)


@pytest.fixture(scope="module")
def act():
    rng = np.random.default_rng(4)
    return smooth_activation(rng, SHAPE, sigma=1.2, relu=True)


def _best_of(fn, repeats=REPEATS):
    """Best-of-N wall clock (noise-robust) plus the last return value."""
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_chunked_codec_beats_single_thread(act, benchmark):
    def run():
        rows = []
        for entropy in ("zlib", "huffman"):
            sz = get_codec("szlike", error_bound=1e-3, entropy=entropy)
            variants = [("single", sz)] + [
                (f"chunked w={w}", ChunkedCodec(sz, workers=w, min_chunk_nbytes=MIN_CHUNK))
                for w in WORKER_COUNTS
            ]
            for label, codec in variants:
                codec.decompress(codec.compress(act))  # warm-up
                t_c, ct = _best_of(lambda c=codec: c.compress(act))
                t_d, y = _best_of(lambda c=codec, t=ct: c.decompress(t))
                assert y.shape == act.shape
                rows.append((entropy, label, t_c, t_d, ct.compression_ratio))
                if codec is not sz:
                    codec.close()
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    mb = act.nbytes / 1e6
    report = [
        f"Chunked parallel codec on {SHAPE} float32 ({mb:.1f} MB)"
        + (" [QUICK]" if QUICK else ""),
        f"{'entropy':8s} {'variant':14s} {'compress':>9s} {'decompress':>11s}"
        f" {'total':>8s} {'ratio':>6s}",
    ]
    totals = {}
    for entropy, label, t_c, t_d, ratio in rows:
        totals[(entropy, label)] = t_c + t_d
        report.append(
            f"{entropy:8s} {label:14s} {t_c:>8.3f}s {t_d:>10.3f}s"
            f" {t_c + t_d:>7.3f}s {ratio:>5.1f}x"
        )
    bench_metrics = {}
    for entropy in ("zlib", "huffman"):
        single = totals[(entropy, "single")]
        best_label, best = min(
            ((l, t) for (e, l), t in totals.items() if e == entropy and l != "single"),
            key=lambda kv: kv[1],
        )
        report.append(
            f"{entropy}: best parallel variant ({best_label}) is "
            f"{single / best:.2f}x the single-threaded throughput"
        )
        # Single-thread MB/s is the machine's codec baseline (gated,
        # wide band); the parallel speedup is the feature under guard.
        bench_metrics[f"{entropy}_single_mb_per_s"] = metric(
            # Quick mode measures a tiny tensor once: widen the band so
            # shared-runner scheduler noise cannot fail the gate.
            mb / single, "MB/s", gate=True, tolerance=0.25 if not QUICK else 0.60
        )
        bench_metrics[f"{entropy}_parallel_speedup"] = metric(single / best, "x")
        ratio = next(r for e, l, _, _, r in rows if e == entropy and l == "single")
        bench_metrics[f"{entropy}_compression_ratio"] = metric(
            ratio, "x", gate=True, tolerance=0.10
        )
    write_report("chunked_codec", report)
    write_bench_json(
        "chunked_codec", bench_metrics, context={"shape": list(SHAPE), "repeats": REPEATS}
    )

    if not QUICK and (os.cpu_count() or 1) >= 2:
        # The acceptance claim: some workers>1 configuration beats the
        # single-threaded path on the full-size tensor.  (Meaningless on
        # a single-core box — the report above is still written.)
        for entropy in ("zlib", "huffman"):
            single = totals[(entropy, "single")]
            best = min(t for (e, l), t in totals.items() if e == entropy and l != "single")
            assert best < single, f"no parallel win for entropy={entropy}"


def test_chunked_matches_unchunked_bytes(act):
    """Sanity alongside the timing: parallelism must not change results."""
    sz = get_codec("szlike", error_bound=1e-3, entropy="zlib")
    ck = ChunkedCodec(sz, workers=4, min_chunk_nbytes=MIN_CHUNK)
    np.testing.assert_array_equal(
        ck.decompress(ck.compress(act)), sz.decompress(sz.compress(act))
    )
