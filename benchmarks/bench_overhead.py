"""Section 5.4: performance overhead decomposition across memory policies.

Regenerates the paper's overhead numbers: ~17% at the same batch size
(model-dependent; ~7% for VGG-16 when the saved memory funds a batch
increase), the Layrub migration comparison (2.4x memory at 24.1% cost),
plus codec throughput microbenchmarks on real activation tensors and a
*measured* resident-vs-out-of-core-parameters run on a VGG-scale conv
stack.

Set ``REPRO_BENCH_QUICK=1`` for a CI-scale smoke run of the measured
comparison (tiny model); the bit-identity assertions always run.
"""

import numpy as np
import pytest

from _common import (
    QUICK,
    RUN_BATCH,
    RUN_IMAGE,
    RUN_MODEL,
    group_summary_doc,
    metric,
    smooth_activation,
    timed_run,
    write_bench_json,
    write_report,
)
from repro.compression import (
    DeflateCompressor,
    JpegLikeCompressor,
    SparseLosslessCompressor,
    SZCompressor,
)
from repro.simulator import (
    BASELINE,
    MemoryPolicyModel,
    TrainingSimulator,
    V100,
    layrub_like,
    our_policy,
)


def recompute_policy():
    """Chen et al.-style recomputation: ~30% extra forward time, ~3x
    activation reduction (cheap layers only)."""
    return MemoryPolicyModel("recompute", ratio=3.0, recompute_fraction=0.30)


def test_overhead_policies_report(benchmark):
    def run():
        out = []
        for model in ("alexnet", "vgg16", "resnet50"):
            base = TrainingSimulator(model, V100, policy=BASELINE).simulate(32)
            for policy in (our_policy(11.0), layrub_like(), recompute_policy()):
                sim = TrainingSimulator(model, V100, policy=policy).simulate(32)
                out.append(
                    (model, policy.name, sim.iteration_s / base.iteration_s - 1,
                     base.stored_gb / sim.stored_gb)
                )
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        "Section 5.4 — per-policy overhead and memory reduction (batch 32)",
        f"{'model':10s} {'policy':10s} {'overhead':>9s} {'mem reduction':>14s}",
    ]
    for model, pol, ov, mem in results:
        rows.append(f"{model:10s} {pol:10s} {ov:>8.1%} {mem:>13.1f}x")
    vgg_ours = next(ov for m, p, ov, _ in results if m == "vgg16" and p == "ours")
    lay = [(m, ov, mem) for m, p, ov, mem in results if p == "layrub"]
    rows += [
        f"paper: ~17% overhead overall; 'as low as 7%' on VGG-16 "
        f"(ours: {vgg_ours:.1%})",
        f"paper: Layrub averages 2.4x memory at 24.1% overhead "
        f"(ours: {np.mean([ov for _, ov, _ in lay]):.1%} at ~{np.mean([m for _, _, m in lay]):.1f}x)",
        "note (paper, 5.4): 1x1-kernel-heavy nets pay relatively more —",
        "compare resnet50 (bottleneck 1x1s) vs vgg16 rows above.",
    ]
    write_report("sec54_overhead", rows)
    assert 0.0 < vgg_ours < 0.15


# -- resident vs out-of-core parameters, measured for real ----------------

RUN_ITERS = 2 if QUICK else 6


def test_out_of_core_report(benchmark):
    """Out-of-core parameters (a small, bounded budget forces the spill
    + JIT-rebind path) train bit-identically to resident parameters; the
    overhead is the recorded cost of full out-of-core training."""

    def run():
        return {
            "resident": timed_run(iters=RUN_ITERS),
            "params": timed_run(iters=RUN_ITERS, param_budget=64 << 10),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    t_res, losses_res, sess_res = results["resident"]
    t_oov, losses_oov, sess_oov = results["params"]

    # Contract before speed: out-of-core must be indistinguishable.
    np.testing.assert_array_equal(losses_res, losses_oov)
    assert sess_res.tracker.iteration_ratios == sess_oov.tracker.iteration_ratios
    assert sess_res.tracker._live_raw == 0 and sess_res.tracker._live_stored == 0
    ps = sess_oov.param_store
    oov_overhead = t_oov / t_res - 1 if t_res else 0.0
    ips = RUN_BATCH * RUN_ITERS
    rows = [
        f"Out-of-core parameters — {RUN_MODEL} (image {RUN_IMAGE}, "
        f"batch {RUN_BATCH}, {RUN_ITERS} iters)" + (" [QUICK]" if QUICK else ""),
        f"{'params':12s} {'wall clock':>11s} {'ratio':>7s}",
        f"{'resident':12s} {t_res:>10.3f}s {sess_res.tracker.overall_ratio:>6.1f}x",
        f"{'arena':12s} {t_oov:>10.3f}s {sess_oov.tracker.overall_ratio:>6.1f}x",
        f"out-of-core params: {oov_overhead:+.1%} overhead "
        f"({ps.storage.spill_count} spills, "
        f"peak materialized {ps.peak_materialized_nbytes >> 10} KiB)",
        "losses bit-identical, tracker byte-exact: yes (asserted)",
    ]
    write_report("out_of_core", rows)
    write_bench_json(
        "out_of_core",
        {
            "resident_wall_clock_s": metric(t_res, "s", higher_is_better=False),
            "out_of_core_wall_clock_s": metric(t_oov, "s", higher_is_better=False),
            # Wide band: the quick-mode run is tens of milliseconds, and
            # shared CI runners add scheduler noise well above 25%.
            "resident_images_per_s": metric(
                ips / t_res, "img/s", gate=True, tolerance=0.25 if not QUICK else 0.60
            ),
            "compression_ratio": metric(
                sess_res.tracker.overall_ratio, "x", gate=True, tolerance=0.10
            ),
            "param_store_overhead": metric(oov_overhead, "frac", higher_is_better=False),
        },
        context={
            "model": RUN_MODEL,
            "image": RUN_IMAGE,
            "batch": RUN_BATCH,
            "iters": RUN_ITERS,
            # Per-policy-group raw/stored accounting (empty when the
            # committed config has no policy rules — honest rather than
            # omitted, so a rule-ful config change shows up in the diff).
            "memory_groups": group_summary_doc(sess_res.tracker),
        },
    )
    assert ps.storage.spill_count > 0


@pytest.fixture(scope="module")
def act():
    rng = np.random.default_rng(4)
    return smooth_activation(rng, (8, 64, 56, 56), sigma=1.2, relu=True)


class TestCodecThroughput:
    """Microbenchmarks: the compute cost behind the overhead model."""

    def test_sz_huffman_compress(self, act, benchmark):
        comp = SZCompressor(1e-3, entropy="huffman")
        ct = benchmark(comp.compress, act)
        assert ct.compression_ratio > 4

    def test_sz_huffman_decompress(self, act, benchmark):
        comp = SZCompressor(1e-3, entropy="huffman")
        ct = comp.compress(act)
        out = benchmark(comp.decompress, ct)
        assert out.shape == act.shape

    def test_sz_zlib_compress(self, act, benchmark):
        comp = SZCompressor(1e-3, entropy="zlib")
        ct = benchmark(comp.compress, act)
        assert ct.compression_ratio > 3

    def test_jpeg_like_roundtrip(self, act, benchmark):
        codec = JpegLikeCompressor(quality=50)
        benchmark(codec.roundtrip, act)

    def test_lossless_sparse_compress(self, act, benchmark):
        codec = SparseLosslessCompressor()
        ct = benchmark(codec.compress, act)
        assert ct.compression_ratio > 1

    def test_lossless_deflate_compress(self, act, benchmark):
        codec = DeflateCompressor(level=1)
        benchmark(codec.compress, act)
