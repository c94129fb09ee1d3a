"""Codebook-cache contract suite: the amortized entropy stage.

The cache is a pure performance mechanism — every test here pins down
the ways it must NOT change semantics: the error bound holds under
arbitrarily stale books (escape demotion), rebuild triggers fire on
drift (δ) and on schedule (K), concurrent use from several threads is
safe, and every blob owns and serializes its own book (nbytes
byte-exact vs ``dumps``).  The cache's settings are module constants;
a test that needs others patches them (the ``settings`` fixture of
``conftest.py``).
"""

import numpy as np
import pytest

from repro.compression import CodebookCache, SZCompressor
from repro.compression.registry import dumps, loads, wire_header_nbytes
from repro.compression.szlike.compressor import HEADER_BYTES
from repro.compression.szlike import dumps as sz_dumps
from repro.compression.szlike import codebook_cache
from repro.compression.szlike import loads as sz_loads

#: a refresh interval no test reaches
NEVER = 1 << 62


def make_cached(eb=1e-2):
    comp = SZCompressor(eb, entropy="huffman")
    return comp, comp.codebook_cache


def smoothish(rng, shape=(4, 4, 16, 16), scale=1.0):
    from scipy.ndimage import gaussian_filter

    x = gaussian_filter(rng.standard_normal(shape), sigma=(0, 0, 1.5, 1.5))
    return np.maximum(x * scale, 0).astype(np.float32)


class TestCacheLifecycle:
    def test_second_compress_reuses_book(self, rng):
        comp, cache = make_cached()
        x = smoothish(rng)
        ct1 = comp.compress(x, cache_key="l1")
        ct2 = comp.compress(x, cache_key="l1")
        assert cache.builds == 1 and cache.hits == 1
        # identical input + reused book -> identical bytes
        assert ct1.payload == ct2.payload
        assert ct1.codebook is ct2.codebook

    def test_keys_amortize_independently(self, rng):
        comp, cache = make_cached()
        x = smoothish(rng)
        comp.compress(x, cache_key="a")
        comp.compress(x * 0.5, cache_key="b")
        assert cache.builds == 2
        comp.compress(x, cache_key="a")
        assert cache.hits == 1

    def test_unkeyed_calls_build_fresh_books(self, rng):
        """Without a key nothing is cached: two tensors of one shape
        never share a book, and each blob carries its own."""
        comp, cache = make_cached()
        x = smoothish(rng)
        ct1, ct2 = comp.compress(x), comp.compress(x)
        assert (cache.builds, cache.hits, len(cache)) == (0, 0, 0)
        assert ct1.codebook is not ct2.codebook and ct1.payload == ct2.payload

    def test_only_the_huffman_stage_caches(self, rng):
        comp = SZCompressor(1e-2, entropy="zlib")
        assert isinstance(comp.codebook_cache, CodebookCache)
        ct = comp.compress(smoothish(rng), cache_key="ignored")
        assert ct.codebook is None and len(comp.codebook_cache) == 0

    def test_settings_are_module_constants(self):
        assert (
            codebook_cache.REFRESH_INTERVAL, codebook_cache.DELTA, codebook_cache.MAX_ESCAPE_RATIO
        ) == (64, 0.10, 0.02)

    def test_every_codec_has_its_own_cache(self):
        a, b = SZCompressor(1e-2), SZCompressor(1e-2)
        assert isinstance(a.codebook_cache, CodebookCache)
        assert a.codebook_cache is not b.codebook_cache


class TestErrorBoundUnderStaleness:
    """The acceptance contract: |x - roundtrip(x)| <= eb no matter how
    stale the cached book is."""

    @pytest.fixture(autouse=True)
    def stale_forever(self, settings):
        # delta=inf-ish and no refresh: the first book is reused forever
        settings(delta=1e9, refresh_interval=NEVER, max_escape_ratio=1.0)

    def test_bound_holds_with_forced_stale_book(self, rng):
        comp, cache = make_cached(eb=1e-2)
        x1 = smoothish(rng, scale=0.3)
        predictors = {comp.compress(x1, cache_key="l").lorenzo_ndim}
        for scale in (1.0, 3.0, 10.0):  # progressively worse mismatch
            x2 = smoothish(rng, scale=scale)
            ct = comp.compress(x2, cache_key="l")
            predictors.add(ct.lorenzo_ndim)
            y = comp.decompress(ct)
            ulp = float(np.spacing(np.float32(np.abs(x2).max())))
            assert np.abs(x2.astype(np.float64) - y).max() <= 1e-2 * (1 + 1e-6) + ulp
        # truly stale reuse: one book, never rebuilt, and the predictor
        # it was built for with it (the wider fields would stop paying
        # for Lorenzo, but a reused book's predictor is not re-priced)
        assert predictors == {2}
        assert cache.builds == len(predictors) and cache.rebuilds == 0

    def test_unseen_symbols_escape_to_outliers(self, rng):
        comp, cache = make_cached(eb=1e-2)
        x1 = smoothish(rng, scale=0.2)  # narrow residual range
        ct1 = comp.compress(x1, cache_key="l")
        x2 = x1.copy()
        x2[0, 0, :4, :4] += np.linspace(1.0, 5.0, 16).reshape(4, 4).astype(np.float32)
        ct2 = comp.compress(x2, cache_key="l")
        assert cache.hits == 1
        assert cache.escaped_symbols > 0
        assert ct2.outliers.size > ct1.outliers.size
        y = comp.decompress(ct2)
        ulp = float(np.spacing(np.float32(np.abs(x2).max())))
        assert np.abs(x2.astype(np.float64) - y).max() <= 1e-2 * (1 + 1e-6) + ulp

    def test_zero_preservation_survives_cache(self, rng):
        comp, _ = make_cached(eb=1e-2)
        x1 = smoothish(rng, scale=0.3)
        comp.compress(x1, cache_key="l")
        x2 = smoothish(rng, scale=2.0)
        y = comp.decompress(comp.compress(x2, cache_key="l"))
        assert np.all(y[x2 == 0] == 0)


class TestRebuildTriggers:
    def test_delta_trigger_rebuilds_on_frequency_flip(self, settings):
        """Same symbol support, inverted frequencies: every symbol still
        has a codeword (no escapes), but the cached lengths are badly
        mismatched — exactly the case the δ dot-product must catch."""
        settings(refresh_interval=NEVER)
        cache = CodebookCache()
        hist1 = np.zeros(16, dtype=np.int64)
        hist1[1:9] = [100_000, 30_000, 8_000, 2_000, 500, 120, 30, 8]
        book1, reused = cache.lookup("k", hist1)
        assert not reused
        hist2 = np.zeros(16, dtype=np.int64)
        hist2[1:9] = list(reversed([100_000, 30_000, 8_000, 2_000, 500, 120, 30, 8]))
        book2, reused = cache.lookup("k", hist2)
        assert not reused
        assert cache.rebuilds_delta == 1
        assert book2.lengths[8] < book1.lengths[8]  # now-frequent symbol got shorter
        # the rebuilt book is a hit on the new distribution
        _, reused = cache.lookup("k", hist2)
        assert reused and cache.hits == 1

    def test_fresh_distribution_is_never_stale(self, settings):
        """Gallager-bound fresh estimate: a book rebuilt on the exact
        distribution it sees must pass its own staleness check, even for
        highly skewed (sparse-activation-like) histograms."""
        settings(delta=0.05, refresh_interval=NEVER)
        cache = CodebookCache()
        hist = np.zeros(1024, dtype=np.int64)
        hist[512] = 900_000  # ReLU zeros dominate
        hist[500:512] = 1_000
        hist[513:525] = 1_000
        cache.lookup("k", hist)
        for _ in range(3):
            _, reused = cache.lookup("k", hist)
            assert reused
        assert cache.rebuilds == 0

    def test_drift_rebuilds_through_compress(self, rng, settings):
        settings(delta=0.02, refresh_interval=NEVER)
        comp, cache = make_cached(eb=1e-2)
        comp.compress(smoothish(rng, scale=0.2), cache_key="l")
        comp.compress(smoothish(rng, scale=30.0), cache_key="l")
        assert cache.rebuilds == 1  # δ or escape volume — either is drift

    def test_refresh_interval_rebuilds_on_schedule(self, rng, settings):
        settings(refresh_interval=2, delta=1e9)
        comp, cache = make_cached(eb=1e-2)
        x = smoothish(rng)
        for _ in range(5):
            comp.compress(x, cache_key="l")
        # build, hit, hit, refresh-rebuild, hit
        assert cache.builds == 1
        assert cache.rebuilds_refresh == 1
        assert cache.hits == 3

    def test_escape_volume_forces_rebuild(self, rng, settings):
        settings(delta=1e9, refresh_interval=NEVER, max_escape_ratio=0.001)
        comp, cache = make_cached(eb=1e-2)
        x1 = smoothish(rng, scale=0.2)
        comp.compress(x1, cache_key="l")
        x2 = smoothish(rng, scale=50.0)  # nearly everything unseen
        ct = comp.compress(x2, cache_key="l")
        assert cache.rebuilds_escape == 1
        y = comp.decompress(ct)
        ulp = float(np.spacing(np.float32(np.abs(x2).max())))
        assert np.abs(x2.astype(np.float64) - y).max() <= 1e-2 * (1 + 1e-6) + ulp


class TestAccountingWithCache:
    def test_nbytes_byte_exact_vs_dumps_with_cache(self, rng, settings):
        """The acceptance criterion: CompressedTensor.nbytes stays
        byte-exact against serialize.dumps when books come from the
        cache (including stale-reuse and escape cases)."""
        settings(delta=1e9, refresh_interval=NEVER, max_escape_ratio=1.0)
        comp, _ = make_cached(eb=1e-2)
        x1 = smoothish(rng, scale=0.2)
        x2 = smoothish(rng, scale=2.0)  # reused (stale) book + escapes
        for x in (x1, x2):
            ct = comp.compress(x, cache_key="l")
            blob = sz_dumps(ct)
            assert ct.nbytes == len(blob) - wire_header_nbytes(blob) + HEADER_BYTES
            y1 = comp.decompress(ct)
            y2 = comp.decompress(sz_loads(blob))
            np.testing.assert_array_equal(y1, y2)


class TestBlobBooks:
    """One book per key, amortized across calls; thread safety; each
    blob's book serialized with it."""

    @pytest.fixture()
    def act(self, rng):
        return smoothish(rng, shape=(8, 4, 24, 24))

    def test_keyed_calls_decode_to_the_uncached_values(self, act):
        """A built book and a reused one change bytes, never values."""
        comp, cache = make_cached(eb=1e-2)
        plain = SZCompressor(1e-2, entropy="huffman")
        for scale in (1.0, 1.1):
            x = act * scale
            y = comp.decompress(comp.compress(x, cache_key="layer0"))
            np.testing.assert_array_equal(y, plain.decompress(plain.compress(x)))
            assert np.abs(x.astype(np.float64) - y).max() <= 1e-2 * (1 + 1e-6)
        assert (cache.builds, cache.hits) == (1, 1)

    def test_cross_iteration_cache_per_key(self, act):
        """Each key amortizes on its own: one build per key, then one hit
        per key."""
        comp, cache = make_cached(eb=1e-2)
        for _ in range(2):
            for key in ("layer0", "layer1"):
                comp.compress(act, cache_key=key)
        assert cache.builds == 2
        assert cache.hits == 2

    def test_thread_executor_concurrent_compress_safe(self, act):
        """Many concurrent compress calls against one cached compressor:
        no corruption, every result within the bound."""
        from concurrent.futures import ThreadPoolExecutor

        comp, _ = make_cached(eb=1e-2)
        tensors = [act * s for s in (0.5, 1.0, 1.5, 2.0)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            cts = list(pool.map(
                lambda xi: comp.compress(xi[1], cache_key=f"k{xi[0] % 2}"),
                enumerate(tensors),
            ))
        for x, ct in zip(tensors, cts):
            y = comp.decompress(ct)
            assert np.abs(x.astype(np.float64) - y).max() <= 1e-2 * (1 + 1e-6)

    def test_serialize_roundtrip_own_book(self, act):
        comp, _ = make_cached(eb=1e-2)
        for _ in range(2):  # a built book, then a reused one
            ct = comp.compress(act, cache_key="layer0")
            back = loads(dumps(ct))
            np.testing.assert_array_equal(back.codebook.lengths, ct.codebook.lengths)
            np.testing.assert_array_equal(comp.decompress(back), comp.decompress(ct))
            assert ct.nbytes == back.nbytes

    def test_blob_holds_its_book_and_nbytes_is_exact(self, act):
        """A blob ends in its own length table, and its nbytes stays
        byte-exact against its own serialization."""
        comp, _ = make_cached(eb=1e-2)
        for _ in range(2):
            ct = comp.compress(act, cache_key="layer0")
            blob = sz_dumps(ct)
            assert blob.endswith(ct.codebook.section())
            assert ct.codebook.nbytes < ct.codebook.lengths.size == 1024
            assert ct.nbytes == len(blob) - wire_header_nbytes(blob) + HEADER_BYTES

    def test_blob_decodes_without_the_cache(self, act):
        """A reused book travels with the blob: a codec that never saw
        the cache decodes it to the same values."""
        comp, cache = make_cached(eb=1e-2)
        comp.compress(act, cache_key="layer0")
        ct = comp.compress(act * 1.1, cache_key="layer0")
        assert cache.hits == 1
        lone = sz_loads(sz_dumps(ct))
        y = SZCompressor(1e-2, entropy="huffman").decompress(lone)
        np.testing.assert_array_equal(y, comp.decompress(ct))


class TestContextIntegration:
    def test_layer_keys_flow_from_saved_tensor_path(self, rng):
        """CompressingContext passes layer names as cache keys, so each
        conv layer amortizes its codebook independently."""
        from repro.api import AdaptiveSpec
        from repro.core import CompressingContext
        from repro.nn import Conv2D

        comp, cache = make_cached(eb=1e-2)
        ctx = CompressingContext(comp, adaptive=AdaptiveSpec())
        convs = [Conv2D(3, 2, 3, rng=i + 1, name=f"conv{i}") for i in range(2)]
        # A stable activation stream (the amortization premise); evolving
        # streams and their rebuild triggers are covered above and by
        # benchmarks/bench_hotpath.py at realistic scale.
        x = smoothish(rng, shape=(2, 3, 16, 16))
        for _ in range(3):
            handles = [ctx.pack(c, "x", x) for c in convs]
            for c, h in zip(reversed(convs), reversed(handles)):
                ctx.unpack(c, "x", h)
        assert cache.builds == 2  # one per layer
        assert cache.hits == 4  # two further iterations each
        assert len(cache) == 2

    def test_cache_decisions_identical_in_and_out_of_core(self):
        """Per-layer keys make cache decisions depend only on each layer's
        pack sequence: serialized arena storage reconstructs the same
        arrays and the cache takes the same build/hit path."""
        from repro.api import AdaptiveSpec
        from repro.core import ByteArena, CompressingContext
        from repro.nn import Conv2D

        results = []
        for storage in (None, ByteArena(budget_bytes=0)):
            comp, cache = make_cached(eb=1e-2)
            ctx = CompressingContext(comp, storage=storage, adaptive=AdaptiveSpec())
            convs = [Conv2D(3, 2, 3, rng=i + 1, name=f"c{i}") for i in range(3)]
            xs = [
                smoothish(rng=np.random.default_rng(100 + i), shape=(2, 3, 16, 16))
                for i in range(3)
            ]
            outs = []
            for _ in range(3):
                handles = [ctx.pack(c, "x", x) for c, x in zip(convs, xs)]
                outs.extend(
                    ctx.unpack(c, "x", h)
                    for c, h in zip(reversed(convs), reversed(handles))
                )
            if storage is not None:
                assert storage.spill_count == 9 and len(storage) == 0
                storage.close()
            results.append((outs, cache.builds, cache.hits))
        (outs_a, *counts_a), (outs_b, *counts_b) = results
        for a, b in zip(outs_a, outs_b):
            np.testing.assert_array_equal(a, b)
        assert counts_a == counts_b and counts_a[1] > 0
