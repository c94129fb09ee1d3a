"""Codebook-cache contract suite: the amortized entropy stage.

The cache is a pure performance mechanism — every test here pins down
the ways it must NOT change semantics: the error bound holds under
arbitrarily stale books (escape demotion), rebuild triggers fire on
drift (δ) and on schedule (K), concurrent use under the chunked codec's
executors is safe and deterministic, and shared-codebook references
serialize honestly (nbytes byte-exact vs ``dumps``).
"""

import numpy as np
import pytest

from repro.compression import ChunkedCodec, CodebookCache, SZCompressor
from repro.compression.registry import dumps, loads, wire_header_nbytes
from repro.compression.szlike.compressor import HEADER_BYTES
from repro.compression.szlike import dumps as sz_dumps
from repro.compression.szlike import loads as sz_loads


def make_cached(eb=1e-2, **cache_kwargs):
    cache = CodebookCache(**cache_kwargs)
    return SZCompressor(eb, entropy="huffman", codebook_cache=cache), cache


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

    def test_auto_key_without_cache_key(self, rng):
        comp, cache = make_cached()
        x = smoothish(rng)
        comp.compress(x)
        comp.compress(x)
        assert cache.builds == 1 and cache.hits == 1

    def test_cache_off_by_default(self, rng):
        comp = SZCompressor(1e-2, entropy="huffman")
        assert comp.codebook_cache is None
        ct = comp.compress(smoothish(rng), cache_key="ignored")
        assert ct.codebook is not None

    def test_eviction_bounded(self, rng):
        comp, cache = make_cached(max_entries=2)
        x = smoothish(rng, shape=(2, 2, 8, 8))
        for i in range(5):
            comp.compress(x, cache_key=f"k{i}")
        assert len(cache) == 2
        assert cache.evictions == 3

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            CodebookCache(refresh_interval=-1)
        with pytest.raises(ValueError):
            CodebookCache(delta=-0.1)
        with pytest.raises(ValueError):
            CodebookCache(max_escape_ratio=1.5)
        with pytest.raises(ValueError):
            CodebookCache(max_entries=0)

    def test_compressor_builds_default_cache_from_knobs(self):
        comp = SZCompressor(
            1e-2, entropy="huffman", codebook_cache=True,
            codebook_refresh=7, codebook_delta=0.25,
        )
        assert comp.codebook_cache.refresh_interval == 7
        assert comp.codebook_cache.delta == 0.25


class TestErrorBoundUnderStaleness:
    """The acceptance contract: |x - roundtrip(x)| <= eb no matter how
    stale the cached book is."""

    def test_bound_holds_with_forced_stale_book(self, rng):
        # delta=inf-ish and no refresh: the first book is reused forever
        comp, cache = make_cached(
            eb=1e-2, delta=1e9, refresh_interval=0, max_escape_ratio=1.0
        )
        x1 = smoothish(rng, scale=0.3)
        comp.compress(x1, cache_key="l")
        for scale in (1.0, 3.0, 10.0):  # progressively worse mismatch
            x2 = smoothish(rng, scale=scale)
            ct = comp.compress(x2, cache_key="l")
            y = comp.decompress(ct)
            ulp = float(np.spacing(np.float32(np.abs(x2).max())))
            assert np.abs(x2.astype(np.float64) - y).max() <= 1e-2 * (1 + 1e-6) + ulp
        assert cache.builds == 1 and cache.rebuilds == 0  # truly stale reuse

    def test_unseen_symbols_escape_to_outliers(self, rng):
        comp, cache = make_cached(
            eb=1e-2, delta=1e9, refresh_interval=0, max_escape_ratio=1.0
        )
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
        comp, _ = make_cached(eb=1e-2, delta=1e9, refresh_interval=0, max_escape_ratio=1.0)
        x1 = smoothish(rng, scale=0.3)
        comp.compress(x1, cache_key="l")
        x2 = smoothish(rng, scale=2.0)
        y = comp.decompress(comp.compress(x2, cache_key="l"))
        assert np.all(y[x2 == 0] == 0)


class TestRebuildTriggers:
    def test_delta_trigger_rebuilds_on_frequency_flip(self):
        """Same symbol support, inverted frequencies: every symbol still
        has a codeword (no escapes), but the cached lengths are badly
        mismatched — exactly the case the δ dot-product must catch."""
        cache = CodebookCache(delta=0.10, refresh_interval=0)
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

    def test_fresh_distribution_is_never_stale(self):
        """Gallager-bound fresh estimate: a book rebuilt on the exact
        distribution it sees must pass its own staleness check, even for
        highly skewed (sparse-activation-like) histograms."""
        cache = CodebookCache(delta=0.05, refresh_interval=0)
        hist = np.zeros(1024, dtype=np.int64)
        hist[512] = 900_000  # ReLU zeros dominate
        hist[500:512] = 1_000
        hist[513:525] = 1_000
        cache.lookup("k", hist)
        for _ in range(3):
            _, reused = cache.lookup("k", hist)
            assert reused
        assert cache.rebuilds == 0

    def test_drift_rebuilds_through_compress(self, rng):
        comp, cache = make_cached(eb=1e-2, delta=0.02, refresh_interval=0)
        comp.compress(smoothish(rng, scale=0.2), cache_key="l")
        comp.compress(smoothish(rng, scale=30.0), cache_key="l")
        assert cache.rebuilds == 1  # δ or escape volume — either is drift

    def test_refresh_interval_rebuilds_on_schedule(self, rng):
        comp, cache = make_cached(eb=1e-2, refresh_interval=2, delta=1e9)
        x = smoothish(rng)
        for _ in range(5):
            comp.compress(x, cache_key="l")
        # build, hit, hit, refresh-rebuild, hit
        assert cache.builds == 1
        assert cache.rebuilds_refresh == 1
        assert cache.hits == 3

    def test_escape_volume_forces_rebuild(self, rng):
        comp, cache = make_cached(
            eb=1e-2, delta=1e9, refresh_interval=0, max_escape_ratio=0.001
        )
        x1 = smoothish(rng, scale=0.2)
        comp.compress(x1, cache_key="l")
        x2 = smoothish(rng, scale=50.0)  # nearly everything unseen
        ct = comp.compress(x2, cache_key="l")
        assert cache.rebuilds_escape == 1
        y = comp.decompress(ct)
        ulp = float(np.spacing(np.float32(np.abs(x2).max())))
        assert np.abs(x2.astype(np.float64) - y).max() <= 1e-2 * (1 + 1e-6) + ulp


class TestAccountingWithCache:
    def test_nbytes_byte_exact_vs_dumps_with_cache(self, rng):
        """The acceptance criterion: CompressedTensor.nbytes stays
        byte-exact against serialize.dumps when books come from the
        cache (including stale-reuse and escape cases)."""
        comp, _ = make_cached(eb=1e-2, delta=1e9, refresh_interval=0, max_escape_ratio=1.0)
        x1 = smoothish(rng, scale=0.2)
        x2 = smoothish(rng, scale=2.0)  # reused (stale) book + escapes
        for x in (x1, x2):
            ct = comp.compress(x, cache_key="l")
            blob = sz_dumps(ct)
            assert ct.nbytes == len(blob) - wire_header_nbytes(blob) + HEADER_BYTES
            y1 = comp.decompress(ct)
            y2 = comp.decompress(sz_loads(blob))
            np.testing.assert_array_equal(y1, y2)


class TestChunkedSharing:
    """One shared book across chunks; thread/process safety; honest
    serialization of the shared reference."""

    @pytest.fixture()
    def act(self, rng):
        return smoothish(rng, shape=(8, 4, 24, 24))

    def test_chunks_share_one_codebook(self, act):
        ck = ChunkedCodec("szlike", workers=2, min_chunk_nbytes=1 << 12,
                          error_bound=1e-2, entropy="huffman")
        ct = ck.compress(act)
        assert len(ct.chunks) > 1
        assert ct.shared_codebook is not None
        books = {id(c.codebook) for c in ct.chunks}
        assert books == {id(ct.shared_codebook)}
        assert all(c.codebook_shared for c in ct.chunks)
        y = ck.decompress(ct)
        assert np.abs(act.astype(np.float64) - y).max() <= 1e-2 * (1 + 1e-6)

    def test_share_codebook_off_restores_per_chunk_builds(self, act):
        ck = ChunkedCodec("szlike", workers=2, min_chunk_nbytes=1 << 12,
                          error_bound=1e-2, entropy="huffman", share_codebook=False)
        ct = ck.compress(act)
        assert ct.shared_codebook is None
        assert not any(c.codebook_shared for c in ct.chunks)

    def test_cross_iteration_cache_through_chunked(self, act):
        inner = SZCompressor(1e-2, entropy="huffman", codebook_cache=True)
        ck = ChunkedCodec(inner, workers=2, min_chunk_nbytes=1 << 12)
        ck.compress(act, cache_key="layer0")
        ck.compress(act, cache_key="layer0")
        assert inner.codebook_cache.builds == 1
        assert inner.codebook_cache.hits == 1

    def test_thread_executor_concurrent_compress_safe(self, act):
        """Many concurrent compress calls against one cached compressor:
        no corruption, every result within the bound."""
        from concurrent.futures import ThreadPoolExecutor

        inner = SZCompressor(1e-2, entropy="huffman", codebook_cache=True)
        ck = ChunkedCodec(inner, workers=2, min_chunk_nbytes=1 << 12)
        tensors = [act * s for s in (0.5, 1.0, 1.5, 2.0)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            cts = list(pool.map(
                lambda xi: ck.compress(xi[1], cache_key=f"k{xi[0]}"),
                enumerate(tensors),
            ))
        for x, ct in zip(tensors, cts):
            y = ck.decompress(ct)
            assert np.abs(x.astype(np.float64) - y).max() <= 1e-2 * (1 + 1e-6)

    def test_process_executor_matches_threads_with_sharing(self, act):
        th = ChunkedCodec("szlike", workers=2, min_chunk_nbytes=1 << 12,
                          error_bound=1e-2, entropy="huffman")
        pr = ChunkedCodec("szlike", workers=2, min_chunk_nbytes=1 << 12,
                          error_bound=1e-2, entropy="huffman", executor="process")
        try:
            ct_t = th.compress(act)
            ct_p = pr.compress(act)
            assert ct_t.nbytes == ct_p.nbytes
            np.testing.assert_array_equal(th.decompress(ct_t), pr.decompress(ct_p))
        finally:
            th.close()
            pr.close()

    def test_serialize_roundtrip_shared_references(self, act):
        ck = ChunkedCodec("szlike", workers=2, min_chunk_nbytes=1 << 12,
                          error_bound=1e-2, entropy="huffman")
        ct = ck.compress(act)
        blob = dumps(ct)
        back = loads(blob)
        assert back.shared_codebook is not None
        np.testing.assert_array_equal(
            back.shared_codebook.lengths, ct.shared_codebook.lengths
        )
        # every shared chunk got the container book re-attached
        assert all(c.codebook is back.shared_codebook for c in back.chunks)
        np.testing.assert_array_equal(ck.decompress(back), ck.decompress(ct))
        # the container charges the shared book exactly once, byte-exactly
        assert ct.nbytes == back.nbytes

    def test_shared_chunk_blob_smaller_than_owned(self, act):
        """A shared-reference chunk blob must not contain the length
        table (that is the honest-accounting half of the contract), and
        its nbytes must stay byte-exact against its own serialization."""
        import dataclasses

        ck = ChunkedCodec("szlike", workers=2, min_chunk_nbytes=1 << 12,
                          error_bound=1e-2, entropy="huffman")
        ct = ck.compress(act)
        for c in ct.chunks:
            assert c.codebook_shared
            blob_ref = sz_dumps(c)
            # same chunk with an owned book: body grows by exactly the
            # deflated length table (header size differences are normalized away)
            blob_owned = sz_dumps(dataclasses.replace(c, codebook_shared=False))
            body_ref = len(blob_ref) - wire_header_nbytes(blob_ref)
            body_owned = len(blob_owned) - wire_header_nbytes(blob_owned)
            assert body_owned - body_ref == c.codebook.nbytes < c.codebook.lengths.size == 1024
            # nbytes parity holds for the reference form too
            assert c.nbytes == body_ref + HEADER_BYTES

    def test_detached_shared_chunk_fails_loudly(self, act):
        ck = ChunkedCodec("szlike", workers=2, min_chunk_nbytes=1 << 12,
                          error_bound=1e-2, entropy="huffman")
        ct = ck.compress(act)
        lone = sz_loads(sz_dumps(ct.chunks[1]))  # bookless reference
        assert lone.codebook is None and lone.codebook_shared
        with pytest.raises(ValueError, match="shared codebook"):
            SZCompressor(1e-2, entropy="huffman").decompress(lone)


class TestContextIntegration:
    def test_layer_keys_flow_from_saved_tensor_path(self, rng):
        """CompressingContext passes layer names as cache keys, so each
        conv layer amortizes its codebook independently."""
        from repro.core import CompressingContext
        from repro.nn import Conv2D

        comp, cache = make_cached(eb=1e-2)
        ctx = CompressingContext(comp)
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
        from repro.core import ByteArena, CompressingContext
        from repro.nn import Conv2D

        results = []
        for storage in (None, ByteArena(budget_bytes=0)):
            comp, cache = make_cached(eb=1e-2)
            ctx = CompressingContext(comp, storage=storage)
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
