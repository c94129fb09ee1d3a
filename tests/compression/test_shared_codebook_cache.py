"""Shared codebook cache: publish to and adopt from one in-memory table.

``SharedCodebookCache`` lets several caches — the tenants of one
session server — adopt the canonical Huffman books the others already
built instead of rebuilding them.  Pinned here:

* cache B adopts (does not rebuild) a book cache A published, and the
  adopted book is bit-identical to A's;
* ``adoptions_from`` names the publisher, and re-publishing an
  unchanged book never relabels it;
* staleness refreshes propagate: B's rebuild is adopted by C;
* a codec publishes one entry per cache key and later hits it;
* threads sharing caches and a table lose no publish and no count;
* a sanitizer-instrumented run stays clean.
"""

import os
import subprocess
import sys
import threading

import numpy as np

from repro.compression import SZCompressor
from repro.compression.szlike import CodebookTable, SharedCodebookCache


def hist_for(seed, alphabet=256, scale=10_000):
    rng = np.random.default_rng(seed)
    return (rng.dirichlet(np.full(alphabet, 0.5)) * scale).astype(np.int64) + 1


def fleet(*owners):
    table = CodebookTable()
    return table, [SharedCodebookCache(table=table, owner=o) for o in owners]


class TestPublishAndAdopt:
    def test_adopts_the_published_book_bit_identically(self):
        table, (a, b) = fleet("a", "b")
        hist = hist_for(1)
        book_a, reused = a.lookup("k", hist)
        assert reused is False and a.stats()["publishes"] == 1 and len(table) == 1
        book_b, reused = b.lookup("k", hist)
        assert reused is True  # served by the adopted book
        stats = b.stats()
        assert stats["builds"] == 0 and stats["hits"] == 1
        assert stats["shared_adoptions"] == 1 and stats["publishes"] == 0
        np.testing.assert_array_equal(book_a.lengths, book_b.lengths)
        np.testing.assert_array_equal(book_a.codes, book_b.codes)

    def test_adoptions_from_names_the_publisher(self):
        table, (a, b, c) = fleet("a", "b", None)
        hist = hist_for(2)
        a.lookup("k", hist)
        b.lookup("k", hist)
        assert b.stats()["adoptions_from"] == {"a": 1}
        assert b.stats()["owner"] == "b"
        # b publishing the book it adopted keeps a as the publisher
        table.publish("k", table.get("k")[0], "b")
        c.lookup("k", hist)
        assert c.stats()["adoptions_from"] == {"a": 1}
        c.lookup("j", hist_for(3))
        d = SharedCodebookCache(table=table, owner="d")
        d.lookup("j", hist_for(3))
        assert d.stats()["adoptions_from"] == {"<anonymous>": 1}

    def test_refresh_propagates(self):
        """A cache whose histogram flunks the delta check rebuilds and
        republishes; the next cache adopts the refreshed book."""
        table, (a, b, c) = fleet("a", "b", "c")
        a.lookup("k", hist_for(3))
        shifted = hist_for(99) * 1000  # far off the published book
        book_b, reused = b.lookup("k", shifted)
        assert reused is False  # adopted, then stale against the new distribution
        assert b.stats()["rebuilds_delta"] == 1 and b.stats()["publishes"] == 1
        book_c, reused = c.lookup("k", shifted)
        assert reused is True  # adopted the *refreshed* book
        assert c.stats()["builds"] == 0 and c.stats()["adoptions_from"] == {"b": 1}
        np.testing.assert_array_equal(book_c.lengths, book_b.lengths)

    def test_compressor_adopts_through_its_cache(self):
        """Two codecs over one table: the second compresses a tensor the
        first already built a book for without building one."""
        table = CodebookTable()
        rng = np.random.default_rng(6)
        arr = np.maximum(rng.standard_normal((2, 4, 16, 16)), 0).astype(np.float32)
        codecs = [SZCompressor(1e-3, entropy="huffman") for _ in "ab"]
        for codec, owner in zip(codecs, "ab"):
            codec.codebook_cache = SharedCodebookCache(table, owner=owner)
        cts = [c.compress(arr, cache_key="l0") for c in codecs]
        assert codecs[1].codebook_cache.stats()["builds"] == 0
        assert codecs[1].codebook_cache.stats()["shared_adoptions"] == 1
        np.testing.assert_array_equal(codecs[0].decompress(cts[0]), codecs[1].decompress(cts[1]))

    def test_codec_publishes_one_entry_per_key(self):
        """Each cache key (one per layer in a session) builds, publishes
        and later hits on its own."""
        table = CodebookTable()
        codec = SZCompressor(1e-3, entropy="huffman")
        codec.codebook_cache = SharedCodebookCache(table, owner="a")
        cache = codec.codebook_cache
        rng = np.random.default_rng(7)
        arrs = {
            f"layer{i}": np.maximum(rng.standard_normal((4, 4, 16, 16)), 0).astype(np.float32)
            for i in range(3)
        }
        # a book is published under the key, with the predictor it codes
        for key, arr in arrs.items():
            ct = codec.compress(arr, cache_key=key)
            assert table.get(key)[:2] == (ct.codebook.lengths.tobytes(), ct.lorenzo_ndim)
        assert cache.stats()["publishes"] == cache.stats()["builds"] == len(arrs)
        for key, arr in arrs.items():
            ct = codec.compress(arr, cache_key=key)
            np.testing.assert_allclose(codec.decompress(ct), arr, atol=1e-3 * (1 + 1e-6))
        assert cache.stats()["hits"] == cache.stats()["publishes"] == len(arrs)


def test_many_threads_lose_no_publish_and_no_count():
    """Eight threads over two caches (four per cache) and one table, with a short switch interval: every
    lookup is counted once, every (re)build is published, and every key
    reaches the table."""
    table, caches = fleet("a", "b")
    keys, rounds = 6, 20

    def work(cache, seed):
        rng = np.random.default_rng(seed)
        for i in range(rounds):
            cache.lookup(f"k{i % keys}", hist_for(int(rng.integers(4))))

    threads = [threading.Thread(target=work, args=(caches[i % 2], i)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for cache in caches:
        s = cache.stats()
        rebuilds = s["rebuilds_delta"] + s["rebuilds_refresh"] + s["rebuilds_escape"]
        assert s["hits"] + s["builds"] + rebuilds == 4 * rounds
        assert s["publishes"] == s["builds"] + rebuilds
    assert len(table) == keys


class TestSanitizerClean:
    def test_instrumented_shared_cache_run_is_clean(self, tmp_path):
        """REPRO_SANITIZE=1: lock-order tracking on the caches and their
        table finds no cycles and no errors across publish/adopt traffic
        from several threads."""
        script = tmp_path / "run.py"
        script.write_text(
            "import threading\n"
            "import numpy as np\n"
            "from repro.core import sanitizer\n"
            "from repro.compression.szlike import CodebookTable, SharedCodebookCache\n"
            "table = CodebookTable()\n"
            "caches = [SharedCodebookCache(table=table, owner=str(i)) for i in range(3)]\n"
            "def work(cache, seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    for i in range(8):\n"
            "        hist = (rng.dirichlet(np.full(256, 0.5)) * 10000).astype(np.int64) + 1\n"
            "        cache.lookup(f'k{i % 3}', hist)\n"
            "threads = [threading.Thread(target=work, args=(c, i)) for i, c in enumerate(caches)]\n"
            "for t in threads:\n"
            "    t.start()\n"
            "for t in threads:\n"
            "    t.join()\n"
            "rep = sanitizer.report()\n"
            "assert rep['enabled'], rep\n"
            "assert rep['instrumented_objects'] >= 4, rep\n"
            "assert rep['lock_acquisitions'] > 0, rep\n"
        )
        env = dict(os.environ, REPRO_SANITIZE="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.path.dirname(__file__), "..", "..", "src"),
                env.get("PYTHONPATH", ""),
            ) if p
        )
        proc = subprocess.run(
            [sys.executable, str(script)], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
