"""Cross-iteration Huffman codebook caching (the amortized entropy stage).

cuSZ (Tian et al. 2020) treats Huffman codebook construction as an
amortizable *setup* cost: activation code distributions are stable
across adjacent training iterations, so a codebook built at step *t* is
near-optimal at step *t+1*.  Our canonical builder is a GIL-bound
Python two-queue loop
(:func:`~repro.compression.szlike.huffman._huffman_lengths`).  Reusing
the book across steps removes it from the steady-state path.  The dense
decode tables are not kept with the book: each decode call builds them
in the workspace (~0.1 ms for a 16-bit book), which costs less than
holding 192 KiB a layer for the life of the run.

:class:`CodebookCache` keeps one canonical codebook per *tensor key*
(the saved-tensor path passes the layer name, so each conv layer
amortizes independently).  Every lookup hands in the fresh symbol
histogram (the single ``bincount`` the compress call already produces)
and the cache decides, cheaply, whether the cached book is still good:

* **Staleness (δ) check** — the exact cost of coding the new data with
  the cached book is one dot product, ``hist · lengths`` (unseen
  symbols priced at the escape cost below).  A fresh book's cost is
  estimated, without building it, by Gallager's (1978) upper bound on
  Huffman redundancy, ``max(H + (p1 + 0.086)·n, n)`` (``H`` the Shannon
  bits of the histogram, ``p1`` its most frequent symbol's share, ``n``
  its count; canonical Huffman spends at least one bit per symbol).
  When the cached cost exceeds that estimate by more than
  :data:`DELTA`, rebuild.  Being an upper bound, the estimate lets a
  reused book cost more than ``1 + DELTA`` times a fresh book's bits.
* **Refresh interval** — rebuild unconditionally every
  :data:`REFRESH_INTERVAL` uses, a drift backstop independent of δ.
* **Correctness escape** — symbols with *no codeword* under the cached
  book cannot be encoded.  The compressor demotes them to the existing
  outlier channel (marker code 0, residual stored verbatim), so the
  error bound holds unconditionally; the cache only vets viability
  (the marker itself must have a codeword, and the escape volume must
  stay under :data:`MAX_ESCAPE_RATIO`) and otherwise forces a rebuild.

**The predictor is amortized with the book.**  An entry also records
the predictor (the codec's Lorenzo axis count, 0 for none) its book
was built to code, and a lookup under another predictor rebuilds.
Once a lookup has reused the book, :meth:`CodebookCache.predictor`
hands that predictor back, and the codec quantizes the key's next
tensor under it without pricing the alternative; it prices again only
on a key's first call and on the call after any (re)build.  The
predictor is a lossless transform of the grid indices, so this moves
bytes, never a decoded value or the error bound; in a drifting stream
the choice trails by at most one book lifetime (:data:`REFRESH_INTERVAL`
uses, or until the next staleness rebuild).  Living on the entry, the
predictor is locked and shared with its book.

Reuse decisions for a key depend only on that key's own lookup history,
so per-layer keys keep a run deterministic: each layer packs once per
iteration, in a fixed order.  An entry is never evicted: the keys come
from the saved-tensor context, one per compressible layer, so the cache
holds one entry per layer for as long as its codec lives.  All state is
behind one lock — a server's scheduler may run a tenant's steps on any
of its threads.

:class:`SharedCodebookCache` adds one in-memory :class:`CodebookTable`
that several caches publish to and adopt from: the tenants of one
:class:`~repro.server.server.SessionServer` amortize each other's
builds through it.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.compression.szlike.huffman import HuffmanCodebook, entropy_bits_from_hist

__all__ = ["CodebookCache", "CodebookTable", "SharedCodebookCache"]

#: accounting price of one escaped symbol, in bits: the marker codeword
#: is charged separately via ``lengths[0]``; the escaped residual itself
#: is stored verbatim as (at least) an int32 outlier
ESCAPE_BITS = 32

#: rebuild a key's codebook after this many reuses regardless of the
#: staleness check
REFRESH_INTERVAL = 64
#: staleness tolerance: rebuild when the cached book's actual bits on the
#: new histogram exceed the fresh-codebook estimate by more than this
#: fraction
DELTA = 0.10
#: ceiling on the fraction of symbols that may be demoted to the outlier
#: channel under a cached book; beyond it a rebuild is cheaper than the
#: escape traffic
MAX_ESCAPE_RATIO = 0.02


class _Entry:
    __slots__ = ("codebook", "predictor", "uses_since_build")

    def __init__(self, codebook: HuffmanCodebook, predictor: Optional[int]):
        self.codebook = codebook
        #: the predictor the book was built to code
        self.predictor = predictor
        self.uses_since_build = 0


class CodebookCache:
    """Per-key reuse of canonical Huffman codebooks across iterations,
    under the module's :data:`REFRESH_INTERVAL`, :data:`DELTA` and
    :data:`MAX_ESCAPE_RATIO`."""

    def __init__(self) -> None:
        self._entries: Dict[Hashable, _Entry] = {}
        self._lock = threading.Lock()
        # -- statistics ----------------------------------------------------
        self.hits = 0  # lookups served by the cached book
        self.builds = 0  # first-time builds (cold keys)
        self.rebuilds_delta = 0  # staleness check tripped
        self.rebuilds_refresh = 0  # periodic refresh tripped
        self.rebuilds_escape = 0  # escape path not viable
        self.rebuilds_predictor = 0  # looked up under another predictor
        self.escaped_symbols = 0  # symbols demoted under cached books
        from repro.core.sanitizer import maybe_instrument

        maybe_instrument(self, "codebook_cache")

    # -- internals ---------------------------------------------------------
    @staticmethod
    def reserve_marker(hist: np.ndarray) -> np.ndarray:
        """Give the outlier marker (symbol 0) a codeword even when the
        build histogram has no outliers: a cached/shared book must be
        able to *escape* unseen symbols later, and the marker is the
        escape hatch.  Costs one pseudo-count (a near-zero bit price)."""
        if hist[0] == 0:
            hist = hist.copy()
            hist[0] = 1
        return hist

    def _install(self, key: Hashable, book: HuffmanCodebook, predictor: Optional[int]) -> None:
        """Store a freshly built book for *key* and the predictor it
        codes (callers hold the lock)."""
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = _Entry(book, predictor)
        else:
            entry.codebook = book
            entry.predictor = predictor
            entry.uses_since_build = 0

    def _stale_reason(self, entry: _Entry, hist: np.ndarray) -> Optional[str]:
        """Why the cached book must be rebuilt for *hist* (None = fresh
        enough; escapes, if any, are viable)."""
        if entry.uses_since_build >= REFRESH_INTERVAL:
            return "refresh"
        lengths = entry.codebook.lengths
        if lengths.size < hist.size:
            return "escape"  # alphabet grew; cached book cannot cover it
        lengths = lengths[: hist.size].astype(np.int64)
        covered = lengths > 0
        escaped = int(hist[~covered].sum())
        count = int(hist.sum())
        if escaped:
            # Demotion is only expressible through the outlier marker, and
            # only worthwhile in small volume.
            if lengths[0] == 0 or escaped > MAX_ESCAPE_RATIO * count:
                return "escape"
        actual_bits = float(np.dot(hist[covered].astype(np.float64), lengths[covered]))
        actual_bits += escaped * (int(lengths[0]) + ESCAPE_BITS)
        # What would a fresh book cost?  Without building it: Huffman's
        # redundancy over Shannon is at most p1 + 0.086 bits/symbol
        # (Gallager 1978, p1 = most-frequent-symbol probability), and
        # never below 1 bit/symbol.  Using the *upper* bound as the
        # fresh estimate makes the check reuse-friendly: a book rebuilt
        # on an identical distribution can never look stale.
        p1 = float(hist.max()) / count if count else 0.0
        fresh_est = max(
            entropy_bits_from_hist(hist) + (p1 + 0.086) * count, float(count)
        )
        if actual_bits > (1.0 + DELTA) * fresh_est:
            return "delta"
        return None

    # -- API ---------------------------------------------------------------
    def predictor(self, key: Hashable) -> Optional[int]:
        """The predictor *key*'s book codes, once the key's last lookup
        reused that book; None on a key's first call and on the call
        after any (re)build, when the caller prices the predictor
        afresh.  So a choice lives as long as its book."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.uses_since_build == 0:
                return None
            return entry.predictor

    def lookup(
        self, key: Hashable, hist: np.ndarray, predictor: Optional[int] = None
    ) -> Tuple[HuffmanCodebook, bool]:
        """Return ``(codebook, reused)`` for *key* given the fresh symbol
        histogram of codes under *predictor*.  ``reused`` is False when
        the book was (re)built this call — the caller must still demote
        any uncovered symbols to the outlier channel when ``reused`` is
        True.  A book built for another predictor is never reused.

        The expensive tree build runs *outside* the cache lock, so
        other keys' lookups never stall behind one key's rebuild.  A
        concurrent rebuild of the same key is last-writer-wins
        — each caller returns the book it built, both valid for their
        own histograms.
        """
        hist = np.asarray(hist)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.builds += 1
            else:
                if entry.predictor != predictor:
                    reason = "predictor"
                else:
                    reason = self._stale_reason(entry, hist)
                if reason is None:
                    entry.uses_since_build += 1
                    self.hits += 1
                    return entry.codebook, True
                if reason == "delta":
                    self.rebuilds_delta += 1
                elif reason == "refresh":
                    self.rebuilds_refresh += 1
                elif reason == "escape":
                    self.rebuilds_escape += 1
                else:
                    self.rebuilds_predictor += 1
        book = HuffmanCodebook.from_frequencies(self.reserve_marker(hist))
        with self._lock:
            self._install(key, book, predictor)
        return book, False

    def note_escapes(self, n: int) -> None:
        """Record *n* symbols demoted to the outlier channel under a
        cached book (called by the compressor after demotion)."""
        with self._lock:
            self.escaped_symbols += int(n)

    @property
    def rebuilds(self) -> int:
        with self._lock:
            return (
                self.rebuilds_delta + self.rebuilds_refresh + self.rebuilds_escape
                + self.rebuilds_predictor
            )

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "builds": self.builds,
                "rebuilds_delta": self.rebuilds_delta,
                "rebuilds_refresh": self.rebuilds_refresh,
                "rebuilds_escape": self.rebuilds_escape,
                "rebuilds_predictor": self.rebuilds_predictor,
                "escaped_symbols": self.escaped_symbols,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        # One snapshot under the (non-reentrant) lock; len(self) and the
        # rebuilds property would deadlock here, so read fields directly.
        with self._lock:
            entries = len(self._entries)
            hits = self.hits
            builds = self.builds
            rebuilds = (
                self.rebuilds_delta + self.rebuilds_refresh + self.rebuilds_escape
                + self.rebuilds_predictor
            )
        return (
            f"{type(self).__name__}(entries={entries}, hits={hits}, "
            f"builds={builds}, rebuilds={rebuilds})"
        )


class CodebookTable:
    """Published codebooks, ``{key: (lengths bytes, predictor, owner)}``,
    that a fleet of :class:`SharedCodebookCache` instances publish to and
    adopt from.

    A canonical book is fully determined by its length array, so a
    published entry costs one byte per alphabet symbol, plus the
    predictor the book codes.  A multi-tenant
    server owns one table; its tenants run on several scheduler
    threads, so every access goes through one lock.
    """

    def __init__(self) -> None:
        self._books: Dict[Hashable, Tuple[bytes, Optional[int], Optional[str]]] = {}
        self._lock = threading.Lock()
        from repro.core.sanitizer import maybe_instrument

        maybe_instrument(self, "codebook_cache")

    def get(self, key: Hashable) -> Optional[Tuple[bytes, Optional[int], Optional[str]]]:
        with self._lock:
            return self._books.get(key)

    def publish(
        self, key: Hashable, lengths: bytes, owner: Optional[str], predictor: Optional[int] = None
    ) -> None:
        """Record *key*'s book and the predictor it codes.  An unchanged
        book keeps its original publisher, so re-publishing never
        relabels the tenant that actually built it."""
        with self._lock:
            old = self._books.get(key)
            if old is None or old[:2] != (lengths, predictor):
                self._books[key] = (lengths, predictor, owner)

    def __len__(self) -> int:
        with self._lock:
            return len(self._books)


class SharedCodebookCache(CodebookCache):
    """A codebook cache that publishes to and adopts from a
    :class:`CodebookTable`.

    * **Publish** — whenever a lookup (re)builds a book, it is recorded
      in the table under this cache's ``owner``.  Hits never publish.
    * **Adopt** — a lookup for a locally unknown key first consults the
      table and installs the published book, with its predictor, via
      :meth:`HuffmanCodebook.from_lengths` — an O(alphabet) canonical
      reconstruction, no heap loop.  The adopted entry then flows
      through the ordinary predictor and staleness checks, so the
      refresh/δ/escape contract (and the unconditional outlier-escape
      bound) is unchanged.

    The two locks are never held together.
    """

    def __init__(self, table: CodebookTable, owner: Optional[str] = None):
        super().__init__()
        self.table = table
        #: participant label stamped on published books (a server sets
        #: the tenant name here); None publishes anonymously
        self.owner = owner
        # -- sharing statistics (guarded like the base counters) -----------
        self.shared_adoptions = 0  # entries adopted from the table
        self.publishes = 0  # books published to the table
        #: publisher label -> books adopted from that publisher; the
        #: multi-tenant amortization ledger ("who warmed whose cache").
        #: Anonymous publishers count under "<anonymous>".
        self.adoptions_from: Dict[str, int] = {}

    def _adopt(self, key: Hashable) -> None:
        """Install *key*'s published codebook from the table, if any."""
        published = self.table.get(key)
        if published is None:
            return
        lengths, predictor, publisher = published
        book = HuffmanCodebook.from_lengths(np.frombuffer(lengths, dtype=np.uint8).copy())
        publisher = publisher if publisher is not None else "<anonymous>"
        with self._lock:
            if key not in self._entries:
                self._install(key, book, predictor)
                self.shared_adoptions += 1
                self.adoptions_from[publisher] = self.adoptions_from.get(publisher, 0) + 1

    # -- API ---------------------------------------------------------------
    def lookup(
        self, key: Hashable, hist: np.ndarray, predictor: Optional[int] = None
    ) -> Tuple[HuffmanCodebook, bool]:
        with self._lock:
            known = key in self._entries
        if not known:
            self._adopt(key)
        book, reused = super().lookup(key, hist, predictor)
        if not reused:
            self.table.publish(key, book.lengths.tobytes(), self.owner, predictor)
            with self._lock:
                self.publishes += 1
        return book, reused

    def stats(self) -> dict:
        out = super().stats()
        with self._lock:
            out["owner"] = self.owner
            out["shared_adoptions"] = self.shared_adoptions
            out["publishes"] = self.publishes
            out["adoptions_from"] = dict(self.adoptions_from)
        return out
