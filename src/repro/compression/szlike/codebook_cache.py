"""Cross-iteration Huffman codebook caching (the amortized entropy stage).

cuSZ (Tian et al. 2020) treats Huffman codebook construction as an
amortizable *setup* cost: activation code distributions are stable
across adjacent training iterations, so a codebook built at step *t* is
near-optimal at step *t+1*.  Our canonical builder is a Python heap loop
(:func:`~repro.compression.szlike.huffman._huffman_lengths`) — exactly
the GIL-bound stage the chunked codec's process pool exists for — and
the dense decode tables are another per-codebook build.  Reusing the
book across steps removes both from the steady-state path.

:class:`CodebookCache` keeps one canonical codebook per *tensor key*
(the saved-tensor path passes the layer name, so each conv layer
amortizes independently).  Every lookup hands in the fresh symbol
histogram (the single ``bincount`` the compress call already produces)
and the cache decides, cheaply, whether the cached book is still good:

* **Staleness (δ) check** — the exact cost of coding the new data with
  the cached book is one dot product, ``hist · lengths`` (unseen
  symbols priced at the escape cost below).  The best any fresh book
  could do is bounded below by ``max(shannon_bits(hist), count)``
  (canonical Huffman spends at least one bit per symbol).  When the
  cached cost exceeds that floor by more than ``delta``, rebuild.
* **Refresh interval** — rebuild unconditionally every
  ``refresh_interval`` uses, a drift backstop independent of δ.
* **Correctness escape** — symbols with *no codeword* under the cached
  book cannot be encoded.  The compressor demotes them to the existing
  outlier channel (marker code 0, residual stored verbatim), so the
  error bound holds unconditionally; the cache only vets viability
  (the marker itself must have a codeword, and the escape volume must
  stay under ``max_escape_ratio``) and otherwise forces a rebuild.

Reuse decisions for a key depend only on that key's own lookup history,
so per-layer keys keep a run deterministic: each layer packs once per
iteration, in a fixed order.  All state is behind one lock — the
chunked codec's thread workers share a single compressor instance.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from repro.compression.szlike.huffman import HuffmanCodebook, entropy_bits_from_hist

try:  # POSIX advisory file locking for the shared segment (see below)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = ["CodebookCache", "SharedCodebookCache"]

#: accounting price of one escaped symbol, in bits: the marker codeword
#: is charged separately via ``lengths[0]``; the escaped residual itself
#: is stored verbatim as (at least) an int32 outlier
ESCAPE_BITS = 32


class _Entry:
    __slots__ = ("codebook", "uses_since_build")

    def __init__(self, codebook: HuffmanCodebook):
        self.codebook = codebook
        self.uses_since_build = 0


class CodebookCache:
    """Per-key reuse of canonical Huffman codebooks across iterations.

    Parameters
    ----------
    refresh_interval:
        Rebuild a key's codebook after this many reuses regardless of
        the staleness check (``0`` disables the periodic refresh).
    delta:
        Staleness tolerance: rebuild when the cached book's actual
        bits on the new histogram exceed the fresh-codebook floor
        ``max(shannon_bits, count)`` by more than this fraction.
    max_escape_ratio:
        Ceiling on the fraction of symbols that may be demoted to the
        outlier channel under a cached book; beyond it a rebuild is
        cheaper than the escape traffic.
    max_entries:
        LRU capacity (one entry per tensor key).
    """

    def __init__(
        self,
        refresh_interval: int = 64,
        delta: float = 0.10,
        max_escape_ratio: float = 0.02,
        max_entries: int = 512,
    ):
        if refresh_interval < 0:
            raise ValueError(f"refresh_interval must be >= 0, got {refresh_interval}")
        if delta < 0:
            raise ValueError(f"delta must be >= 0, got {delta}")
        if not 0 <= max_escape_ratio <= 1:
            raise ValueError(f"max_escape_ratio must be in [0, 1], got {max_escape_ratio}")
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.refresh_interval = int(refresh_interval)
        self.delta = float(delta)
        self.max_escape_ratio = float(max_escape_ratio)
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        # -- statistics ----------------------------------------------------
        self.hits = 0  # lookups served by the cached book
        self.builds = 0  # first-time builds (cold keys)
        self.rebuilds_delta = 0  # staleness check tripped
        self.rebuilds_refresh = 0  # periodic refresh tripped
        self.rebuilds_escape = 0  # escape path not viable
        self.escaped_symbols = 0  # symbols demoted under cached books
        self.evictions = 0
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

    def _install(self, key: Hashable, book: HuffmanCodebook) -> None:
        """Store a freshly built book for *key* (callers hold the lock)."""
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = _Entry(book)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        else:
            entry.codebook = book
            entry.uses_since_build = 0

    def _stale_reason(self, entry: _Entry, hist: np.ndarray) -> Optional[str]:
        """Why the cached book must be rebuilt for *hist* (None = fresh
        enough; escapes, if any, are viable)."""
        if self.refresh_interval and entry.uses_since_build >= self.refresh_interval:
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
            if lengths[0] == 0 or escaped > self.max_escape_ratio * count:
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
        if actual_bits > (1.0 + self.delta) * fresh_est:
            return "delta"
        return None

    # -- API ---------------------------------------------------------------
    def lookup(self, key: Hashable, hist: np.ndarray) -> Tuple[HuffmanCodebook, bool]:
        """Return ``(codebook, reused)`` for *key* given the fresh symbol
        histogram.  ``reused`` is False when the book was (re)built this
        call — the caller must still demote any uncovered symbols to the
        outlier channel when ``reused`` is True.

        The expensive tree build runs *outside* the cache lock, so
        other keys' lookups never stall behind one key's rebuild (the
        chunked codec's pool threads share one cache).  A concurrent rebuild of the same key is last-writer-wins
        — each caller returns the book it built, both valid for their
        own histograms.
        """
        hist = np.asarray(hist)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.builds += 1
            else:
                self._entries.move_to_end(key)
                reason = self._stale_reason(entry, hist)
                if reason is None:
                    entry.uses_since_build += 1
                    self.hits += 1
                    return entry.codebook, True
                if reason == "delta":
                    self.rebuilds_delta += 1
                elif reason == "refresh":
                    self.rebuilds_refresh += 1
                else:
                    self.rebuilds_escape += 1
        book = HuffmanCodebook.from_frequencies(self.reserve_marker(hist))
        with self._lock:
            self._install(key, book)
        return book, False

    def note_escapes(self, n: int) -> None:
        """Record *n* symbols demoted to the outlier channel under a
        cached book (called by the compressor after demotion)."""
        with self._lock:
            self.escaped_symbols += int(n)

    def invalidate(self, key: Hashable = None) -> None:
        """Forget one key's codebook (or all of them)."""
        with self._lock:
            if key is None:
                self._entries.clear()
            else:
                self._entries.pop(key, None)

    @property
    def rebuilds(self) -> int:
        with self._lock:
            return self.rebuilds_delta + self.rebuilds_refresh + self.rebuilds_escape

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "builds": self.builds,
                "rebuilds_delta": self.rebuilds_delta,
                "rebuilds_refresh": self.rebuilds_refresh,
                "rebuilds_escape": self.rebuilds_escape,
                "escaped_symbols": self.escaped_symbols,
                "evictions": self.evictions,
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
            )
        return (
            f"CodebookCache(entries={entries}, hits={hits}, "
            f"builds={builds}, rebuilds={rebuilds})"
        )

    # Caches don't pickle their contents (the process-pool chunked codec
    # ships the inner compressor to workers; each worker re-warms its
    # own): state resets to empty, knobs survive.
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_entries"] = OrderedDict()
        state["_lock"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()
        from repro.core.sanitizer import maybe_instrument

        maybe_instrument(self, "codebook_cache")


class SharedCodebookCache(CodebookCache):
    """Cross-process codebook cache over a serialized-segment file.

    The plain :class:`CodebookCache` empties itself when pickled, so
    every ``ChunkedCodec(executor="process")`` worker used to rebuild
    canonical books from scratch — the exact amortization the cache
    exists to provide, lost at the process boundary.  This subclass
    backs the same API with one shared *segment*: a small file holding
    ``{key: lengths_bytes}`` for every published codebook (canonical
    books are fully determined by their length arrays, so the wire cost
    is one byte per alphabet symbol per key).

    * **Publish** — whenever a lookup (re)builds a book, the process's
      entries are merged into the segment under an exclusive
      ``fcntl.flock`` (read-merge-write, so concurrent publishers never
      lose each other's keys).  Hits never publish.
    * **Adopt** — a lookup for a locally unknown key first consults the
      segment (shared ``flock``) and installs the published book via
      :meth:`HuffmanCodebook.from_lengths` — an O(alphabet) canonical
      reconstruction, no heap loop.  The adopted entry then flows
      through the ordinary staleness checks, so the refresh/δ/escape
      contract (and the unconditional outlier-escape bound) is
      unchanged.
    * **Degrade** — every segment error (unreadable, unwritable,
      truncated) falls back to plain per-process caching and bumps
      ``segment_errors``; correctness never depends on the segment.

    Pickled copies (what process-pool workers receive) keep the segment
    path but never own the file; the creator removes it in
    :meth:`close`.  Determinism: publishes happen inside the worker's
    task, before its result returns, and the chunked codec's ``map`` is
    a barrier — so the set of published books visible at step *t+1* is a
    deterministic function of the work completed through step *t*.
    """

    def __init__(
        self,
        refresh_interval: int = 64,
        delta: float = 0.10,
        max_escape_ratio: float = 0.02,
        max_entries: int = 512,
        segment_path: Optional[str] = None,
        owner: Optional[str] = None,
    ):
        super().__init__(
            refresh_interval=refresh_interval,
            delta=delta,
            max_escape_ratio=max_escape_ratio,
            max_entries=max_entries,
        )
        if segment_path is None:
            fd, segment_path = tempfile.mkstemp(
                prefix="repro-codebooks-", suffix=".seg"
            )
            os.close(fd)
            self._owns_segment = True
        else:
            self._owns_segment = False
        self.segment_path = segment_path
        self._creator_pid = os.getpid()
        #: participant label stamped on published books (a server sets
        #: the tenant name here); None publishes anonymously
        self.owner = owner
        # -- shared-segment statistics (guarded like the base counters) ----
        self.shared_adoptions = 0  # entries adopted from the segment
        self.publishes = 0  # merges written to the segment
        self.segment_errors = 0  # degraded-to-local events
        #: publisher label -> books adopted from that publisher; the
        #: multi-tenant amortization ledger ("who warmed whose cache").
        #: Anonymous publishers count under "<anonymous>".
        self.adoptions_from: Dict[str, int] = {}

    @classmethod
    def from_cache(
        cls,
        cache: CodebookCache,
        segment_path: Optional[str] = None,
        owner: Optional[str] = None,
    ) -> "SharedCodebookCache":
        """A shared cache with the same staleness knobs as *cache*."""
        return cls(
            refresh_interval=cache.refresh_interval,
            delta=cache.delta,
            max_escape_ratio=cache.max_escape_ratio,
            max_entries=cache.max_entries,
            segment_path=segment_path,
            owner=owner,
        )

    # -- segment value format ----------------------------------------------
    # Entries are ``(lengths_bytes, owner)``; bare ``bytes`` values from
    # older segments are read as anonymously published.
    @staticmethod
    def _seg_lengths(value) -> Optional[bytes]:
        if isinstance(value, tuple):
            value = value[0]
        return value if isinstance(value, bytes) and value else None

    @staticmethod
    def _seg_owner(value) -> str:
        if isinstance(value, tuple) and isinstance(value[1], str):
            return value[1]
        return "<anonymous>"

    # -- segment I/O (never under self._lock: file waits must not stall
    # -- other keys' lookups, and the lock is non-reentrant) ---------------
    def _decode_segment(self, raw: bytes) -> Dict[Hashable, bytes]:
        if not raw:
            return {}
        try:
            doc = pickle.loads(raw)
        except Exception:
            with self._lock:
                self.segment_errors += 1
            return {}
        return doc if isinstance(doc, dict) else {}

    def _read_segment(self) -> Dict[Hashable, bytes]:
        try:
            with open(self.segment_path, "rb") as f:
                if fcntl is not None:
                    fcntl.flock(f.fileno(), fcntl.LOCK_SH)
                try:
                    raw = f.read()
                finally:
                    if fcntl is not None:
                        fcntl.flock(f.fileno(), fcntl.LOCK_UN)
        except OSError:
            with self._lock:
                self.segment_errors += 1
            return {}
        return self._decode_segment(raw)

    def _rewrite_segment(self, mutate: Callable[[Dict[Hashable, bytes]], None]) -> None:
        """Read-merge-write the segment under an exclusive file lock.

        In-place rewrite on the flocked fd keeps one stable inode for
        every locker; without ``fcntl`` (non-POSIX) a tmp-file
        ``os.replace`` keeps readers tear-free instead.
        """
        try:
            with open(self.segment_path, "a+b") as f:
                if fcntl is not None:
                    fcntl.flock(f.fileno(), fcntl.LOCK_EX)
                try:
                    f.seek(0)
                    merged = self._decode_segment(f.read())
                    mutate(merged)
                    payload = pickle.dumps(merged, protocol=pickle.HIGHEST_PROTOCOL)
                    if fcntl is not None:
                        f.seek(0)
                        f.truncate()
                        f.write(payload)
                        f.flush()
                    else:  # pragma: no cover - non-POSIX fallback
                        tmp = self.segment_path + ".tmp"
                        with open(tmp, "wb") as g:
                            g.write(payload)
                        os.replace(tmp, self.segment_path)
                finally:
                    if fcntl is not None:
                        fcntl.flock(f.fileno(), fcntl.LOCK_UN)
        except OSError:
            with self._lock:
                self.segment_errors += 1
            return
        with self._lock:
            self.publishes += 1

    def _adopt(self, key: Hashable) -> None:
        """Install *key*'s published codebook from the segment, if any."""
        value = self._read_segment().get(key)
        lengths = self._seg_lengths(value)
        if lengths is None:
            return
        book = HuffmanCodebook.from_lengths(
            np.frombuffer(lengths, dtype=np.uint8).copy()
        )
        publisher = self._seg_owner(value)
        with self._lock:
            if key not in self._entries:
                self._install(key, book)
                self.shared_adoptions += 1
                self.adoptions_from[publisher] = (
                    self.adoptions_from.get(publisher, 0) + 1
                )

    # -- API ---------------------------------------------------------------
    def lookup(self, key: Hashable, hist: np.ndarray) -> Tuple[HuffmanCodebook, bool]:
        with self._lock:
            known = key in self._entries
        if not known:
            self._adopt(key)
        book, reused = super().lookup(key, hist)
        if not reused:
            # Merge every local entry, not just this key: publishes heal
            # any update another process lost to a crash mid-run.
            with self._lock:
                local = {
                    k: (e.codebook.lengths.tobytes(), self.owner)
                    for k, e in self._entries.items()
                }

            def merge(merged):
                for k, v in local.items():
                    # An unchanged book keeps its original publisher, so
                    # re-merging an adopted entry never relabels the
                    # tenant that actually built it.
                    if self._seg_lengths(merged.get(k)) == v[0]:
                        continue
                    merged[k] = v

            self._rewrite_segment(merge)
        return book, reused

    def invalidate(self, key: Hashable = None) -> None:
        super().invalidate(key)
        if key is None:
            self._rewrite_segment(lambda merged: merged.clear())
        else:
            self._rewrite_segment(lambda merged: merged.pop(key, None))

    def stats(self) -> dict:
        out = super().stats()
        with self._lock:
            out["owner"] = self.owner
            out["shared_adoptions"] = self.shared_adoptions
            out["publishes"] = self.publishes
            out["segment_errors"] = self.segment_errors
            out["adoptions_from"] = dict(self.adoptions_from)
        return out

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Remove the owned segment file.  Pickled (worker-side) copies
        never own it, so worker teardown cannot yank the segment out
        from under the parent."""
        if self._owns_segment and os.getpid() == self._creator_pid:
            self._owns_segment = False
            try:
                os.remove(self.segment_path)
            except OSError:
                pass

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def __getstate__(self):
        state = super().__getstate__()
        state["_owns_segment"] = False
        # A pickled copy is a fresh participant (a pool worker): zero the
        # counters so worker-side stats measure worker activity only —
        # "builds == 0 in the worker" is the cross-process cache-hit
        # assertion the tests pin.
        for counter in (
            "hits",
            "builds",
            "rebuilds_delta",
            "rebuilds_refresh",
            "rebuilds_escape",
            "escaped_symbols",
            "evictions",
            "shared_adoptions",
            "publishes",
            "segment_errors",
        ):
            state[counter] = 0
        state["adoptions_from"] = {}
        return state

    def __repr__(self) -> str:
        with self._lock:
            entries = len(self._entries)
            adoptions = self.shared_adoptions
            publishes = self.publishes
        return (
            f"SharedCodebookCache(entries={entries}, "
            f"adoptions={adoptions}, publishes={publishes}, "
            f"segment={os.path.basename(self.segment_path)!r})"
        )
