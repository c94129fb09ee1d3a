"""Byte-arena activation storage: hold packed activations as real bytes.

:class:`ByteArena` stores packed activations as serialized byte strings
(``registry.dumps`` output) under an in-memory budget with FIFO
spill-to-disk overflow: backward consumes activations in reverse pack
order, so the first-packed bytes are the ones needed last.

Every operation is serialized behind an internal re-entrant lock, so an
:class:`ArenaPool` may spill a member arena from another tenant's thread
and a server's stats thread may read the counters while steps run.

Spilled entries share one append-only file per arena,
``<spill_dir>/<tag>.spill``, held open from the first spill to
:meth:`ByteArena.close` and indexed by ``(offset, nbytes)``: a spill is
one ``pwrite``, a read one ``pread``, and a cleaner deleting the file
takes no entry with it.  A discarded entry's bytes are dead space; the
file is truncated when nothing is left on disk and compacted when the
dead bytes outgrow the live ones.  A failed or short write cuts the file
back to its old end and leaves the entry in memory, and the ``put`` that
triggered it removes its own entry before re-raising, so no key is lost
or leaked.

Usage::

    arena = ByteArena(budget_bytes=32 << 20)
    ctx = CompressingContext(compressor, storage=arena, adaptive=AdaptiveSpec())
    # ... training ...
    print(arena.in_memory_nbytes, arena.spilled_nbytes, arena.spill_count)
"""

from __future__ import annotations

import contextlib
import errno
import os
import shutil
import tempfile
import threading
import uuid
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.utils import profiler

__all__ = ["ByteArena", "ArenaPool"]

#: dead spill-file bytes tolerated beyond the live ones before compaction
_COMPACT_SLACK = 4 << 20


class ByteArena:
    """Budgeted byte-string store with FIFO spill-to-disk overflow.

    Parameters
    ----------
    budget_bytes:
        In-memory ceiling.  ``None`` disables spilling (everything stays
        resident); ``0`` spills every entry immediately.
    spill_dir:
        Directory for the arena's spill file.  Defaults to a fresh
        temporary directory created lazily on first spill and removed by
        :meth:`close` (also invoked by ``__del__`` and context exit).
    """

    def __init__(self, budget_bytes: Optional[int] = 64 << 20, spill_dir: Optional[str] = None):
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError(f"budget_bytes must be >= 0 or None, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self._spill_dir = spill_dir
        self._owns_spill_dir = spill_dir is None
        #: key -> bytes, insertion-ordered (FIFO eviction)
        self._mem: "OrderedDict[int, bytes]" = OrderedDict()
        #: key -> (offset, nbytes) in the spill file for spilled entries
        self._disk: Dict[int, Tuple[int, int]] = {}
        #: the spill file (open from the first spill) and its append offset
        self._fd: Optional[int] = None
        self._spill_path: Optional[str] = None
        self._file_end = 0
        self._next_key = 0
        #: key -> group label for entries stored with ``put(group=...)``
        self._group_of: Dict[int, str] = {}
        #: group label -> resident bytes currently charged to the group
        self._group_mem: Dict[str, int] = {}
        #: group label -> bytes currently spilled out of the group
        self._group_spilled: Dict[str, int] = {}
        #: group label -> number of entries ever spilled from the group
        self._group_spill_count: Dict[str, int] = {}
        #: unique per-arena spill-file name so arenas sharing a
        #: spill_dir cannot clobber each other's entries
        self._tag = uuid.uuid4().hex[:12]
        self._closed = False
        #: serializes all mutation and read paths: a pool's rebalance
        #: spills this arena from another tenant's thread
        self._lock = threading.RLock()
        # -- statistics ---------------------------------------------------
        self.in_memory_nbytes = 0
        self.spilled_nbytes = 0
        self.peak_in_memory_nbytes = 0
        self.peak_total_nbytes = 0
        #: number of entries ever written to disk
        self.spill_count = 0
        from repro.core.sanitizer import maybe_instrument

        maybe_instrument(self, "arena")

    # -- sanitizer hooks ----------------------------------------------------
    #: ingests caller bytes on put(); the sanitizer swaps in ``bytearray``
    #: so released buffers can be poisoned in place
    _copy_in = staticmethod(bytes)

    def _on_release(self, buf) -> None:
        """Called with each buffer leaving the arena (discard/close);
        the sanitizer overrides this to NaN-poison the bytes."""

    # -- internals ----------------------------------------------------------
    def _spill_fd(self) -> int:
        """Open the spill file on first use (callers hold the lock)."""
        if self._fd is None:
            if self._spill_dir is None:
                self._spill_dir = tempfile.mkdtemp(prefix="repro-arena-")
            os.makedirs(self._spill_dir, exist_ok=True)
            self._spill_path = os.path.join(self._spill_dir, f"{self._tag}.spill")
            self._fd = os.open(self._spill_path, os.O_RDWR | os.O_CREAT, 0o600)
        return self._fd

    def _write_at(self, data: bytes, offset: int) -> None:
        """``pwrite`` all of *data* or raise (callers hold the lock)."""
        if os.pwrite(self._spill_fd(), data, offset) != len(data):
            raise OSError(errno.ENOSPC, "short write to the arena spill file")

    def _read_at(self, offset: int, nbytes: int) -> bytes:
        """``pread`` exactly *nbytes* or raise (callers hold the lock)."""
        data = os.pread(self._fd, nbytes, offset)
        if len(data) != nbytes:
            raise OSError(errno.EIO, "short read from the arena spill file")
        return data

    def _spill_entry(self, key: int) -> None:
        """Move the entry for *key* to disk (callers hold the lock).

        The bytes are appended first: if that fails, the file is cut
        back to its old end and the entry stays in memory."""
        data = self._mem[key]
        fd, offset = self._spill_fd(), self._file_end
        try:
            self._write_at(data, offset)
        except BaseException:
            with contextlib.suppress(OSError):
                os.ftruncate(fd, offset)
            raise
        self._file_end = offset + len(data)
        del self._mem[key]
        self._disk[key] = (offset, len(data))
        self.in_memory_nbytes -= len(data)
        self.spilled_nbytes += len(data)
        self.spill_count += 1
        group = self._group_of.get(key)
        if group is not None:
            self._group_mem[group] -= len(data)
            self._group_spilled[group] = self._group_spilled.get(group, 0) + len(data)
            self._group_spill_count[group] = self._group_spill_count.get(group, 0) + 1

    def _maybe_spill(self) -> None:
        """Spill oldest-first until under the budget (callers hold the
        lock)."""
        if self.budget_bytes is None:
            return
        while self._mem and self.in_memory_nbytes > self.budget_bytes:
            self._spill_entry(next(iter(self._mem)))

    def _track_peaks(self) -> None:
        """Update resident high-water marks (callers hold the lock)."""
        self.peak_in_memory_nbytes = max(self.peak_in_memory_nbytes, self.in_memory_nbytes)
        self.peak_total_nbytes = max(self.peak_total_nbytes, self.total_nbytes)

    # -- API ---------------------------------------------------------------
    def put(self, data: bytes, group: Optional[str] = None) -> int:
        """Store *data*; returns the key for :meth:`get`/:meth:`pop`.

        *group* tags the entry for the per-group residency and spill
        rows of :meth:`group_stats`.  Every entry, tagged or not, is
        subject to the one arena-wide budget."""
        with profiler.stage("arena-io"), self._lock:
            if self._closed:
                raise RuntimeError("arena is closed")
            key = self._next_key
            self._next_key += 1
            blob = self._copy_in(data)
            self._mem[key] = blob
            self.in_memory_nbytes += len(blob)
            if group is not None:
                self._group_of[key] = group
                self._group_mem[group] = self._group_mem.get(group, 0) + len(blob)
            # Peaks reflect the true resident high-water mark: the new entry
            # is held in memory before any spill relieves the budget.
            self._track_peaks()
            try:
                self._maybe_spill()
            except BaseException:
                self._remove(key)  # no caller will ever hold this key
                raise
            return key

    def group_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-group accounting for every group ever tagged by
        ``put(group=...)``: resident bytes, spilled bytes, and
        cumulative spill count."""
        with self._lock:
            groups = set(self._group_mem) | set(self._group_spilled)
            return {
                group: {
                    "in_memory_nbytes": self._group_mem.get(group, 0),
                    "spilled_nbytes": self._group_spilled.get(group, 0),
                    "spill_count": self._group_spill_count.get(group, 0),
                }
                for group in sorted(groups)
            }

    def get(self, key: int) -> bytes:
        """Read the bytes for *key* without releasing the entry."""
        with self._lock:
            if key in self._mem:
                return self._mem[key]
            try:
                offset, nbytes = self._disk[key]
            except KeyError:
                raise KeyError(f"arena key {key} not found") from None
            with profiler.stage("arena-io"):
                return self._read_at(offset, nbytes)

    def spill_bytes(self, nbytes: int) -> int:
        """Force FIFO-oldest resident entries to disk until at least
        *nbytes* have spilled (or nothing resident remains); returns the
        bytes actually spilled.  The cross-tenant pressure valve an
        :class:`ArenaPool` turns when the *pool* budget — not this
        arena's own — is exceeded."""
        spilled = 0
        with profiler.stage("arena-io"), self._lock:
            if self._closed:
                return 0
            while self._mem and spilled < nbytes:
                key = next(iter(self._mem))
                size = len(self._mem[key])
                self._spill_entry(key)
                spilled += size
        return spilled

    def pop(self, key: int) -> bytes:
        """Read and release the entry.

        The caller owns *key* (concurrent pops of the same key are a
        caller bug), so the read and the release need not be atomic."""
        data = self.get(key)
        self.discard(key)
        return data

    def discard(self, key: int) -> None:
        """Release the entry without reading it; unknown keys are a no-op."""
        with self._lock:
            self._remove(key)

    def _remove(self, key: int) -> None:
        """Drop *key* from memory or disk (callers hold the lock)."""
        group = self._group_of.pop(key, None)
        if key in self._mem:
            buf = self._mem.pop(key)
            self.in_memory_nbytes -= len(buf)
            if group is not None:
                self._group_mem[group] -= len(buf)
            self._on_release(buf)
            return
        entry = self._disk.pop(key, None)
        if entry is None:
            return
        self.spilled_nbytes -= entry[1]
        if group is not None:
            self._group_spilled[group] -= entry[1]
        if not self._disk:  # else its bytes are now dead space
            os.ftruncate(self._fd, 0)
            self._file_end = 0
        elif self._file_end - self.spilled_nbytes > max(self.spilled_nbytes, _COMPACT_SLACK):
            self._compact()

    def _compact(self) -> None:
        """Move spilled entries toward the front of the file and cut the
        tail (callers hold the lock).  An entry moves only into dead
        bytes, and its index only after a complete write, so a failure
        leaves every entry readable."""
        end = 0
        for key, (offset, nbytes) in sorted(self._disk.items(), key=lambda kv: kv[1][0]):
            if offset - end >= nbytes:
                self._write_at(self._read_at(offset, nbytes), end)
                self._disk[key] = (end, nbytes)
                offset = end
            end = offset + nbytes
        os.ftruncate(self._fd, end)
        self._file_end = end

    def __contains__(self, key: int) -> bool:
        with self._lock:
            return key in self._mem or key in self._disk

    def __len__(self) -> int:
        with self._lock:
            return len(self._mem) + len(self._disk)

    @property
    def total_nbytes(self) -> int:
        """Live bytes across memory and disk."""
        with self._lock:  # re-entrant: also read from _track_peaks under put
            return self.in_memory_nbytes + self.spilled_nbytes

    def close(self) -> None:
        """Drop every entry, close and delete the spill file, and remove
        the owned spill directory (a user-provided directory is left in
        place, minus this arena's file)."""
        with self._lock:
            if self._closed:
                return
            for buf in self._mem.values():
                self._on_release(buf)
            self._mem.clear()
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None
                with contextlib.suppress(OSError):  # a cleaner got there first
                    os.remove(self._spill_path)
            self._disk.clear()
            self._group_of.clear()
            self._group_mem.clear()
            self._group_spilled.clear()
            self.in_memory_nbytes = 0
            self.spilled_nbytes = 0
            if self._owns_spill_dir and self._spill_dir is not None:
                shutil.rmtree(self._spill_dir, ignore_errors=True)
                self._spill_dir = None
            self._closed = True

    def __enter__(self) -> "ByteArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        budget = "none" if self.budget_bytes is None else f"{self.budget_bytes}B"
        with self._lock:
            entries = len(self._mem) + len(self._disk)
            mem = self.in_memory_nbytes
            disk = self.spilled_nbytes
        return (
            f"ByteArena(entries={entries}, mem={mem}B, "
            f"disk={disk}B, budget={budget})"
        )


class _PooledArena(ByteArena):
    """A tenant's member arena inside an :class:`ArenaPool`.

    Behaves exactly like a standalone :class:`ByteArena` under its own
    declared budget; additionally, every ``put`` notifies the pool — with
    no lock held — so cross-tenant pressure can spill *someone* (fairly,
    maybe not this tenant) when the aggregate exceeds the pool budget.
    Lock order is strictly pool -> member: the member never calls into
    the pool while holding its own lock.
    """

    def __init__(self, pool: "ArenaPool", tenant: str, budget_bytes, spill_dir):
        super().__init__(budget_bytes=budget_bytes, spill_dir=spill_dir)
        self._pool = pool
        self.tenant = tenant
        #: bytes spilled by pool-level (cross-tenant) pressure, as
        #: opposed to this arena's own budget; mutated by the pool's
        #: rebalance with the pool lock held
        self.pool_spilled_bytes = 0
        self.pool_spill_events = 0

    def put(self, data: bytes, group=None) -> int:
        key = super().put(data, group=group)
        # Own lock released above; the pool may now take its lock and
        # spill across tenants without inverting the pool->member order.
        try:
            self._pool._rebalance()
        except BaseException:
            with self._lock:
                self._remove(key)  # no caller will ever hold this key
            raise
        return key

    def close(self) -> None:
        super().close()
        self._pool._on_member_closed(self)


class ArenaPool:
    """One byte budget carved across many tenants' arenas, with fair
    cross-tenant spill — :meth:`ByteArena.group_stats`-style accounting
    lifted to the pool level.

    Each tenant gets a full :class:`ByteArena` via :meth:`create_arena`
    (its *declared* budget is enforced per-tenant exactly as standalone);
    on top, the pool enforces one aggregate ``budget_bytes`` over every
    member's resident bytes.  When the aggregate overflows — the normal
    state of an oversubscribed multi-tenant host — the pool spills from
    the tenant furthest over its **fair share**
    (``pool_budget * declared / sum(declared)``), oldest entries first
    within that tenant, until the pool fits.  Spilling is value-neutral
    (bytes move to disk, reads transparently follow), so tenants under
    pool pressure see latency, never wrong data.

    All members share one spill directory, each appending to its own
    ``<tag>.spill`` file in it; the pool owns the directory when none is
    supplied.  Thread-safety:
    member puts from concurrent tenant sessions serialize through the
    pool lock only during rebalance, and the lock order is always
    pool -> member, so tenant-side traffic never deadlocks against a
    rebalance in progress.
    """

    def __init__(self, budget_bytes: int, spill_dir: Optional[str] = None):
        if budget_bytes < 0:
            raise ValueError(f"budget_bytes must be >= 0, got {budget_bytes}")
        self.budget_bytes = int(budget_bytes)
        self._spill_dir = spill_dir
        self._owns_spill_dir = spill_dir is None
        #: tenant name -> member arena / declared budget (guarded by _lock)
        self._members: Dict[str, _PooledArena] = {}
        self._declared: Dict[str, int] = {}
        self._closed = False
        self._lock = threading.Lock()
        # -- statistics (mutated under _lock) ------------------------------
        self.rebalances = 0
        self.forced_spill_count = 0
        self.forced_spill_bytes = 0
        from repro.core.sanitizer import maybe_instrument

        maybe_instrument(self, "arena_pool")

    # -- membership ---------------------------------------------------------
    def create_arena(self, tenant: str, budget_bytes: Optional[int] = None) -> ByteArena:
        """A new member arena for *tenant* with its own *budget_bytes*
        (the tenant's declared working-set cap; ``None`` declares the
        whole pool).  Raises for duplicate tenant names."""
        with self._lock:
            if self._closed:
                raise RuntimeError("arena pool is closed")
            if tenant in self._members:
                raise ValueError(f"tenant {tenant!r} already has an arena")
            if self._spill_dir is None:
                self._spill_dir = tempfile.mkdtemp(prefix="repro-pool-")
            declared = self.budget_bytes if budget_bytes is None else int(budget_bytes)
            member = _PooledArena(self, tenant, budget_bytes, self._spill_dir)
            self._members[tenant] = member
            self._declared[tenant] = declared
            return member

    def release(self, tenant: str) -> None:
        """Close and drop *tenant*'s arena (unknown tenants are a no-op)."""
        with self._lock:
            member = self._members.get(tenant)
        if member is not None:
            member.close()  # calls back into _on_member_closed

    def _on_member_closed(self, member: "_PooledArena") -> None:
        with self._lock:
            if self._members.get(member.tenant) is member:
                del self._members[member.tenant]
                del self._declared[member.tenant]

    # -- the fair-spill valve -----------------------------------------------
    def _rebalance(self) -> None:
        """Spill across tenants until the aggregate fits the pool budget.

        Victim selection is deterministic: the tenant with the largest
        resident excess over its fair share, ties broken by name — so a
        fixed put sequence always produces the same spill trace.
        """
        with self._lock:
            if self._closed:
                return
            self.rebalances += 1
            members = dict(self._members)
            total_declared = sum(self._declared.values())
            exhausted = set()
            while True:
                resident = {
                    name: arena.in_memory_nbytes
                    for name, arena in members.items()
                    if name not in exhausted
                }
                excess = sum(resident.values()) - self.budget_bytes
                if excess <= 0 or not resident:
                    return
                victim = max(
                    sorted(resident),
                    key=lambda name: resident[name] - self._fair_share(name, total_declared),
                )
                over_share = resident[victim] - self._fair_share(victim, total_declared)
                want = min(excess, max(over_share, 1))
                spilled = members[victim].spill_bytes(int(want))
                if spilled <= 0:
                    exhausted.add(victim)
                    continue
                self.forced_spill_count += 1
                self.forced_spill_bytes += spilled
                members[victim].pool_spilled_bytes += spilled
                members[victim].pool_spill_events += 1

    def _fair_share(self, tenant: str, total_declared: int) -> float:
        """Callers hold the lock."""
        if total_declared <= 0:
            return self.budget_bytes / max(len(self._members), 1)
        return self.budget_bytes * self._declared[tenant] / total_declared

    # -- accounting ---------------------------------------------------------
    @property
    def declared_bytes(self) -> int:
        with self._lock:
            return sum(self._declared.values())

    @property
    def in_memory_nbytes(self) -> int:
        with self._lock:
            return sum(a.in_memory_nbytes for a in self._members.values())

    @property
    def spilled_nbytes(self) -> int:
        with self._lock:
            return sum(a.spilled_nbytes for a in self._members.values())

    def stats(self) -> Dict[str, object]:
        """Pool-level accounting, one row per tenant — the cross-tenant
        twin of :meth:`ByteArena.group_stats`."""
        with self._lock:
            total_declared = sum(self._declared.values())
            tenants = {}
            for name in sorted(self._members):
                arena = self._members[name]
                tenants[name] = {
                    "declared_bytes": self._declared[name],
                    "fair_share_bytes": int(self._fair_share(name, total_declared)),
                    "in_memory_nbytes": arena.in_memory_nbytes,
                    "spilled_nbytes": arena.spilled_nbytes,
                    "spill_count": arena.spill_count,
                    "pool_spilled_bytes": arena.pool_spilled_bytes,
                    "pool_spill_events": arena.pool_spill_events,
                    "entries": len(arena),
                }
            return {
                "budget_bytes": self.budget_bytes,
                "declared_bytes": total_declared,
                "in_memory_nbytes": sum(t["in_memory_nbytes"] for t in tenants.values()),
                "spilled_nbytes": sum(t["spilled_nbytes"] for t in tenants.values()),
                "rebalances": self.rebalances,
                "forced_spill_count": self.forced_spill_count,
                "forced_spill_bytes": self.forced_spill_bytes,
                "tenants": tenants,
            }

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Close every member arena and remove the owned spill dir."""
        with self._lock:
            if self._closed:
                return
            members = list(self._members.values())
        for member in members:
            member.close()
        with self._lock:
            self._closed = True
            if self._owns_spill_dir and self._spill_dir is not None:
                shutil.rmtree(self._spill_dir, ignore_errors=True)
                self._spill_dir = None

    def __enter__(self) -> "ArenaPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        with self._lock:
            n = len(self._members)
            declared = sum(self._declared.values())
        return (
            f"ArenaPool(tenants={n}, budget={self.budget_bytes}B, "
            f"declared={declared}B)"
        )
