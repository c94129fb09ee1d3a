"""Runtime sanitizer: buffer poisoning, double-release traps, lock-order
cycle detection, and a sanitized session's report.

The sanitizer is process-wide and sticky, so every test that enables it
disables it again; objects constructed after disable() are untouched.
"""

import threading

import numpy as np
import pytest

from repro.core import sanitizer
from repro.core.arena import ByteArena
from repro.core.sanitizer import (
    DoubleReleaseError,
    LockOrderError,
    LockOrderMonitor,
    TrackedLock,
    UseAfterReleaseError,
)
from repro.utils.scratch import ScratchPool

# True when the test process itself was launched with REPRO_SANITIZE=1.
ENV_SANITIZED = sanitizer.enabled()


@pytest.fixture
def sanitized():
    sanitizer.enable()
    yield
    sanitizer.disable()


@pytest.mark.skipif(ENV_SANITIZED, reason="process launched with REPRO_SANITIZE=1")
def test_disabled_by_default():
    arena = ByteArena(budget_bytes=None)
    key = arena.put(b"abc")
    assert bytes(arena.get(key)) == b"abc"
    arena.discard(key)
    arena.discard(key)  # without the sanitizer this stays a silent no-op
    arena.close()
    assert not sanitizer.report()["enabled"]


def test_double_release_raises(sanitized):
    arena = ByteArena(budget_bytes=None)
    key = arena.put(b"abc")
    arena.discard(key)
    with pytest.raises(DoubleReleaseError) as excinfo:
        arena.discard(key)
    # the trap names both sites: first release and the offending one
    assert "first released" in str(excinfo.value)
    arena.close()


def test_use_after_release_raises(sanitized):
    arena = ByteArena(budget_bytes=None)
    key = arena.put(b"abc")
    arena.discard(key)
    with pytest.raises(UseAfterReleaseError):
        arena.get(key)
    arena.close()


def test_unknown_key_discard_stays_noop(sanitized):
    arena = ByteArena(budget_bytes=None)
    arena.discard(123456)  # never-acquired keys keep the no-op contract
    arena.close()


def test_released_buffer_is_nan_poisoned(sanitized):
    arena = ByteArena(budget_bytes=None)
    payload = np.arange(4, dtype=np.float64).tobytes()
    key = arena.put(payload)
    leaked = arena.get(key)  # aliasing reference held past the release
    arena.discard(key)
    values = np.frombuffer(bytes(leaked), dtype=np.float64)
    assert np.isnan(values).all()
    assert sanitizer.report()["poisoned_buffers"] >= 1
    arena.close()


def test_pop_returns_intact_bytes(sanitized):
    arena = ByteArena(budget_bytes=None)
    key = arena.put(b"abcd")
    assert arena.pop(key) == b"abcd"  # copied out before the poison pass
    arena.close()


def test_scratch_buffers_poisoned_on_return(sanitized):
    pool = ScratchPool()
    with pool.take((4,), np.float64) as buf:
        buf[:] = 1.0
        view = buf
    assert np.isnan(view).all()


def test_a_view_kept_past_its_take_reads_poison_where_the_next_take_lands(sanitized):
    """A stack hands the released bytes to the very next take."""
    pool = ScratchPool()
    with pool.take((256,), np.uint8):
        pass
    with pool.take((8,), np.float32) as stale:
        stale[:] = 2.0
    with pool.take((8,), np.int32) as ints:
        assert np.shares_memory(ints, stale)
        assert (ints == -1).all()  # 0xFF bytes
        ints[:] = 7
    assert np.isnan(stale).all()


def test_takes_nest_lifo_and_a_release_poisons_only_its_own_region(sanitized):
    pool = ScratchPool()
    with pool.take((256,), np.uint8):
        pass
    with pool.take((4,), np.float64) as outer:
        outer[:] = 1.0
        with pool.take((4,), np.float64) as inner:
            inner[:] = 2.0
        assert np.isnan(inner).all() and (outer == 1.0).all()
        with pool.take((4,), np.float64) as again:  # popped: same bytes
            assert np.shares_memory(again, inner)
    assert np.isnan(outer).all()


def test_two_threads_takes_never_alias(sanitized):
    pool = ScratchPool()
    held, done = threading.Event(), threading.Event()
    seen = {}

    def hold():
        with pool.take((64,), np.float64) as mine:
            mine[:] = 3.0
            seen["held"] = mine
            held.set()
            done.wait(timeout=30)
            seen["intact"] = bool((mine == 3.0).all())

    thread = threading.Thread(target=hold)
    thread.start()
    assert held.wait(timeout=30)
    for _ in range(2):  # a miss, then a hit on this thread's own slab
        with pool.take((64,), np.float64) as ours:
            assert not np.shares_memory(ours, seen["held"])
            ours[:] = 4.0
    done.set()
    thread.join(timeout=30)
    assert seen["intact"]


def test_enable_reaches_the_nn_workspace_built_before_it(monkeypatch):
    """The workspace is built when ``repro.utils.scratch`` is imported;
    instrumenting only what is constructed after ``enable()`` would leave
    the one pool whose buffers every layer and codec shares unpoisoned."""
    from repro.utils import scratch

    pool = ScratchPool()  # built with the sanitizer off, as at import
    monkeypatch.setattr(scratch, "WORKSPACE", pool)
    sanitizer.enable()
    try:
        sanitizer.enable()  # a second session: still one poisoning wrapper
        before = sanitizer.report()["poisoned_buffers"]
        with pool.take((4,), np.float32) as buf:
            buf[:] = 1.0
        assert np.isnan(buf).all()
        assert sanitizer.report()["poisoned_buffers"] == before + 1
        assert not hasattr(pool, "_lock")  # a take holds no lock for the monitor to order
    finally:
        sanitizer.disable()


def test_lock_order_cycle_detected(sanitized):
    monitor = LockOrderMonitor()
    lock_a = TrackedLock(threading.Lock(), "a", False, monitor)
    lock_b = TrackedLock(threading.Lock(), "b", False, monitor)
    with lock_a:
        with lock_b:
            pass  # establishes the a -> b ordering edge
    with lock_b:
        with pytest.raises(LockOrderError):
            lock_a.acquire()


def test_nonreentrant_self_acquire_detected(sanitized):
    monitor = LockOrderMonitor()
    lock = TrackedLock(threading.Lock(), "plain", False, monitor)
    with lock:
        with pytest.raises(LockOrderError):
            lock.acquire()


def test_reentrant_lock_allows_nesting(sanitized):
    monitor = LockOrderMonitor()
    lock = TrackedLock(threading.RLock(), "rlock", True, monitor)
    with lock:
        with lock:
            pass


def test_a_finalizer_run_inside_the_monitor_does_not_deadlock_it(sanitized):
    """Garbage collection can run an arena's ``__del__`` at an allocation
    inside the monitor's graph section; that finalizer's acquire must not
    wait on the monitor lock its own thread holds."""
    monitor = LockOrderMonitor()
    outer, inner, finalizer = (
        TrackedLock(threading.Lock(), name, False, monitor)
        for name in ("outer", "inner", "finalizer")
    )
    search = monitor._path_exists

    def path_exists(src, targets):
        monitor._path_exists = search  # once, as one collection would
        with finalizer:
            pass
        return search(src, targets)

    monitor._path_exists = path_exists

    def run():
        with outer, inner:
            pass

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert monitor.acquisitions == 3
    with inner:  # the graph still holds outer -> inner
        with pytest.raises(LockOrderError):
            outer.acquire()


def test_enabled_sanitizer_instruments_a_session_and_reports():
    from repro.api import SessionConfig, build_session
    from repro.api.config import StorageSpec
    from repro.models import build_scaled_model
    from repro.nn import SyntheticImageDataset, batches

    config = SessionConfig(storage=StorageSpec(activations="arena", budget_bytes=1 << 20))
    net = build_scaled_model("alexnet", num_classes=4, image_size=8, rng=0)
    dataset = SyntheticImageDataset(num_classes=4, image_size=8, seed=1)
    before = sanitizer.report()
    sanitizer.enable()  # before the session: objects instrument at construction
    try:
        with build_session(net, config) as session:
            session.train(batches(dataset, 2, 2, seed=2))
            report = sanitizer.report()
            assert report["enabled"]
            assert report["instrumented_objects"] > 0
            # all three checks are armed: locks tracked, releases
            # poisoned, arena keys trapped
            for counter in ("lock_acquisitions", "poisoned_buffers", "trapped_keys"):
                assert report[counter] > before[counter], counter
    finally:
        sanitizer.disable()
