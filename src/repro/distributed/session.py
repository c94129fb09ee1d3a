"""Coordinator side: ``DistributedSession`` behind the Session surface.

``build_session`` hands one of these back whenever
``config.distributed.world_size > 1``, after checking that the network
has a layer to compress (a network without one fails here, not in a
rank): each rank then builds its own local session from the same
config.  The coordinator owns the rank processes: it shards every batch across them, mediates the compressed
gradient exchange (receive in rank order, reduce on the fixed schedule,
broadcast one bit-exact blob), aggregates the per-rank records into the
usual :class:`~repro.nn.trainer.TrainHistory`, and tears everything
down behind the one :meth:`~repro.api.session.Session.close` the
Session contract promises.

Star topology, deliberately: the coordinator is the only place float
addition happens, so the reduction schedule is pinned by construction
(DET001's no-hash-order rule applies here — ranks are always visited
``0..N-1``).  Every rank applies the *same* broadcast bytes, so rank
weights stay bit-identical step after step — verified by
:meth:`DistributedSession.rank_weights` in the tests.
"""

from __future__ import annotations

import multiprocessing
import pickle
from contextlib import ExitStack
from typing import Dict, List, Optional

import numpy as np

from repro.api.config import ConfigError, SessionConfig
from repro.api.session import Session
from repro.compression.registry import dumps, loads
from repro.distributed.grad_compress import build_grad_plan, downlink_codec_spec
from repro.distributed.reduce import reduce_arrays
from repro.distributed.worker import rank_main
from repro.nn.trainer import IterationRecord, TrainHistory
from repro.utils import profiler as _profiler
from repro.utils.profiler import StageProfiler

__all__ = ["DistributedSession", "build_distributed_session"]


class _RankStats:
    """Uplink accounting for one rank, accumulated by the coordinator."""

    __slots__ = ("raw_bytes", "compressed_bytes", "residual_norms")

    def __init__(self):
        self.raw_bytes = 0
        self.compressed_bytes = 0
        self.residual_norms: List[float] = []


class DistributedSession(Session):
    """N rank processes behind the single-session surface.

    The activation-side accessors (``tracker``, ``engine``,
    ``error_bounds``, ...) are per-rank internals living in other
    processes and read ``None``/empty here; what the coordinator *can*
    see — the training history, merged stage profiles, and the
    gradient-exchange ledger (:attr:`grad_exchange_stats`) — is exposed
    with the same shapes the single-process session uses.
    """

    def __init__(self, network, config: SessionConfig, processes, conns, plan, profiler):
        # nothing on the session's stack: close() below stops the ranks
        super().__init__(network, None, None, config, ExitStack())
        self._processes = processes
        self._conns = conns
        self._plan = plan
        self._profiler = profiler
        self._history = TrainHistory()
        self._iteration = 0
        self._closed = False
        self._downlink = downlink_codec_spec().build()
        self._rank_stats = [_RankStats() for _ in conns]
        self._downlink_raw = 0
        self._downlink_compressed = 0

    # -- overridden surface ------------------------------------------------
    @property
    def world_size(self) -> int:
        return len(self._conns)

    @property
    def history(self) -> TrainHistory:
        return self._history

    @property
    def profiler(self) -> Optional[StageProfiler]:
        return self._profiler

    @property
    def grad_exchange_stats(self) -> Dict[str, object]:
        """The exchange ledger: per-rank uplink bytes/ratio and
        error-feedback residual trajectory, plus the broadcast leg."""
        per_rank = []
        for st in self._rank_stats:
            per_rank.append(
                {
                    "raw_bytes": st.raw_bytes,
                    "compressed_bytes": st.compressed_bytes,
                    "ratio": (
                        st.raw_bytes / st.compressed_bytes
                        if st.compressed_bytes
                        else 0.0
                    ),
                    "residual_norms": list(st.residual_norms),
                }
            )
        return {
            "world_size": self.world_size,
            "steps": self._iteration,
            "per_rank": per_rank,
            "downlink": {
                "raw_bytes": self._downlink_raw,
                "compressed_bytes": self._downlink_compressed,
                "ratio": (
                    self._downlink_raw / self._downlink_compressed
                    if self._downlink_compressed
                    else 0.0
                ),
            },
        }

    # -- plumbing ----------------------------------------------------------
    def _send(self, rank: int, msg) -> None:
        try:
            self._conns[rank].send(msg)
        except OSError:
            # The pipe broke: the rank died.  Its parting ("error",
            # traceback) message, if it managed one, is still buffered on
            # our end — drain it so the failure surfaces with the real
            # traceback instead of a bare BrokenPipeError.
            self._recv(rank, "<never>")

    def _recv(self, rank: int, expect: str):
        try:
            msg = self._conns[rank].recv()
        except EOFError:
            code = self._processes[rank].exitcode
            raise RuntimeError(
                f"rank {rank} died mid-conversation (exit code {code})"
            ) from None
        if msg[0] == "error":
            raise RuntimeError(f"rank {rank} failed:\n{msg[1]}")
        if msg[0] != expect:
            raise RuntimeError(
                f"rank {rank}: expected {expect!r}, got {msg[0]!r}"
            )
        return msg

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    # -- training ----------------------------------------------------------
    def train_step(self, images, labels) -> IterationRecord:
        self._ensure_open()
        with _profiler.stage("step"):
            return self._train_step(images, labels)

    def _train_step(self, images, labels) -> IterationRecord:
        n = int(images.shape[0])
        world = self.world_size
        if n < world:
            raise ValueError(
                f"batch of {n} cannot be sharded across {world} ranks; "
                f"use a batch size >= world_size"
            )
        image_shards = np.array_split(images, world, axis=0)
        label_shards = np.array_split(labels, world, axis=0)
        for rank in range(world):
            self._send(rank, ("step", image_shards[rank], label_shards[rank]))

        # uplink: receive in rank order (fixed schedule, no arrival races)
        uplinks = [self._recv(rank, "grads") for rank in range(world)]
        weights = [float(msg[2]) for msg in uplinks]
        for rank, msg in enumerate(uplinks):
            st = self._rank_stats[rank]
            st.raw_bytes += int(msg[3])
            st.compressed_bytes += sum(len(b) for b in msg[1])
            st.residual_norms.append(float(msg[4]))

        # reduce + broadcast: one bit-exact blob per parameter, applied
        # identically by every rank (the ranks wait in grad-exchange).
        reduced_blobs: List[bytes] = []
        with _profiler.stage("grad-reduce"):
            for i in range(len(self._plan)):
                codec = self._plan[i].codec
                decoded = [
                    np.asarray(codec.decompress(loads(msg[1][i])), dtype=np.float32)
                    for msg in uplinks
                ]
                reduced = reduce_arrays(decoded, weights)
                blob = dumps(self._downlink.compress(reduced))
                self._downlink_raw += reduced.nbytes
                self._downlink_compressed += len(blob)
                reduced_blobs.append(blob)
        for rank in range(world):
            self._send(rank, ("reduced", reduced_blobs))

        records = [self._recv(rank, "record") for rank in range(world)]
        total = sum(weights)
        loss = sum(w * msg[1] for w, msg in zip(weights, records)) / total
        accuracy = sum(w * msg[2] for w, msg in zip(weights, records)) / total
        record = IterationRecord(
            iteration=self._iteration,
            loss=float(loss),
            accuracy=float(accuracy),
            lr=self.config.optimizer.lr,
        )
        self._history.append(record)
        self._iteration += 1
        return record

    def train(self, batch_iter, max_iterations: Optional[int] = None) -> TrainHistory:
        for i, (images, labels) in enumerate(batch_iter):
            if max_iterations is not None and i >= max_iterations:
                break
            self.train_step(images, labels)
        return self._history

    def evaluate(self, images, labels, batch_size: int = 64) -> float:
        """Top-1 accuracy, computed by rank 0 (all ranks hold identical
        weights, so any one of them is authoritative)."""
        self._ensure_open()
        self._send(0, ("eval", images, labels, batch_size))
        return float(self._recv(0, "evaled")[1])

    def rank_weights(self, rank: int) -> List[np.ndarray]:
        """A copy of *rank*'s current parameter arrays (test/debug aid —
        the cross-rank bit-identity check reads every rank through
        this)."""
        self._ensure_open()
        self._send(rank, ("weights",))
        return self._recv(rank, "weights")[1]

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Stop every rank exactly once: pull rank 0's weights back into
        the coordinator's network (so ``session.network`` holds the
        trained model afterwards), merge the ranks' stage profiles, shut
        the processes down, and release the pipes.  Idempotent; ranks
        that already died are reaped rather than waited on."""
        if self._closed:
            return
        self._closed = True
        try:
            try:
                self._conns[0].send(("weights",))
                msg = self._conns[0].recv()
                if msg[0] == "weights":
                    for param, data in zip(self.network.parameters(), msg[1]):
                        param.data[...] = data
            except (EOFError, OSError, RuntimeError):
                pass
            for rank, conn in enumerate(self._conns):
                try:
                    conn.send(("close",))
                    msg = conn.recv()
                    if msg[0] == "closed" and self._profiler is not None:
                        self._profiler.merge(msg[1])
                except (EOFError, OSError):
                    pass
        finally:
            for conn in self._conns:
                try:
                    conn.close()
                except OSError:
                    pass
            for proc in self._processes:
                proc.join(timeout=30)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5)
            if self._profiler is not None:
                self._profiler.deactivate()

    def __repr__(self) -> str:
        return (
            f"DistributedSession(world_size={self.world_size}, "
            f"iter={self._iteration})"
        )


def build_distributed_session(network, config: SessionConfig, *, optimizer=None) -> DistributedSession:
    """Spawn the rank processes and wire the coordinator.

    Called by :func:`~repro.api.session.build_session` when
    ``distributed.world_size > 1`` — not a separate front door.
    """
    if optimizer is not None:
        raise ConfigError(
            "distributed: a pre-built optimizer cannot be shipped to rank "
            "processes (slot state is keyed by live parameter identity); "
            "describe it declaratively via config.optimizer instead"
        )
    # The coordinator's codecs come first: a gradient codec the config
    # cannot build (an unavailable kernel backend) fails before any rank
    # starts.
    plan = build_grad_plan(network, config)
    # Ship the untouched network and the full config; ranks derive their
    # local single-worker view themselves (derive_rank_config).  Fork
    # keeps startup cheap on Linux; spawn works too since everything
    # crossing the boundary is bytes.
    net_blob = pickle.dumps(network)
    cfg_json = config.to_json()
    start = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    ctx = multiprocessing.get_context(start)
    conns = []
    processes = []
    try:
        for rank in range(config.distributed.world_size):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=rank_main,
                args=(child_conn, rank, config.distributed.world_size, net_blob, cfg_json),
                name=f"repro-rank{rank}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            processes.append(proc)
    except BaseException:
        for proc in processes:
            proc.terminate()
        raise
    profiler = StageProfiler().activate() if config.profiler.enabled else None
    return DistributedSession(network, config, processes, conns, plan, profiler)
