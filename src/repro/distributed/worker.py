"""The rank process: a full single-worker session plus the exchange.

Each rank owns a complete training stack — its own ``ByteArena`` /
``ParamStore`` / adaptive controller, built by the ordinary
:func:`~repro.api.session.build_session` from a *derived* local config
(the session config with the ``distributed`` section stripped and the
per-rank arena budget applied).  The only distributed-specific piece is
a ``grad_transform`` on the rank's trainer: after backward, it
compresses the local gradients, ships them to the coordinator, blocks
for the reduced result, and installs it in place — so
``optimizer.step()`` applies the *same* reduced gradient on every rank
and the rank weights stay bit-identical.

Message protocol (tag-first tuples over a ``multiprocessing.Pipe``):

======================  ====================================================
coordinator -> rank     ``("step", images, labels)`` /
                        ``("eval", images, labels, batch_size)`` /
                        ``("weights",)`` / ``("close",)``
rank -> coordinator     ``("grads", blobs, batch_size, raw_bytes,
                        residual_norm)`` (mid-step, from the transform),
                        then ``("record", loss, accuracy)`` /
                        ``("evaled", accuracy)`` / ``("weights", arrays)``
                        / ``("closed", profiler_snapshot)`` /
                        ``("error", traceback_text)``
======================  ====================================================

Pipes are FIFO, every step follows the same send/recv script on both
sides, and the coordinator always receives in rank order — there is no
arrival-order nondeterminism anywhere in the exchange.
"""

from __future__ import annotations

import pickle
import traceback
from typing import List

import numpy as np

from repro.api.config import DistributedSpec, SessionConfig
from repro.compression.registry import dumps, loads
from repro.distributed.grad_compress import (
    ErrorFeedback,
    GradParam,
    build_grad_plan,
    downlink_codec_spec,
)
from repro.utils import profiler as _profiler

__all__ = ["derive_rank_config", "RankExchange", "rank_main"]


def derive_rank_config(config: SessionConfig) -> SessionConfig:
    """The local single-worker config a rank builds its session from.

    The ``distributed`` section is reset (a rank *is* the single
    worker) and per-rank arena budgets replace the session activation
    budget; the codec and the ``adaptive`` section are the session's.
    """
    local = SessionConfig.from_json(config.to_json())
    if config.distributed.rank_arena_budget is not None:
        local.storage.budget_bytes = config.distributed.rank_arena_budget
    local.distributed = DistributedSpec()
    return local.validate()


class RankExchange:
    """The per-rank half of the gradient exchange (a grad transform)."""

    def __init__(
        self,
        conn,
        rank: int,
        plan: List[GradParam],
        *,
        error_feedback: bool,
    ):
        self.conn = conn
        self.rank = rank
        self.plan = plan
        self.feedback = ErrorFeedback(plan, enabled=error_feedback)
        self.downlink = downlink_codec_spec().build()
        #: shard size of the in-flight step (set by the worker loop
        #: before ``train_step``; it is the reduction weight)
        self.batch_size = 0

    def transform(self, trainer) -> None:
        feedback = self.feedback
        feedback.begin_step()
        blobs: List[bytes] = []
        raw_bytes = 0
        with _profiler.stage("grad-pack"):
            for i, gp in enumerate(self.plan):
                grad = np.asarray(gp.param.grad, dtype=np.float32)
                u = feedback.fold(i, grad)
                ct = gp.codec.compress(u)
                blobs.append(dumps(ct))
                raw_bytes += u.nbytes
                if feedback.enabled:
                    decoded = np.asarray(
                        gp.codec.decompress(ct), dtype=np.float32
                    ).reshape(u.shape)
                    feedback.settle(i, u, decoded)
        with _profiler.stage("grad-exchange"):
            self.conn.send(
                ("grads", blobs, self.batch_size, raw_bytes, feedback.last_norm())
            )
            msg = self.conn.recv()
        if msg[0] != "reduced":
            raise RuntimeError(
                f"rank {self.rank}: expected 'reduced' mid-step, got {msg[0]!r}"
            )
        with _profiler.stage("grad-unpack"):
            for gp, blob in zip(self.plan, msg[1]):
                decoded = self.downlink.decompress(loads(blob))
                gp.param.grad[...] = np.asarray(decoded, dtype=np.float32).reshape(
                    gp.param.grad.shape
                )


def rank_main(conn, rank: int, world_size: int, net_blob: bytes, cfg_json: str) -> None:
    """Entry point of one rank process.

    Builds the local session from the shipped config + network bytes,
    then serves the coordinator's message loop until ``close``.  Any
    exception is reported upstream as ``("error", traceback)`` instead
    of dying silently.
    """
    # A forked child inherits the parent's process-wide profiler (and
    # would double-report into an object the parent also mutates);
    # start clean — the local session activates its own when enabled.
    _profiler.set_active(None)
    session = None
    try:
        from repro.api.session import build_session

        config = SessionConfig.from_json(cfg_json)
        network = pickle.loads(net_blob)
        plan = build_grad_plan(network, config)
        session = build_session(network, derive_rank_config(config))
        exchange = RankExchange(
            conn,
            rank,
            plan,
            error_feedback=config.distributed.error_feedback,
        )
        session.trainer.grad_transforms.append(exchange.transform)
        while True:
            msg = conn.recv()
            tag = msg[0]
            if tag == "step":
                _, images, labels = msg
                exchange.batch_size = int(images.shape[0])
                rec = session.train_step(images, labels)
                conn.send(("record", float(rec.loss), float(rec.accuracy)))
            elif tag == "eval":
                _, images, labels, batch_size = msg
                conn.send(("evaled", float(session.evaluate(images, labels, batch_size))))
            elif tag == "weights":
                conn.send(
                    ("weights", [np.array(p.data, copy=True) for p in network.parameters()])
                )
            elif tag == "close":
                snapshot = (
                    session.profiler.snapshot() if session.profiler is not None else {}
                )
                session.close()
                session = None
                conn.send(("closed", snapshot))
                return
            else:
                raise RuntimeError(f"rank {rank}: unknown message tag {tag!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        if session is not None:
            try:
                session.close()
            except Exception:
                pass
        conn.close()
