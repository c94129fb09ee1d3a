"""Training loop with iteration callbacks and metric history.

The trainer is deliberately framework-shaped (Figure 1 of the paper):
each iteration runs forward (activations saved through each layer's
saved-tensor context), loss, backward (saved tensors consumed), then the
optimizer step.  Callbacks fire after backward and before the weight
update, which is where the paper's framework collects gradients, loss
statistics, and momentum for its W-interval parameter collection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.nn.layers.base import Layer
from repro.nn.layers.loss import SoftmaxCrossEntropy
from repro.nn.network import Residual, Sequential
from repro.nn.optim import SGD

__all__ = ["IterationRecord", "TrainHistory", "Trainer"]


@dataclass
class IterationRecord:
    """Per-iteration measurements."""

    iteration: int
    loss: float
    accuracy: float
    lr: float
    extras: Dict[str, float] = field(default_factory=dict)


@dataclass
class TrainHistory:
    records: List[IterationRecord] = field(default_factory=list)

    def append(self, rec: IterationRecord) -> None:
        self.records.append(rec)

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])

    @property
    def accuracies(self) -> np.ndarray:
        return np.array([r.accuracy for r in self.records])

    def smoothed_accuracy(self, window: int = 20) -> np.ndarray:
        acc = self.accuracies
        if acc.size == 0:
            return acc
        w = min(window, acc.size)
        kernel = np.ones(w) / w
        return np.convolve(acc, kernel, mode="valid")


class Trainer:
    """Runs forward/backward/update iterations over a data source.

    Parameters
    ----------
    network, optimizer:
        The model (any :class:`~repro.nn.layers.base.Layer`) and its SGD
        optimizer.
    loss:
        Defaults to softmax cross-entropy.
    post_backward_hooks:
        Callables ``hook(trainer, record)`` invoked after backward with
        gradients still present — the paper framework's collection point.
    grad_transforms:
        Callables ``transform(trainer)`` applied to parameter gradients
        before the update (used for the Figure 9 error-injection study).
    close_hooks:
        Callables ``hook(trainer)`` run once by :meth:`close` — attached
        sessions register resource teardown here (e.g. restoring
        out-of-core parameters).  The trainer is also a context manager:
        ``with Trainer(...) as tr: ...`` closes on exit.

    Sessions are assembled by :func:`repro.api.build_session`, which sets
    :attr:`profiler` and registers the session's teardown (profiler,
    parameter store) in ``close_hooks``.
    """

    def __init__(
        self,
        network: Layer,
        optimizer: SGD,
        loss: Optional[SoftmaxCrossEntropy] = None,
        lr_schedule=None,
    ):
        self.network = network
        self.optimizer = optimizer
        self.loss = loss or SoftmaxCrossEntropy()
        self.lr_schedule = lr_schedule
        self.history = TrainHistory()
        self.post_backward_hooks: List[Callable] = []
        self.grad_transforms: List[Callable] = []
        self.close_hooks: List[Callable] = []
        self.iteration = 0
        #: mean |dlogits-propagated loss| of the latest iteration, exposed
        #: for parameter collection (the paper's L-bar is per conv layer;
        #: per-layer values come from the framework's layer taps).
        self.last_loss_value: float = float("nan")
        #: optional :class:`~repro.utils.profiler.StageProfiler` timing each
        #: iteration as a ``step`` stage (``config.profiler.enabled``)
        self.profiler = None

    def train_step(self, images: np.ndarray, labels: np.ndarray) -> IterationRecord:
        """One forward/backward/update iteration; returns its record."""
        if self.profiler is not None:
            with self.profiler.stage("step"):
                return self._train_step(images, labels)
        return self._train_step(images, labels)

    def _train_step(self, images: np.ndarray, labels: np.ndarray) -> IterationRecord:
        self.network.train(True)
        self.optimizer.zero_grad()
        logits = self.network.forward(images)
        loss_value, dlogits = self.loss.forward(logits, labels)
        acc = self.loss.accuracy(logits, labels)
        # Nothing reads the data batch's gradient, so the layer fed by the batch
        # alone may skip it; a ``Residual`` root sums its two branches' and cannot.
        first = self.network
        while isinstance(first, Sequential) and first.layers:
            first = first.layers[0]
        first.needs_input_grad = isinstance(first, Residual)
        try:
            self.network.backward(dlogits)
        finally:
            first.needs_input_grad = True
        self.last_loss_value = loss_value

        record = IterationRecord(
            iteration=self.iteration,
            loss=loss_value,
            accuracy=acc,
            lr=self.optimizer.lr,
        )
        for hook in self.post_backward_hooks:
            hook(self, record)
        for transform in self.grad_transforms:
            transform(self)
        self.optimizer.step()
        if self.lr_schedule is not None:
            self.lr_schedule.step()
        self.history.append(record)
        self.iteration += 1
        return record

    def train(self, batch_iter, max_iterations: Optional[int] = None) -> TrainHistory:
        """Consume batches from *batch_iter* (optionally capped)."""
        for i, (images, labels) in enumerate(batch_iter):
            if max_iterations is not None and i >= max_iterations:
                break
            self.train_step(images, labels)
        return self.history

    def close(self) -> None:
        """Run registered close hooks exactly once (idempotent).

        Attached sessions use this to restore out-of-core parameters
        and deactivate profilers; training after ``close`` is undefined
        for them."""
        hooks, self.close_hooks = self.close_hooks, []
        for hook in hooks:
            hook(self)

    def __enter__(self) -> "Trainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def evaluate(self, images: np.ndarray, labels: np.ndarray, batch_size: int = 64) -> float:
        """Top-1 accuracy on a held-out set (eval mode, no saved tensors)."""
        was_training = self.network.training
        self.network.train(False)
        correct = 0
        for start in range(0, images.shape[0], batch_size):
            sl = slice(start, start + batch_size)
            logits = self.network.forward(images[sl])
            correct += int((logits.argmax(axis=1) == labels[sl]).sum())
        self.network.train(was_training)
        return correct / images.shape[0]
