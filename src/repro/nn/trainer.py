"""Training loop with iteration callbacks and metric history.

The trainer is deliberately framework-shaped (Figure 1 of the paper):
each iteration runs forward (activations saved through each layer's
saved-tensor context), loss, backward (saved tensors consumed), then the
optimizer step.  Callbacks fire after backward, which is where the
paper's framework collects gradients and loss statistics for its
W-interval parameter collection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.nn.layers.base import Layer
from repro.nn.layers.loss import SoftmaxCrossEntropy
from repro.nn.network import Residual, Sequential, iter_layers
from repro.nn.optim import SGD

__all__ = ["IterationRecord", "TrainHistory", "Trainer", "batch_fed_layer", "packing_convs"]


def batch_fed_layer(network: Layer) -> Optional[Layer]:
    """The layer a training step feeds the data batch alone: the first
    leaf of *network*'s leading ``Sequential`` chain, or None when that
    chain starts with a ``Residual``, which sums its two branches' input
    gradients and so needs them."""
    first = network
    while isinstance(first, Sequential) and first.layers:
        first = first.layers[0]
    return None if isinstance(first, Residual) else first


def packing_convs(network: Layer) -> List[Layer]:
    """The conv layers a training step compresses: every compressible
    layer but :func:`batch_fed_layer`, whose input is the caller's
    batch, saved by reference."""
    skip = batch_fed_layer(network)
    return [
        layer for layer in iter_layers(network) if layer.compressible and layer is not skip
    ]


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
        Under a ``ParamStore`` with no ``grad_transforms`` the store has
        already updated the weights and momentum inside backward.
    grad_transforms:
        Callables ``transform(trainer)`` applied to parameter gradients
        before the update (Figure 9 error injection, the DDP exchange);
        any transform keeps the update in a separate pass.

    Sessions are assembled by :func:`repro.api.build_session`, which sets
    :attr:`profiler`; the trainer owns no resource, and the
    :class:`~repro.api.session.Session` closes what the build created.
    """

    def __init__(
        self,
        network: Layer,
        optimizer: SGD,
        loss: Optional[SoftmaxCrossEntropy] = None,
    ):
        self.network = network
        self.optimizer = optimizer
        self.loss = loss or SoftmaxCrossEntropy()
        self.history = TrainHistory()
        self.post_backward_hooks: List[Callable] = []
        self.grad_transforms: List[Callable] = []
        self.iteration = 0
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
        # Nothing reads the data batch's gradient, so the layer fed by the
        # batch alone may skip it, and a compressing context keeps that
        # layer's saved input (the batch, which the caller holds anyway) by
        # reference: the flag spans forward and backward.
        first = batch_fed_layer(self.network)
        if first is not None:
            first.needs_input_grad = False
        try:
            logits = self.network.forward(images)
            loss_value, dlogits = self.loss.forward(logits, labels)
            acc = self.loss.accuracy(logits, labels)
            self.optimizer.update_in_backward = not self.grad_transforms
            self.network.backward(dlogits)
        finally:
            if first is not None:
                first.needs_input_grad = True
            self.optimizer.update_in_backward = False

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
