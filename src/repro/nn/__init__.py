"""NumPy DNN training substrate (layers, containers, optimizer, trainer)."""

from repro.nn.layers import (
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    Layer,
    Linear,
    LocalResponseNorm,
    MaxPool2D,
    Parameter,
    ReLU,
    SavedTensorContext,
    SoftmaxCrossEntropy,
)
from repro.nn.network import Residual, Sequential, iter_layers, set_saved_ctx
from repro.nn.optim import SGD, ResidentSlots, SlotState
from repro.nn.trainer import IterationRecord, Trainer, TrainHistory
from repro.nn.data import SyntheticImageDataset, batches

__all__ = [
    "AvgPool2D",
    "BatchNorm2D",
    "Conv2D",
    "Dropout",
    "Flatten",
    "GlobalAvgPool2D",
    "Layer",
    "Linear",
    "LocalResponseNorm",
    "MaxPool2D",
    "Parameter",
    "ReLU",
    "SavedTensorContext",
    "SoftmaxCrossEntropy",
    "Residual",
    "Sequential",
    "iter_layers",
    "set_saved_ctx",
    "SGD",
    "ResidentSlots",
    "SlotState",
    "IterationRecord",
    "Trainer",
    "TrainHistory",
    "SyntheticImageDataset",
    "batches",
]
