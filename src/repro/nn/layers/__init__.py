"""Primitive layers of the DNN substrate."""

from repro.nn.layers.base import Layer, Parameter, SavedTensorContext
from repro.nn.layers.conv import Conv2D, col2im, conv_output_hw, im2col
from repro.nn.layers.linear import Linear
from repro.nn.layers.activations import ReLU
from repro.nn.layers.pooling import AvgPool2D, GlobalAvgPool2D, MaxPool2D
from repro.nn.layers.norm import BatchNorm2D, LocalResponseNorm
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.loss import SoftmaxCrossEntropy

__all__ = [
    "Layer",
    "Parameter",
    "SavedTensorContext",
    "Conv2D",
    "col2im",
    "conv_output_hw",
    "im2col",
    "Linear",
    "ReLU",
    "AvgPool2D",
    "GlobalAvgPool2D",
    "MaxPool2D",
    "BatchNorm2D",
    "LocalResponseNorm",
    "Dropout",
    "Flatten",
    "SoftmaxCrossEntropy",
]
