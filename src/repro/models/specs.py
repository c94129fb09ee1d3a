"""Architecture specs: one declarative source of truth per network.

A spec list can be (a) instantiated into live :mod:`repro.nn` layers for
actual training, or (b) walked symbolically for exact activation/weight
accounting at full ImageNet scale without allocating anything — which is
how Table 1's "Convolutional Act. Size" and Figure 2's memory bars are
computed (tens of GB of tensors never materialize).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import (
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    Linear,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    Residual,
    Sequential,
)
from repro.nn.layers.conv import conv_output_hw

__all__ = [
    "ConvS", "ReLUS", "LRNS", "MaxPoolS", "AvgPoolS", "GlobalAvgPoolS",
    "BatchNormS", "DropoutS", "FlattenS", "LinearS", "ResidualS",
    "build_network", "walk_shapes", "LayerReport",
]


@dataclass(frozen=True)
class ConvS:
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0
    bias: bool = True


@dataclass(frozen=True)
class ReLUS:
    pass


@dataclass(frozen=True)
class LRNS:
    size: int = 5
    alpha: float = 1e-4
    beta: float = 0.75
    k: float = 2.0


@dataclass(frozen=True)
class MaxPoolS:
    kernel: int
    stride: Optional[int] = None
    padding: int = 0


@dataclass(frozen=True)
class AvgPoolS:
    kernel: int
    stride: Optional[int] = None
    padding: int = 0


@dataclass(frozen=True)
class GlobalAvgPoolS:
    pass


@dataclass(frozen=True)
class BatchNormS:
    pass


@dataclass(frozen=True)
class DropoutS:
    p: float = 0.5


@dataclass(frozen=True)
class FlattenS:
    pass


@dataclass(frozen=True)
class LinearS:
    out_features: int


@dataclass(frozen=True)
class ResidualS:
    main: Tuple
    shortcut: Optional[Tuple] = None


def build_network(specs: Sequence, in_shape: Tuple[int, int, int, int], rng=None) -> Sequential:
    """Instantiate live layers from *specs* for input ``(N, C, H, W)``."""
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    layers = []
    shape = tuple(in_shape)
    for i, spec in enumerate(specs):
        layer, shape = _build_one(spec, shape, rng, f"l{i}")
        layers.append(layer)
    return Sequential(layers)


def _build_one(spec, shape, rng, name):
    if isinstance(spec, ConvS):
        c_in = shape[1]
        layer = Conv2D(c_in, spec.out_channels, spec.kernel, spec.stride, spec.padding,
                       bias=spec.bias, name=name, rng=rng)
        return layer, layer.output_shape(shape)
    if isinstance(spec, ReLUS):
        return ReLU(name=name), shape
    if isinstance(spec, LRNS):
        return LocalResponseNorm(spec.size, spec.alpha, spec.beta, spec.k, name=name), shape
    if isinstance(spec, MaxPoolS):
        layer = MaxPool2D(spec.kernel, spec.stride, spec.padding, name=name)
        return layer, layer.output_shape(shape)
    if isinstance(spec, AvgPoolS):
        layer = AvgPool2D(spec.kernel, spec.stride, spec.padding, name=name)
        return layer, layer.output_shape(shape)
    if isinstance(spec, GlobalAvgPoolS):
        layer = GlobalAvgPool2D(name=name)
        return layer, layer.output_shape(shape)
    if isinstance(spec, BatchNormS):
        return BatchNorm2D(shape[1], name=name), shape
    if isinstance(spec, DropoutS):
        return Dropout(spec.p, name=name, rng=rng), shape
    if isinstance(spec, FlattenS):
        layer = Flatten(name=name)
        return layer, layer.output_shape(shape)
    if isinstance(spec, LinearS):
        layer = Linear(shape[1], spec.out_features, name=name, rng=rng)
        return layer, layer.output_shape(shape)
    if isinstance(spec, ResidualS):
        main_layers = []
        s = shape
        for j, sub in enumerate(spec.main):
            l, s = _build_one(sub, s, rng, f"{name}.m{j}")
            main_layers.append(l)
        shortcut = None
        if spec.shortcut is not None:
            sc_layers = []
            s2 = shape
            for j, sub in enumerate(spec.shortcut):
                l, s2 = _build_one(sub, s2, rng, f"{name}.s{j}")
                sc_layers.append(l)
            if s2 != s:
                raise ValueError(f"{name}: residual branch shapes differ: {s} vs {s2}")
            shortcut = Sequential(sc_layers, name=f"{name}.shortcut")
        return Residual(Sequential(main_layers, name=f"{name}.main"), shortcut, name=name), s
    raise TypeError(f"unknown spec {spec!r}")


@dataclass
class LayerReport:
    """Symbolic per-layer accounting entry."""

    kind: str
    in_shape: Tuple
    out_shape: Tuple
    weight_count: int
    #: elements saved for backward (the activation footprint), and the
    #: per-element byte width of that saved tensor
    saved_numel: int
    saved_itemsize: int
    is_conv: bool

    @property
    def saved_bytes(self) -> int:
        return self.saved_numel * self.saved_itemsize

    @property
    def weight_bytes(self) -> int:
        return self.weight_count * 4


def _numel(shape) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


def walk_shapes(specs: Sequence, in_shape: Tuple[int, int, int, int]) -> List[LayerReport]:
    """Symbolically execute *specs*, returning per-layer accounting.

    Saved-tensor conventions mirror the live layers: conv/linear save
    their fp32 input, BatchNorm saves normalized input, ReLU saves a
    1-byte mask, MaxPool saves 2-byte argmax indices, pooling/flatten
    save nothing beyond shape metadata.
    """
    reports: List[LayerReport] = []
    shape = tuple(in_shape)
    for spec in specs:
        shape = _walk_one(spec, shape, reports)
    return reports


def _walk_one(spec, shape, reports) -> Tuple:
    n = shape[0]
    if isinstance(spec, ConvS):
        c_in, h, w = shape[1], shape[2], shape[3]
        ho, wo = conv_output_hw(h, w, spec.kernel, spec.stride, spec.padding)
        out_shape = (n, spec.out_channels, ho, wo)
        wcount = spec.out_channels * c_in * spec.kernel**2 + (spec.out_channels if spec.bias else 0)
        reports.append(LayerReport("conv", shape, out_shape, wcount, _numel(shape), 4, True))
        return out_shape
    if isinstance(spec, ReLUS):
        reports.append(LayerReport("relu", shape, shape, 0, _numel(shape), 1, False))
        return shape
    if isinstance(spec, LRNS):
        reports.append(LayerReport("lrn", shape, shape, 0, _numel(shape), 4, False))
        return shape
    if isinstance(spec, (MaxPoolS, AvgPoolS)):
        k = spec.kernel
        s = spec.stride if spec.stride is not None else k
        ho, wo = conv_output_hw(shape[2], shape[3], k, s, spec.padding)
        out_shape = (n, shape[1], ho, wo)
        kind = "maxpool" if isinstance(spec, MaxPoolS) else "avgpool"
        saved = _numel(out_shape) if kind == "maxpool" else 0
        reports.append(LayerReport(kind, shape, out_shape, 0, saved, 2, False))
        return out_shape
    if isinstance(spec, GlobalAvgPoolS):
        out_shape = (n, shape[1])
        reports.append(LayerReport("gap", shape, out_shape, 0, 0, 4, False))
        return out_shape
    if isinstance(spec, BatchNormS):
        reports.append(LayerReport("bn", shape, shape, 2 * shape[1], _numel(shape), 4, False))
        return shape
    if isinstance(spec, DropoutS):
        reports.append(LayerReport("dropout", shape, shape, 0, _numel(shape), 4, False))
        return shape
    if isinstance(spec, FlattenS):
        out_shape = (n, _numel(shape[1:]))
        reports.append(LayerReport("flatten", shape, out_shape, 0, 0, 4, False))
        return out_shape
    if isinstance(spec, LinearS):
        out_shape = (n, spec.out_features)
        wcount = spec.out_features * shape[1] + spec.out_features
        reports.append(LayerReport("linear", shape, out_shape, wcount, _numel(shape), 4, False))
        return out_shape
    if isinstance(spec, ResidualS):
        s = shape
        for sub in spec.main:
            s = _walk_one(sub, s, reports)
        if spec.shortcut is not None:
            s2 = shape
            for sub in spec.shortcut:
                s2 = _walk_one(sub, s2, reports)
        return s
    raise TypeError(f"unknown spec {spec!r}")
