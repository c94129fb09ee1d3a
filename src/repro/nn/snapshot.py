"""Training snapshots: save/restore network weights and optimizer state.

The paper's Figure 9 methodology pre-trains a model, saves a snapshot
every epoch, and replays error-injection experiments from chosen
iterations; this module provides that mechanism (npz-based, BatchNorm
running statistics included).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers.base import Layer
from repro.nn.layers.norm import BatchNorm2D
from repro.nn.network import iter_layers
from repro.nn.optim import Optimizer

__all__ = ["save_snapshot", "load_snapshot"]


def _named_params(network: Layer):
    for p in network.parameters():
        yield p.name, p


def _slot_tag(slot: str) -> str:
    # SGD's velocity keeps the historical "momentum/" key so snapshots
    # written before the slot-based optimizer API still load.
    return "momentum" if slot == "velocity" else f"slot_{slot}"


def _param_store(optimizer: Optional[Optimizer]):
    # Duck-typed: StoreSlots (repro.core.param_store) carries the store;
    # nn cannot import core without a cycle.
    return getattr(getattr(optimizer, "state", None), "store", None)


def _read_param(p, optimizer: Optional[Optimizer]):
    if p.data.flags.writeable:
        return p.data
    # Read-only stub: the weights live out-of-core in a ParamStore.
    store = _param_store(optimizer)
    if store is not None:
        return store.read_param(p)
    raise RuntimeError(
        f"parameter {p.name!r} is store-backed (ParamStore attached) and no "
        f"store-aware optimizer was passed; snapshot through the optimizer "
        f"or detach the store first"
    )


def _write_param(p, optimizer: Optional[Optimizer], value) -> None:
    if p.data.flags.writeable:
        p.data[:] = value
        return
    store = _param_store(optimizer)
    if store is not None:
        store.write_param(p, value)
        return
    raise RuntimeError(
        f"parameter {p.name!r} is store-backed (ParamStore attached) and no "
        f"store-aware optimizer was passed; load through the optimizer or "
        f"detach the store first"
    )


def save_snapshot(path: str, network: Layer, optimizer: Optional[Optimizer] = None) -> None:
    """Write weights (+ BN running stats, + optimizer slots) to *path*.

    Works for resident and :class:`~repro.core.param_store.ParamStore`-
    backed training alike — store-backed weights are fetched through the
    optimizer's slot state (pass the optimizer, or detach the store,
    when parameters live out-of-core)."""
    arrays = {}
    for name, p in _named_params(network):
        arrays[f"param/{name}"] = _read_param(p, optimizer)
        if optimizer is not None:
            for slot in optimizer.slot_names:
                arrays[f"{_slot_tag(slot)}/{name}"] = optimizer.read_slot(p, slot)
    for layer in iter_layers(network):
        if isinstance(layer, BatchNorm2D):
            arrays[f"bn_mean/{layer.name}"] = layer.running_mean
            arrays[f"bn_var/{layer.name}"] = layer.running_var
    if optimizer is not None:
        arrays["opt/iteration"] = np.array(optimizer.iteration)
        arrays["opt/lr"] = np.array(optimizer.lr)
    np.savez(path, **arrays)


def load_snapshot(path: str, network: Layer, optimizer: Optional[Optimizer] = None) -> None:
    """Restore a snapshot written by :func:`save_snapshot` in place.

    The network must have the same architecture (parameter names and
    shapes are matched exactly; mismatches raise).
    """
    with np.load(path) as data:
        for name, p in _named_params(network):
            key = f"param/{name}"
            if key not in data:
                raise KeyError(f"snapshot is missing parameter {name!r}")
            if data[key].shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: snapshot {data[key].shape} "
                    f"vs model {p.data.shape}"
                )
            _write_param(p, optimizer, data[key])
            if optimizer is not None:
                for slot in optimizer.slot_names:
                    skey = f"{_slot_tag(slot)}/{name}"
                    if skey in data:
                        optimizer.write_slot(p, slot, data[skey])
        for layer in iter_layers(network):
            if isinstance(layer, BatchNorm2D):
                if f"bn_mean/{layer.name}" in data:
                    layer.running_mean[:] = data[f"bn_mean/{layer.name}"]
                    layer.running_var[:] = data[f"bn_var/{layer.name}"]
        if optimizer is not None and "opt/iteration" in data:
            optimizer.iteration = int(data["opt/iteration"])
            optimizer.lr = float(data["opt/lr"])
