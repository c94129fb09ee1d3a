"""Layer base class, parameters, and the saved-tensor context.

The saved-tensor context is this substrate's analog of PyTorch's
``saved_tensors_hooks``: every layer stores the tensors it needs for its
backward pass through a pluggable ``pack``/``unpack`` pair.  The default
context keeps plain references; the paper's framework
(:mod:`repro.core.activation_store`) swaps in a context that compresses on
``pack`` (forward pass) and decompresses on ``unpack`` (backward pass) —
exactly the interception point the paper instruments in Caffe/TensorFlow.

A layer that consumes a saved tensor one batch slice at a time (the
convolution's backward) pops it with :meth:`Layer._pop_rows` instead:
the context hands back rows to ``read`` range by range, so a
compressing context can reconstruct each range only when it is
consumed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

__all__ = ["Parameter", "SavedRows", "SavedTensorContext", "Layer"]


class Parameter:
    """A trainable tensor with its gradient accumulator."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data: np.ndarray, name: str = "param"):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.data.shape})"


class SavedRows:
    """A saved tensor read one range of its leading axis at a time.

    ``read(rows, out=None)`` returns rows ``rows`` (a ``slice``), copied
    into *out* when given.  This one holds the whole array and hands out
    views of it; a context may return any context manager that enters as
    an object with the same ``shape``, ``dtype`` and ``read``.
    """

    def __init__(self, arr: np.ndarray):
        self.shape, self.dtype, self._arr = arr.shape, arr.dtype, arr

    def read(self, rows: slice, out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            return self._arr[rows]
        out[...] = self._arr[rows]
        return out

    def __enter__(self) -> "SavedRows":
        return self

    def __exit__(self, *exc) -> None:
        pass


class SavedTensorContext:
    """Default pass-through storage for tensors saved for backward."""

    def pack(self, layer: "Layer", key: str, arr: np.ndarray):
        """Called on forward when *layer* saves *arr*; returns a handle."""
        return arr

    def unpack(self, layer: "Layer", key: str, handle) -> np.ndarray:
        """Called on backward to recover the tensor from its handle."""
        return handle

    def unpack_rows(self, layer: "Layer", key: str, handle) -> SavedRows:
        """Called on backward to read the tensor behind *handle* a range
        of rows at a time: a context manager whose ``with`` block reads
        them; leaving it, on any path, is the end of the handle.  By
        default: :meth:`unpack`, whole."""
        return SavedRows(self.unpack(layer, key, handle))

    def discard(self, layer: "Layer", key: str, handle) -> None:
        """Called when a handle is dropped without being unpacked."""


_DEFAULT_CTX = SavedTensorContext()


class Layer:
    """Base class: forward/backward pair over NumPy arrays.

    Subclasses implement :meth:`forward` and :meth:`backward`; tensors
    needed by backward must go through :meth:`_save` and :meth:`_pop` /
    :meth:`_pop_rows` so memory policies can intercept them.
    """

    #: True for layers whose saved input is a large conv activation —
    #: the tensors the paper targets for compression.
    compressible = False
    #: False only while a ``Trainer`` step runs the layer that reads the
    #: data batch: nobody consumes that gradient, so ``backward`` may
    #: return ``None`` instead of computing it, and a compressing context
    #: keeps the layer's saved input (the caller's batch) by reference.
    needs_input_grad = True

    _instance_counter = 0

    def __init__(self, name: Optional[str] = None):
        if name is None:
            # Unique default names: per-layer statistics (error bounds,
            # loss scales, memory records) are keyed by name.
            Layer._instance_counter += 1
            name = f"{type(self).__name__}_{Layer._instance_counter}"
        self.name = name
        self.training = True
        self.saved_ctx: SavedTensorContext = _DEFAULT_CTX
        self._saved: Dict[str, object] = {}

    # -- lifecycle --------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def parameters(self) -> List[Parameter]:
        return []

    def train(self, flag: bool = True) -> "Layer":
        self.training = flag
        return self

    def eval(self) -> "Layer":
        return self.train(False)

    # -- saved-tensor plumbing ---------------------------------------------
    def _save(self, key: str, arr: np.ndarray) -> None:
        # a handle still here belongs to a forward whose backward never ran
        if key in self._saved:
            self.saved_ctx.discard(self, key, self._saved.pop(key))
        self._saved[key] = self.saved_ctx.pack(self, key, arr)

    def _pop(self, key: str) -> np.ndarray:
        """Load and release a saved tensor (normal backward-pass use)."""
        handle = self._saved.pop(key)
        return self.saved_ctx.unpack(self, key, handle)

    def _pop_rows(self, key: str) -> SavedRows:
        """Pop a saved tensor to read a leading-axis range at a time
        (``rows.read(slice, out=None)``) inside the ``with`` block of the
        context manager this returns."""
        return self.saved_ctx.unpack_rows(self, key, self._saved.pop(key))

    def clear_saved(self) -> None:
        for key, handle in self._saved.items():
            self.saved_ctx.discard(self, key, handle)
        self._saved.clear()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"
