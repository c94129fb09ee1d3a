"""SGD with momentum, and where its velocity lives.

The paper's gradient assessment (Section 4.2, Eq. 8) budgets the
acceptable gradient error sigma against the average SGD *momentum*, so
SGD with classical momentum is the one optimizer; the adaptive
controller reads a layer's momentum through :meth:`SGD.momentum_buffer`.

Each parameter's velocity lives behind a pluggable :class:`SlotState`
backend rather than inside the optimizer object.  The default
:class:`ResidentSlots` keeps plain arrays; the out-of-core
:class:`~repro.core.param_store.ParamStore` supplies a backend that holds
each layer's velocity as one arena-backed entry and materializes it
just-in-time around that layer's update.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence

import numpy as np

from repro.nn.layers.base import Parameter

__all__ = [
    "ResidentSlots",
    "SlotState",
    "SGD",
]


class SlotState:
    """Where each parameter's velocity physically lives.

    The optimizer updates parameters in **groups**: :meth:`groups` splits
    the parameters a step still owes an update into the sets one
    :meth:`update` window covers (all of them for resident slots; one
    network layer's for a store, whose velocity entries hold a layer
    each).  The backend decides whether the yielded velocity arrays are
    the live storage (resident) or just-in-time materializations written
    back on exit (store-backed).  :meth:`read` is the introspection path
    (Eq. 8's momentum); :meth:`init` / :meth:`drop` move velocity arrays
    in and out (state migration).
    """

    def init(self, params: Sequence[Parameter], velocities: Sequence[np.ndarray]) -> None:
        """Adopt freshly initialized (or migrated) velocity arrays, one
        per parameter."""
        raise NotImplementedError

    def groups(self, params: Sequence[Parameter]) -> List[List[Parameter]]:
        """*params* split into the sets one :meth:`update` window covers."""
        raise NotImplementedError

    @contextmanager
    def update(self, params: Sequence[Parameter]) -> Iterator[List[np.ndarray]]:
        """Yield the velocities of one group's *params* (with their
        weights materialized) for an in-place update; persist any
        mutation on exit."""
        raise NotImplementedError
        yield  # pragma: no cover

    def read(self, param: Parameter) -> np.ndarray:
        """Current velocity of *param* (live array or a fresh copy)."""
        raise NotImplementedError

    def drop(self, params: Sequence[Parameter]) -> List[np.ndarray]:
        """Remove and return every one of *params*' velocities."""
        raise NotImplementedError


class ResidentSlots(SlotState):
    """Default backend: velocities are plain resident NumPy arrays."""

    def __init__(self) -> None:
        self._velocity: Dict[int, np.ndarray] = {}

    def init(self, params: Sequence[Parameter], velocities: Sequence[np.ndarray]) -> None:
        for p, v in zip(params, velocities):
            self._velocity[id(p)] = v

    def groups(self, params: Sequence[Parameter]) -> List[List[Parameter]]:
        return [list(params)] if params else []

    @contextmanager
    def update(self, params: Sequence[Parameter]) -> Iterator[List[np.ndarray]]:
        # The live arrays: in-place mutation *is* the persistence.
        yield [self._velocity[id(p)] for p in params]

    def read(self, param: Parameter) -> np.ndarray:
        return self._velocity[id(param)]

    def drop(self, params: Sequence[Parameter]) -> List[np.ndarray]:
        return [self._velocity.pop(id(p)) for p in params]


class SGD:
    """SGD with classical momentum and decoupled L2 weight decay.

    update: ``v = mu * v + g + wd * w``;  ``w -= lr * v``
    (Caffe/TensorFlow convention used by the paper's experiments).

    :meth:`update` fetches a group of parameters' velocities from the
    backend, applies the updates, and lets the backend persist the
    result — which is what allows optimizer state to live out-of-core.
    :meth:`step` updates every parameter not already updated this step,
    one backend group at a time.
    """

    #: set by the Trainer during a backward whose gradients nothing edits:
    #: a ParamStore then calls :meth:`update` inside each layer's backward
    update_in_backward: bool = False

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 0.01,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.state: SlotState = ResidentSlots()
        self.state.init(self.params, [np.zeros_like(p.data) for p in self.params])
        #: id -> parameter not yet updated in the current step
        self._pending: Dict[int, Parameter] = {id(p): p for p in self.params}

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def update(self, params: Sequence[Parameter]) -> None:
        """Apply this step's update now to those of *params* (one backend
        group) that still owe it: a parameter already updated this step,
        or not this optimizer's, is skipped."""
        todo = [p for p in params if self._pending.pop(id(p), None) is not None]
        if not todo:
            return
        with self.state.update(todo) as velocities:
            for p, v in zip(todo, velocities):
                g = p.grad
                if self.weight_decay:
                    g = g + self.weight_decay * p.data
                v *= self.momentum
                v += g
                p.data -= self.lr * v

    def step(self) -> None:
        """Update the parameters not yet updated this step."""
        for group in self.state.groups(list(self._pending.values())):
            self.update(group)
        self._pending = {id(p): p for p in self.params}

    def use_slot_state(self, state: SlotState) -> None:
        """Swap the velocity backend, migrating every parameter's current
        velocity (accumulated momentum survives the move)."""
        state.init(self.params, self.state.drop(self.params))
        self.state = state

    def momentum_buffer(self, p: Parameter) -> np.ndarray:
        """*p*'s velocity, for reading (the live array under resident
        slots; a fresh copy under a store backend)."""
        return self.state.read(p)

    def average_gradient_magnitude(self) -> float:
        """Mean |g| across all parameters (Figure 9's G-bar)."""
        total = 0.0
        count = 0
        for p in self.params:
            total += float(np.abs(p.grad).sum())
            count += p.grad.size
        return total / count if count else 0.0
