"""Optimizers and slot-based state.

Optimizer state (SGD momentum, Adam moments) lives in named per-parameter
**slots** behind a pluggable :class:`SlotState` backend rather than inside
the optimizer object.  The default :class:`ResidentSlots` keeps plain
arrays (the historical behaviour bit-for-bit); the out-of-core
:class:`~repro.core.param_store.ParamStore` supplies a backend that holds
each layer's slots as one arena-backed entry and materializes it
just-in-time around that layer's update.

SGD with momentum is first-class here because the paper's gradient
assessment (Eq. 8) budgets the acceptable gradient-error sigma against
the *average momentum magnitude* — the optimizer therefore exposes its
momentum-class slot for the framework to inspect
(:meth:`Optimizer.momentum_buffer`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.nn.layers.base import Parameter

__all__ = [
    "Optimizer",
    "ResidentSlots",
    "SlotState",
    "SGD",
    "Adam",
]


class SlotState:
    """Where the optimizer's per-parameter slots physically live.

    The optimizer updates parameters in **groups**: :meth:`groups` splits
    the parameters a step still owes an update into the sets one
    :meth:`update` window covers (all of them for resident slots; one
    network layer's for a store, whose slot entries hold a layer each).
    The backend decides whether the yielded slot dicts are the live
    storage (resident) or just-in-time materializations written back on
    exit (store-backed).  :meth:`read` is the introspection path (the
    gradient assessment's momentum); :meth:`init` / :meth:`drop` move
    slot arrays in and out (state migration).
    """

    def init(self, params: Sequence[Parameter], slots: Sequence[Dict[str, np.ndarray]]) -> None:
        """Adopt freshly initialized (or migrated) slot arrays, one dict
        per parameter."""
        raise NotImplementedError

    def groups(self, params: Sequence[Parameter]) -> List[List[Parameter]]:
        """*params* split into the sets one :meth:`update` window covers."""
        raise NotImplementedError

    @contextmanager
    def update(self, params: Sequence[Parameter]) -> Iterator[List[Dict[str, np.ndarray]]]:
        """Yield the slots of one group's *params* (with their weights
        materialized) for an in-place update; persist any mutation on
        exit."""
        raise NotImplementedError
        yield  # pragma: no cover

    def read(self, param: Parameter, slot: str) -> np.ndarray:
        """Current value of one slot (live array or a fresh copy)."""
        raise NotImplementedError

    def drop(self, params: Sequence[Parameter]) -> List[Dict[str, np.ndarray]]:
        """Remove and return every one of *params*' slot dicts."""
        raise NotImplementedError


class ResidentSlots(SlotState):
    """Default backend: slots are plain resident NumPy arrays."""

    def __init__(self) -> None:
        self._slots: Dict[int, Dict[str, np.ndarray]] = {}

    def init(self, params: Sequence[Parameter], slots: Sequence[Dict[str, np.ndarray]]) -> None:
        for p, s in zip(params, slots):
            self._slots[id(p)] = s

    def groups(self, params: Sequence[Parameter]) -> List[List[Parameter]]:
        return [list(params)] if params else []

    @contextmanager
    def update(self, params: Sequence[Parameter]) -> Iterator[List[Dict[str, np.ndarray]]]:
        # The live dicts: in-place mutation *is* the persistence.
        yield [self._slots[id(p)] for p in params]

    def read(self, param: Parameter, slot: str) -> np.ndarray:
        return self._slots[id(param)][slot]

    def drop(self, params: Sequence[Parameter]) -> List[Dict[str, np.ndarray]]:
        return [self._slots.pop(id(p)) for p in params]


class Optimizer:
    """Base: slot-based parameter updates over a pluggable state backend.

    Subclasses declare ``slot_names`` and implement :meth:`apply_update`
    (pure in-place math over ``param.data`` / ``param.grad`` / the slot
    arrays).  :meth:`update` fetches a group of parameters' slots from
    the backend, applies the updates, and lets the backend persist the
    result — which is what allows optimizer state to live out-of-core.
    :meth:`step` updates every parameter not already updated this step,
    one backend group at a time.
    """

    #: names of the per-parameter state arrays this optimizer keeps
    slot_names: Tuple[str, ...] = ()
    #: the slot the paper's gradient assessment reads as "momentum"
    momentum_slot: str = ""
    #: set by the Trainer during a backward whose gradients nothing edits:
    #: a ParamStore then calls :meth:`update` inside each layer's backward
    update_in_backward: bool = False

    def __init__(self, params: Sequence[Parameter], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)
        self.iteration = 0
        self.state: SlotState = ResidentSlots()
        self.state.init(self.params, [self.init_slots(p) for p in self.params])
        #: id -> parameter not yet updated in the current step
        self._pending: Dict[int, Parameter] = {id(p): p for p in self.params}

    # -- subclass interface ------------------------------------------------
    def init_slots(self, param: Parameter) -> Dict[str, np.ndarray]:
        """Fresh (zero) slot arrays for *param*."""
        return {name: np.zeros_like(param.data) for name in self.slot_names}

    def apply_update(self, param: Parameter, slots: Dict[str, np.ndarray]) -> None:
        """Mutate ``param.data`` (and *slots*) in place for one step."""
        raise NotImplementedError

    # -- the step ----------------------------------------------------------
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
        with self.state.update(todo) as slots:
            for p, s in zip(todo, slots):
                self.apply_update(p, s)

    def step(self) -> None:
        """Update the parameters not yet updated this step, then advance
        :attr:`iteration` once (Adam's ``t`` is the same for all)."""
        for group in self.state.groups(list(self._pending.values())):
            self.update(group)
        self.iteration += 1
        self._pending = {id(p): p for p in self.params}

    # -- state backend plumbing --------------------------------------------
    def use_slot_state(self, state: SlotState) -> None:
        """Swap the slot backend, migrating every parameter's current
        slot arrays (accumulated momentum survives the move)."""
        state.init(self.params, self.state.drop(self.params))
        self.state = state

    def read_slot(self, param: Parameter, slot: str) -> np.ndarray:
        return self.state.read(param, slot)

    # -- introspection used by the paper's framework -----------------------
    def momentum_buffer(self, p: Parameter) -> np.ndarray:
        """The momentum-class slot, for reading (the live array under
        resident slots; a fresh copy under a store backend)."""
        return self.state.read(p, self.momentum_slot)

    def average_momentum_magnitude(self) -> float:
        """Mean |momentum| across all entries (Eq. 8's M_average)."""
        total = 0.0
        count = 0
        for p in self.params:
            v = self.state.read(p, self.momentum_slot)
            total += float(np.abs(v).sum())
            count += v.size
        return total / count if count else 0.0

    def average_gradient_magnitude(self) -> float:
        """Mean |g| across all parameters (Figure 9's G-bar)."""
        total = 0.0
        count = 0
        for p in self.params:
            total += float(np.abs(p.grad).sum())
            count += p.grad.size
        return total / count if count else 0.0


class SGD(Optimizer):
    """SGD with classical momentum and decoupled L2 weight decay.

    update: ``v = mu * v + g + wd * w``;  ``w -= lr * v``
    (Caffe/TensorFlow convention used by the paper's experiments).
    """

    slot_names = ("velocity",)
    momentum_slot = "velocity"

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 0.01,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ):
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        super().__init__(params, lr)

    def apply_update(self, p: Parameter, slots: Dict[str, np.ndarray]) -> None:
        g = p.grad
        if self.weight_decay:
            g = g + self.weight_decay * p.data
        v = slots["velocity"]
        v *= self.momentum
        v += g
        p.data -= self.lr * v


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction and L2 weight decay.

    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g^2``,
    ``w -= lr * m_hat / (sqrt(v_hat) + eps)``.  Both moment slots live in
    the slot state, so Adam trains out-of-core through the same
    :class:`~repro.core.param_store.ParamStore` path as SGD.
    """

    slot_names = ("exp_avg", "exp_avg_sq")
    momentum_slot = "exp_avg"

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 0.001,
        betas: Tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        b1, b2 = betas
        if not 0.0 <= b1 < 1.0 or not 0.0 <= b2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.betas = (float(b1), float(b2))
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        super().__init__(params, lr)

    def apply_update(self, p: Parameter, slots: Dict[str, np.ndarray]) -> None:
        b1, b2 = self.betas
        t = self.iteration + 1
        g = p.grad
        if self.weight_decay:
            g = g + self.weight_decay * p.data
        m, v = slots["exp_avg"], slots["exp_avg_sq"]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
