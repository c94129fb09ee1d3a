"""Declarative session configuration: the serializable half of the front door.

A :class:`SessionConfig` describes *everything* a compressed-training
session is made of — default codec, per-layer policy rules, storage
budgets, kernel backend, adaptive controller, profiler, optimizer —
as a tree of plain dataclasses that round-trips losslessly through
``dict`` and JSON:

    cfg = SessionConfig(
        codec=CodecSpec("szlike", {"entropy": "huffman"}),
        rules=[PolicyRule(match="l0", codec=CodecSpec("lossless")),
               PolicyRule(match="l[24]", error_bound=1e-4)],
        storage=StorageSpec(activations="arena", budget_bytes=8 << 20),
    )
    cfg.to_json("run.json")
    ...
    session = build_session(network, SessionConfig.from_json("run.json"))

Design rules:

* **Registry-keyed construction** — codecs are named by their
  :mod:`repro.compression.registry` key plus a kwargs dict, never by
  live objects, so a committed JSON file reproduces a run exactly.
* **Strict parsing** — :meth:`SessionConfig.from_dict` rejects unknown
  keys and wrong types with errors that name the offending section and
  list what *is* accepted; a typo'd knob fails loudly at load time, not
  silently at iteration 400.  Every scalar field is checked against its
  annotation by ``validate()`` — which ``from_dict`` and
  ``build_session`` both run — so ``"false"`` is not a bool and ``"2"``
  is not an int, whether the config came from JSON or from Python.
* **Canonical serialization** — ``to_dict`` emits only non-default
  fields, so ``from_dict(to_dict(cfg))`` is identity and two configs
  compare equal iff their dicts do.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import re
import typing
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.error_model import THEORY_COEFFICIENT_A

__all__ = [
    "CodecSpec",
    "PolicyRule",
    "StorageSpec",
    "EngineSpec",
    "AdaptiveSpec",
    "ProfilerSpec",
    "SanitizerSpec",
    "OptimizerSpec",
    "DistributedSpec",
    "ServerSpec",
    "SessionConfig",
    "check_scalar_types",
]


# ---------------------------------------------------------------------------
# Strict-parsing helpers
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    """A config that cannot be built, with an actionable message."""


def _check_keys(d: Dict[str, Any], cls, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(
            f"{where}: expected a mapping, got {type(d).__name__}"
        )
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"accepted keys: {', '.join(sorted(allowed))}"
        )


def _defaults(cls) -> Dict[str, Any]:
    out = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            out[f.name] = f.default
        elif f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            out[f.name] = f.default_factory()  # type: ignore[misc]
    return out


_NONE = type(None)
_TYPE_NAMES = {bool: "a bool", int: "an int", float: "a number", str: "a string", _NONE: "null"}


@functools.lru_cache(maxsize=None)
def _field_types(cls) -> Tuple[Dict[str, tuple], Dict[str, Tuple[type, bool]]]:
    """``(scalars, sections)`` of a config dataclass, read from its
    annotations: scalar field -> the types it admits (``Optional[int]``
    is ``(int, NoneType)``), and nested-section field -> ``(section
    class, is a list of them)``."""
    hints = typing.get_type_hints(cls)
    scalars: Dict[str, tuple] = {}
    sections: Dict[str, Tuple[type, bool]] = {}
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        args = typing.get_args(tp) if typing.get_origin(tp) is Union else (tp,)
        if all(a in _TYPE_NAMES for a in args):
            scalars[f.name] = args
            continue
        many = typing.get_origin(tp) is list
        inner = typing.get_args(tp) if many else [a for a in args if a is not _NONE]
        if len(inner) == 1 and isinstance(inner[0], type) and issubclass(inner[0], _Section):
            sections[f.name] = (inner[0], many)
    return scalars, sections


def _admits(tp: type, value: Any) -> bool:
    if tp is bool or isinstance(value, bool):
        return tp is bool and isinstance(value, bool)  # a bool is not an int
    if tp is float:
        return isinstance(value, (int, float))  # an int is a number
    return isinstance(value, tp)


def check_scalar_types(spec, where: str) -> None:
    """Raise :class:`ConfigError` unless every scalar field of the config
    dataclass *spec* holds a value its annotation admits.  Range and
    choice checks are each section's own."""
    for name, types in _field_types(type(spec))[0].items():
        value = getattr(spec, name)
        if not any(_admits(tp, value) for tp in types):
            expected = " or ".join(_TYPE_NAMES[tp] for tp in types)
            raise ConfigError(f"{where}: {name} must be {expected}, got {value!r}")


class _Section:
    """The contract every config section shares.

    * ``validate(where)`` — the scalar type check, each nested section's
      own ``validate``, then the section's range / choice / cross-field
      checks (:meth:`_check`); errors name *where*.
    * ``from_dict(d, where)`` — unknown keys rejected with the accepted
      list, nested sections parsed, the result validated.
    * ``to_dict()`` — sparse: default-valued fields are omitted, so
      ``from_dict(to_dict(spec)) == spec``.
    """

    #: the location errors name when the caller passes none
    _name = ""

    @classmethod
    def _prefix(cls, where: str) -> str:
        """How a nested section's location extends *where*."""
        return f"{where}."

    def validate(self, where: Optional[str] = None):
        where = where or self._name
        check_scalar_types(self, where)
        prefix = self._prefix(where)
        for name, (section, many) in _field_types(type(self))[1].items():
            value = getattr(self, name)
            if many and not isinstance(value, list):
                raise ConfigError(f"{prefix}{name}: expected a list, got {type(value).__name__}")
            items = value if many else [] if value is None else [value]
            for i, item in enumerate(items):
                at = f"{prefix}{name}[{i}]" if many else prefix + name
                if not isinstance(item, section):
                    raise ConfigError(
                        f"{at}: expected a {section.__name__}, got {type(item).__name__}"
                    )
                item.validate(at)
        self._check(where)
        return self

    def _check(self, where: str) -> None:
        """Range, choice and cross-field checks (the types already hold)."""

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        defaults = _defaults(type(self))
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name in defaults and value == defaults[f.name]:
                continue
            if isinstance(value, _Section):
                value = value.to_dict()
            elif isinstance(value, list):
                value = [v.to_dict() if isinstance(v, _Section) else v for v in value]
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, d: Dict[str, Any], where: Optional[str] = None):
        where = where or cls._name
        _check_keys(d, cls, where)
        d = dict(d)
        prefix = cls._prefix(where)
        for name, (section, many) in _field_types(cls)[1].items():
            if name not in d:
                continue
            if not many:
                d[name] = section.from_dict(d[name], prefix + name)
            elif isinstance(d[name], list):
                d[name] = [
                    section.from_dict(v, f"{prefix}{name}[{i}]") for i, v in enumerate(d[name])
                ]
            else:
                raise ConfigError(
                    f"{prefix}{name}: expected a list, got {type(d[name]).__name__}"
                )
        return cls(**d).validate(where)


def _require_codec(spec: "CodecSpec", where: str, props: Tuple[str, ...], problem: str) -> None:
    """Build *spec* once and require one of the codec properties *props*
    (``lossless``, ``error_bounded``), closing the probe afterwards (a
    process-pool chunked codec forks its pool eagerly)."""
    from repro.compression.registry import get_codec

    probe = get_codec(spec.name, **spec.options)
    try:
        if not any(getattr(probe, p, False) for p in props):
            raise ConfigError(f"{where}: {spec.name!r} {problem}")
    finally:
        close = getattr(probe, "close", None)
        if callable(close):
            close()


# ---------------------------------------------------------------------------
# Leaf specs
# ---------------------------------------------------------------------------


@dataclass
class CodecSpec(_Section):
    """A codec named by registry key + constructor options.

    ``CodecSpec("szlike", {"error_bound": 1e-4, "entropy": "zlib"})`` is
    ``get_codec("szlike", error_bound=1e-4, entropy="zlib")``, but
    serializable.
    """

    _name = "codec"

    name: str = "szlike"
    options: Dict[str, Any] = field(default_factory=dict)

    def _check(self, where: str) -> None:
        from repro.compression.registry import available_codecs

        if self.name.lower() not in available_codecs():
            raise ConfigError(
                f"{where}: unknown codec {self.name!r}; "
                f"available: {', '.join(available_codecs())}"
            )
        if not isinstance(self.options, dict) or not all(
            isinstance(k, str) for k in self.options
        ):
            raise ConfigError(f"{where}: options must be a mapping with string keys")
        try:
            json.dumps(self.options)
        except TypeError as exc:
            raise ConfigError(
                f"{where}: options must be JSON-serializable ({exc}); "
                f"pass declarative values, not live objects"
            ) from None

    def build(self):
        from repro.compression.registry import get_codec

        self.validate()
        try:
            return get_codec(self.name, **self.options)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"codec {self.name!r}: {exc}") from exc


def _require_grad_codec(spec: CodecSpec, where: str) -> None:
    """A gradient codec must keep the exchange's accuracy contract:
    either a per-element error bound (lossy-bounded, szlike-style) or a
    bit-exact round-trip (lossless).  Unbounded lossy codecs (jpeg) have
    no story for how far the averaged gradient can drift."""
    _require_codec(
        spec,
        where,
        ("error_bounded", "lossless"),
        "is lossy without an error bound; gradient exchange needs an "
        "error-bounded ('szlike', 'chunked') or lossless ('lossless', "
        "'sparse-lossless') codec",
    )


@dataclass
class PolicyRule(_Section):
    """One per-layer policy: glob-matched layers get their own regime.

    First match wins across ``SessionConfig.rules``; unmatched layers
    fall back to the session defaults.

    Parameters
    ----------
    match:
        Pattern over layer names.  With the default
        ``match_kind="glob"`` it is an :mod:`fnmatch` glob (``"l0"``,
        ``"l1?"``, ``"conv*"``); with ``match_kind="regex"`` it is a
        full-match :mod:`re` pattern (``"l[0-9]+"``), validated at
        config-parse time.
    match_kind:
        ``"glob"`` (default) or ``"regex"``.
    label:
        Accounting-group name (auto ``"rule<i>"`` when empty) — per-rule
        raw/stored bytes appear under it in
        ``MemoryTracker.group_summary()``.
    codec:
        Codec for matched layers; ``None`` inherits the session codec.
    error_bound:
        Fixed absolute bound for matched layers.  A fixed bound pins
        the layers — the controller skips them — and therefore
        contradicts ``adaptive=True`` (validation rejects the
        combination; use ``initial_rel_eb`` for an adaptive warm start).
    adaptive:
        ``None`` (default) resolves to ``error_bound is None``.
    storage:
        ``"arena"`` / ``"inmem"`` / ``None`` (inherit session storage).
    initial_rel_eb, eb_min, eb_max:
        Per-rule warm-up bound and controller clamp overrides.
    arena_budget:
        In-memory sub-budget (bytes) for this rule's packed activations,
        carved out of the session arena — matched layers spill to disk
        once their group exceeds it, independently of the global
        ``storage.budget_bytes``.  Requires arena-backed activations.
    grad_codec:
        Codec for the matched layers' **gradients** in a data-parallel
        exchange (``distributed.world_size > 1``); ``None`` inherits
        ``distributed.grad_codec``.  Must be error-bounded or lossless —
        the same contract the session-wide gradient codec obeys.
    kernel_backend:
        Kernel backend (``"numpy"``/``"numba"``/``"auto"``) for the
        matched layers' codec; ``None`` inherits
        ``engine.kernel_backend``.  Applies to szlike-family codecs
        (directly or inside ``chunked``); other codecs ignore it.
    """

    _name = "rule"

    match: str = "*"
    match_kind: str = "glob"
    label: str = ""
    codec: Optional[CodecSpec] = None
    error_bound: Optional[float] = None
    adaptive: Optional[bool] = None
    storage: Optional[str] = None
    initial_rel_eb: Optional[float] = None
    eb_min: Optional[float] = None
    eb_max: Optional[float] = None
    arena_budget: Optional[int] = None
    grad_codec: Optional[CodecSpec] = None
    kernel_backend: Optional[str] = None

    def resolved_adaptive(self) -> bool:
        return self.adaptive if self.adaptive is not None else self.error_bound is None

    def _check(self, where: str) -> None:
        if not self.match:
            raise ConfigError(f"{where}: match must be a non-empty pattern string")
        if self.match_kind not in ("glob", "regex"):
            raise ConfigError(
                f"{where}: match_kind must be 'glob' or 'regex', "
                f"got {self.match_kind!r}"
            )
        if self.match_kind == "regex":
            try:
                re.compile(self.match)
            except re.error as exc:
                raise ConfigError(
                    f"{where}: invalid regex {self.match!r}: {exc}"
                ) from None
        if self.error_bound is not None and self.error_bound <= 0:
            raise ConfigError(
                f"{where}: error_bound must be positive, got {self.error_bound}"
            )
        if self.storage not in (None, "arena", "inmem"):
            raise ConfigError(
                f"{where}: storage must be 'arena', 'inmem', or omitted, "
                f"got {self.storage!r}"
            )
        if self.resolved_adaptive() and self.error_bound is not None:
            raise ConfigError(
                f"{where}: adaptive=True contradicts a fixed error_bound; "
                f"drop one (a fixed bound implies adaptive=False)"
            )
        for attr in ("initial_rel_eb", "eb_min", "eb_max"):
            v = getattr(self, attr)
            if v is not None and v <= 0:
                raise ConfigError(f"{where}: {attr} must be positive, got {v}")
        if self.eb_min is not None and self.eb_max is not None and self.eb_max <= self.eb_min:
            raise ConfigError(
                f"{where}: need eb_min < eb_max, got {self.eb_min} >= {self.eb_max}"
            )
        if self.arena_budget is not None:
            if self.arena_budget <= 0:
                raise ConfigError(
                    f"{where}: arena_budget must be a positive int or omitted, "
                    f"got {self.arena_budget!r}"
                )
            if self.storage == "inmem":
                raise ConfigError(
                    f"{where}: arena_budget requires arena storage, but the "
                    f"rule pins storage='inmem'"
                )
        if self.grad_codec is not None:
            _require_grad_codec(self.grad_codec, f"{where}.grad_codec")
        if self.kernel_backend is not None:
            from repro.kernels import KERNEL_BACKENDS

            if self.kernel_backend not in KERNEL_BACKENDS:
                raise ConfigError(
                    f"{where}: kernel_backend must be one of {KERNEL_BACKENDS} "
                    f"or omitted, got {self.kernel_backend!r}"
                )


@dataclass
class StorageSpec(_Section):
    """Where packed activations and parameters physically live.

    ``activations="arena"`` serializes packed activations into a
    budgeted :class:`~repro.core.arena.ByteArena` (spill-to-disk
    overflow, byte-exact tracker numbers); ``params="arena"`` moves
    weights and optimizer slots into a :class:`~repro.core.param_store.ParamStore`.
    """

    _name = "storage"

    activations: str = "inmem"  # "inmem" | "arena"
    budget_bytes: int = 64 << 20
    spill_dir: Optional[str] = None
    params: str = "resident"  # "resident" | "arena"
    param_budget_bytes: int = 64 << 20
    param_codec: Optional[CodecSpec] = None
    param_dirty_tracking: bool = True

    def _check(self, where: str) -> None:
        if self.activations not in ("inmem", "arena"):
            raise ConfigError(
                f"{where}: activations must be 'inmem' or 'arena', "
                f"got {self.activations!r}"
            )
        if self.params not in ("resident", "arena"):
            raise ConfigError(
                f"{where}: params must be 'resident' or 'arena', got {self.params!r}"
            )
        for attr in ("budget_bytes", "param_budget_bytes"):
            v = getattr(self, attr)
            if v < 0:
                raise ConfigError(f"{where}: {attr} must be an int >= 0, got {v!r}")
        if self.param_codec is not None:
            _require_codec(
                self.param_codec,
                f"{where}.param_codec",
                ("lossless",),
                "is lossy; parameters must round-trip bit-exactly "
                "(use 'lossless' or 'sparse-lossless')",
            )


#: ``engine`` keys of the removed thread-overlap engine that are still
#: accepted, and ignored: the committed ``benchmarks/e2e/configs/train_ooc.json``
#: names all three (``train_sz.json`` names ``kind``) and may not be edited
_IGNORED_ENGINE_KEYS = ("kind", "workers", "unpack_depth")


@dataclass
class EngineSpec(_Section):
    """How the codec work runs: inline on the training thread, with
    ``kernel_backend`` picking the compiled-kernel implementation for
    szlike-family codecs (``"auto"`` probes Numba and falls back to NumPy
    — see :mod:`repro.kernels`) and ``shared_codebook_cache`` upgrading
    process-pool chunked codecs to a cross-process codebook segment.
    """

    _name = "engine"

    shared_codebook_cache: bool = False
    kernel_backend: str = "auto"

    def _check(self, where: str) -> None:
        from repro.kernels import KERNEL_BACKENDS

        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ConfigError(
                f"{where}: kernel_backend must be one of {KERNEL_BACKENDS}, "
                f"got {self.kernel_backend!r}"
            )

    @classmethod
    def from_dict(cls, d: Dict[str, Any], where: Optional[str] = None):
        if isinstance(d, dict):
            d = {k: v for k, v in d.items() if k not in _IGNORED_ENGINE_KEYS}
        return super().from_dict(d, where)


@dataclass
class AdaptiveSpec(_Section):
    """The Eq. 8/9 controller's knobs (defaults match
    ``CompressedTraining``'s: the paper's values with W scaled to
    CPU-sized runs)."""

    _name = "adaptive"

    enabled: bool = True
    W: int = 50
    sigma_fraction: float = 0.01
    #: Eq. 9 coefficient (the exact rms convention's 1/sqrt(3)); exposed
    #: so ablation configs round-trip too
    coefficient: float = float(THEORY_COEFFICIENT_A)
    initial_rel_eb: float = 1e-3
    warmup_iterations: int = 5
    eb_min: float = 1e-10
    eb_max: float = 10.0
    min_nonzero_ratio: float = 1e-3

    def _check(self, where: str) -> None:
        try:
            self.to_adaptive_config()
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None

    def to_adaptive_config(self):
        from repro.core.adaptive import AdaptiveConfig

        return AdaptiveConfig(
            W=self.W,
            sigma_fraction=self.sigma_fraction,
            coefficient=self.coefficient,
            initial_rel_eb=self.initial_rel_eb,
            warmup_iterations=self.warmup_iterations,
            eb_min=self.eb_min,
            eb_max=self.eb_max,
            min_nonzero_ratio=self.min_nonzero_ratio,
        )


@dataclass
class ProfilerSpec(_Section):
    """Hot-path stage profiling for the run: the codec's quantize /
    predict / encode / decode stages, byte-arena I/O and a ``step``
    stage per iteration, read through ``session.profiler``."""

    _name = "profiler"

    enabled: bool = False


@dataclass
class SanitizerSpec(_Section):
    """Runtime sanitizer for the session (:mod:`repro.core.sanitizer`).

    When ``enabled``, ``build_session`` turns the sanitizer on *before*
    constructing the stack, so every arena/scratch/codebook/param-store
    lock is order-tracked (deadlock cycles raise
    :class:`~repro.core.sanitizer.LockOrderError`), released buffers are
    NaN-poisoned, and arena double-releases trap with acquisition-site
    tracebacks.  The sanitizer is process-wide and sticky — objects
    instrumented for this session stay instrumented (the same switch the
    ``REPRO_SANITIZE=1`` environment variable flips at import time).
    Meant for CI/stress runs, not production: poisoning copies buffers
    on ``put`` and every lock acquire takes a graph check.
    """

    _name = "sanitizer"

    enabled: bool = False
    poison: bool = True
    lock_order: bool = True
    trap_double_release: bool = True


@dataclass
class OptimizerSpec(_Section):
    """Optimizer construction, so a config fully determines a run."""

    _name = "optimizer"

    kind: str = "sgd"  # "sgd" | "adam"
    lr: float = 0.01
    momentum: float = 0.9  # sgd only
    weight_decay: float = 0.0
    options: Dict[str, Any] = field(default_factory=dict)  # extras (adam betas/eps)

    def _check(self, where: str) -> None:
        if self.kind not in ("sgd", "adam"):
            raise ConfigError(
                f"{where}: kind must be 'sgd' or 'adam', got {self.kind!r}"
            )
        if self.lr <= 0:
            raise ConfigError(f"{where}: lr must be positive, got {self.lr}")
        try:
            json.dumps(self.options)
        except TypeError as exc:
            raise ConfigError(f"{where}: options must be JSON-serializable ({exc})") from None

    def build(self, params):
        from repro.nn.optim import SGD, Adam

        self.validate()
        try:
            if self.kind == "sgd":
                return SGD(
                    params,
                    lr=self.lr,
                    momentum=self.momentum,
                    weight_decay=self.weight_decay,
                    **self.options,
                )
            opts = dict(self.options)
            if "betas" in opts:
                opts["betas"] = tuple(opts["betas"])
            return Adam(params, lr=self.lr, weight_decay=self.weight_decay, **opts)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"optimizer {self.kind!r}: {exc}") from exc


@dataclass
class DistributedSpec(_Section):
    """Data-parallel training across process-based worker ranks.

    ``world_size > 1`` makes :func:`~repro.api.session.build_session`
    spawn that many rank processes, each with its own
    ``ParamStore``/``ByteArena``, and exchange gradients through
    the codec registry every step — the paper's bounded-lossy thesis
    applied to the dominant cost of data parallelism.

    Parameters
    ----------
    world_size:
        Number of worker ranks (``1`` = single-process, the spec is
        inert).
    grad_codec:
        Codec for the gradient exchange; ``None`` resolves to
        ``sparse-lossless`` (bit-exact).  Must be error-bounded
        (``szlike``, ``chunked``) or lossless — unbounded lossy codecs
        (``jpeg``) are rejected.  Per-layer overrides live on
        ``PolicyRule.grad_codec``.
    error_feedback:
        Keep a per-layer residual of what compression dropped and add
        it back into the next step's gradient before compressing, so
        the *accumulated* applied gradient tracks the true one and
        convergence matches the single-worker run within the bound.
    reduce_order:
        ``"tree"`` (fixed binary rank-tree) or ``"linear"`` (left fold
        over ranks).  Both are deterministic — the choice only changes
        the float-summation order, and therefore which bit-exact result
        a committed config reproduces.
    rank_arena_budget:
        Per-rank override (bytes) for ``storage.budget_bytes`` so N
        rank arenas don't multiply the single-process budget; ``None``
        inherits the session storage budget unchanged.
    """

    _name = "distributed"

    world_size: int = 1
    grad_codec: Optional[CodecSpec] = None
    error_feedback: bool = True
    reduce_order: str = "tree"  # "tree" | "linear"
    rank_arena_budget: Optional[int] = None

    def resolved_grad_codec(self) -> CodecSpec:
        """The codec the exchange actually uses (default: bit-exact)."""
        if self.grad_codec is not None:
            return self.grad_codec
        return CodecSpec("sparse-lossless")

    def _check(self, where: str) -> None:
        if self.world_size < 1:
            raise ConfigError(
                f"{where}: world_size must be an int >= 1, got {self.world_size!r}"
            )
        if self.grad_codec is not None:
            _require_grad_codec(self.grad_codec, f"{where}.grad_codec")
        if self.reduce_order not in ("tree", "linear"):
            raise ConfigError(
                f"{where}: reduce_order must be 'tree' or 'linear', "
                f"got {self.reduce_order!r}"
            )
        if self.rank_arena_budget is not None and self.rank_arena_budget <= 0:
            raise ConfigError(
                f"{where}: rank_arena_budget must be a positive int or "
                f"omitted, got {self.rank_arena_budget!r}"
            )


@dataclass
class ServerSpec(_Section):
    """One multi-tenant :class:`~repro.server.SessionServer`'s knobs.

    Not a :class:`SessionConfig` section — a server *hosts* many session
    configs — but the same strict-parsing/sparse-serialization contract:
    ``ServerSpec.from_dict(spec.to_dict())`` is identity, unknown keys
    fail loudly, and a live server re-serializes its spec via
    ``server.capture()``.

    Parameters
    ----------
    pool_budget_bytes:
        The one shared in-memory byte budget every tenant's arena is
        carved out of (:class:`~repro.core.arena.ArenaPool`).
    max_tenants:
        Hard cap on simultaneously admitted tenants.
    admission:
        What happens to a tenant whose declared budget would oversubscribe
        the pool beyond *overcommit*: ``"reject"`` raises
        :class:`~repro.server.AdmissionError`; ``"queue"`` parks the
        tenant until an eviction frees budget.
    overcommit:
        Admission tolerance for oversubscription: tenants are admitted
        while ``sum(declared budgets) <= pool_budget_bytes * overcommit``.
        ``1.0`` never oversubscribes; a production host relies on the
        pool's fair spill and runs at 2-8x.
    queue_depth:
        Per-tenant cap on pending step requests; submits beyond it are
        rejected (backpressure instead of unbounded memory growth).
    workers:
        Scheduler worker threads.  Each tenant's requests always run
        serially in FIFO order regardless of worker count (per-tenant
        determinism); workers add cross-tenant concurrency only.
    max_batch_requests:
        Request batching: up to this many consecutive queued requests of
        one tenant run per dispatch before the scheduler round-robins to
        the next tenant — amortizes per-dispatch overhead under load
        without starving anyone.
    shared_codebook_cache:
        Give every szlike-family tenant codec one shared codebook
        segment, so tenant B adopts the canonical Huffman books tenant A
        already built (reconstruction stays bit-identical; only the
        entropy-stage build cost is shared).
    spill_dir:
        Pool spill directory (defaults to an owned temp dir).
    host, port:
        Bind address for :func:`repro.server.serve`'s HTTP/JSON metrics
        endpoint (``port=0`` = ephemeral).
    """

    _name = "server"

    pool_budget_bytes: int = 64 << 20
    max_tenants: int = 8
    admission: str = "reject"  # "reject" | "queue"
    overcommit: float = 1.0
    queue_depth: int = 64
    workers: int = 1
    max_batch_requests: int = 1
    shared_codebook_cache: bool = True
    spill_dir: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 0

    def _check(self, where: str) -> None:
        if self.pool_budget_bytes < 0:
            raise ConfigError(
                f"{where}: pool_budget_bytes must be an int >= 0, "
                f"got {self.pool_budget_bytes!r}"
            )
        for attr in ("max_tenants", "queue_depth", "workers", "max_batch_requests"):
            v = getattr(self, attr)
            if v < 1:
                raise ConfigError(f"{where}: {attr} must be an int >= 1, got {v!r}")
        if self.admission not in ("reject", "queue"):
            raise ConfigError(
                f"{where}: admission must be 'reject' or 'queue', "
                f"got {self.admission!r}"
            )
        if self.overcommit < 1.0:
            raise ConfigError(
                f"{where}: overcommit must be a number >= 1.0, "
                f"got {self.overcommit!r}"
            )
        if not self.host:
            raise ConfigError(f"{where}: host must be a non-empty string")
        if not 0 <= self.port <= 65535:
            raise ConfigError(
                f"{where}: port must be an int in [0, 65535], got {self.port!r}"
            )

    @classmethod
    def from_json(cls, source: Union[str, "os.PathLike"]) -> "ServerSpec":
        """Parse from a JSON string or file path (same dual-form rule as
        :meth:`SessionConfig.from_json`)."""
        return cls.from_dict(_load_json_source(source))


def _load_json_source(source: Union[str, "os.PathLike"]) -> Dict[str, Any]:
    """JSON text-or-path loader shared by the config entry points."""
    if isinstance(source, os.PathLike) or (
        isinstance(source, str) and not source.lstrip().startswith("{")
    ):
        path = os.fspath(source)
        if not os.path.exists(path):
            raise ConfigError(
                f"config file {path!r} does not exist "
                f"(pass a JSON object string or a valid path)"
            )
        with open(path) as f:
            text = f.read()
    else:
        text = source
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# The root
# ---------------------------------------------------------------------------


@dataclass
class SessionConfig(_Section):
    """Declarative description of one compressed-training session.

    ``build_session(network, config)`` turns it into a live
    :class:`~repro.api.session.Session`; :meth:`to_json` /
    :meth:`from_json` make runs reproducible from a committed file.
    """

    _name = "session"

    codec: CodecSpec = field(default_factory=CodecSpec)
    rules: List[PolicyRule] = field(default_factory=list)
    storage: StorageSpec = field(default_factory=StorageSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    adaptive: AdaptiveSpec = field(default_factory=AdaptiveSpec)
    profiler: ProfilerSpec = field(default_factory=ProfilerSpec)
    sanitizer: SanitizerSpec = field(default_factory=SanitizerSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    distributed: DistributedSpec = field(default_factory=DistributedSpec)
    #: False skips activation compression entirely (the session is then
    #: a plain trainer, optionally with out-of-core parameters /
    #: profiler)
    compress_activations: bool = True

    @classmethod
    def _prefix(cls, where: str) -> str:
        return ""  # the root's sections are named bare: "engine", "rules[0]"

    def _check(self, where: str) -> None:
        labels = set()
        for i, rule in enumerate(self.rules):
            label = rule.label or f"rule{i}"
            if label in labels:
                raise ConfigError(f"rules[{i}]: duplicate rule label {label!r}")
            labels.add(label)
            if rule.storage == "arena" and self.storage.activations != "arena":
                raise ConfigError(
                    f"rules[{i}] (match={rule.match!r}): storage='arena' needs "
                    f"storage.activations='arena' on the session (no arena is "
                    f"configured to put the bytes in)"
                )
            if rule.arena_budget is not None and self.storage.activations != "arena":
                raise ConfigError(
                    f"rules[{i}] (match={rule.match!r}): arena_budget needs "
                    f"storage.activations='arena' on the session (there is no "
                    f"arena to carve the sub-budget out of)"
                )
            # A partial clamp override combines with the session's global
            # clamp at runtime — cross-check here so the pair fails at
            # load time, not at the controller's first update.
            lo = rule.eb_min if rule.eb_min is not None else self.adaptive.eb_min
            hi = rule.eb_max if rule.eb_max is not None else self.adaptive.eb_max
            if hi <= lo:
                raise ConfigError(
                    f"rules[{i}] (match={rule.match!r}): effective eb clamps are "
                    f"inverted (eb_min={lo} >= eb_max={hi}, combining the rule's "
                    f"overrides with adaptive.eb_min/eb_max)"
                )
        if self.distributed.world_size > 1:
            if (
                self.distributed.rank_arena_budget is not None
                and self.storage.activations != "arena"
            ):
                raise ConfigError(
                    "distributed: rank_arena_budget needs "
                    "storage.activations='arena' on the session (there is no "
                    "per-rank arena to apply the budget to)"
                )
        else:
            for i, rule in enumerate(self.rules):
                if rule.grad_codec is not None:
                    raise ConfigError(
                        f"rules[{i}] (match={rule.match!r}): grad_codec only "
                        f"applies to a data-parallel exchange; set "
                        f"distributed.world_size > 1"
                    )

    # -- serialization -----------------------------------------------------
    def to_json(self, path: Optional[str] = None, *, indent: int = 2) -> str:
        """JSON form; also written to *path* when given."""
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"
        if path is not None:
            with open(path, "w") as f:
                f.write(text)
        return text

    @classmethod
    def from_json(cls, source: Union[str, "os.PathLike"]) -> "SessionConfig":
        """Parse from a JSON string, or from a file path if *source*
        names an existing file."""
        return cls.from_dict(_load_json_source(source))
