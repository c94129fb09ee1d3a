"""Declarative session configuration: the serializable half of the front door.

A :class:`SessionConfig` describes *everything* a compressed-training
session is made of — the activation codec, storage budgets, kernel
backend, adaptive controller, profiler, optimizer —
as a tree of plain dataclasses that round-trips losslessly through
``dict`` and JSON:

    cfg = SessionConfig(
        codec=CodecSpec("szlike", {"entropy": "huffman"}),
        adaptive=AdaptiveSpec(W=20, warmup_iterations=3),
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
  is not an int, whether the config came from JSON or from Python.  A
  field declares its legal values next to its default (``knob(...,
  ge=0)``, ``knob(..., choices=(...))``), the same check enforces them,
  and every number must be finite: JSON's ``NaN`` / ``Infinity`` are
  never a knob or an error bound.
* **Canonical serialization** — ``to_dict`` emits only non-default
  fields, so ``from_dict(to_dict(cfg))`` is identity and two configs
  compare equal iff their dicts do.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
import os
import typing
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

from repro.kernels import KERNEL_BACKENDS

__all__ = [
    "CodecSpec",
    "StorageSpec",
    "EngineSpec",
    "AdaptiveSpec",
    "ProfilerSpec",
    "OptimizerSpec",
    "DistributedSpec",
    "ServerSpec",
    "SessionConfig",
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


#: a bound's keyword -> (the test a legal value passes, how errors spell it)
_BOUNDS = {
    "ge": (operator.ge, ">="),
    "gt": (operator.gt, ">"),
    "le": (operator.le, "<="),
    "lt": (operator.lt, "<"),
}


def knob(default, *, choices: Tuple[str, ...] = (), ge=None, gt=None, le=None, lt=None):
    """A scalar field's default together with its legal values: the
    *choices* a string must be one of, or the bounds a number must lie
    within.  ``validate()`` enforces them; ``None`` (an ``Optional``
    field left unset) is always legal."""
    bounds = {op: v for op, v in dict(ge=ge, gt=gt, le=le, lt=lt).items() if v is not None}
    return field(default=default, metadata={"choices": tuple(choices), "bounds": bounds})


def _violation(value: Any, legal) -> Optional[str]:
    """What *value* must be and is not, under its field's :func:`knob`
    declaration *legal* (None when it is legal).  Every float must be
    finite, declared or not."""
    if isinstance(value, float) and not math.isfinite(value):
        return "a finite number"
    if value is None or not legal:
        return None
    if legal["choices"] and value not in legal["choices"]:
        return "one of " + ", ".join(map(repr, legal["choices"]))
    bounds = legal["bounds"].items()
    if not all(_BOUNDS[op][0](value, limit) for op, limit in bounds):
        return " and ".join(f"{_BOUNDS[op][1]} {limit}" for op, limit in bounds)
    return None


@functools.lru_cache(maxsize=None)
def _field_types(cls) -> Tuple[Dict[str, tuple], Dict[str, Tuple[type, bool]]]:
    """``(scalars, sections)`` of a config dataclass, read from its
    annotations: scalar field -> ``(the types it admits, its declared
    legal values)`` (``Optional[int]`` admits ``(int, NoneType)``), and
    nested-section field -> ``(section class, is a list of them)``."""
    hints = typing.get_type_hints(cls)
    scalars: Dict[str, tuple] = {}
    sections: Dict[str, Tuple[type, bool]] = {}
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        args = typing.get_args(tp) if typing.get_origin(tp) is Union else (tp,)
        if all(a in _TYPE_NAMES for a in args):
            scalars[f.name] = (args, f.metadata)
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


class _Section:
    """The contract every config section shares.

    * ``validate(where)`` — every scalar field holds a value its
      annotation admits and its :func:`knob` declaration allows (a float
      is always finite), each nested section's own ``validate`` passes,
      then the section's cross-field checks (:meth:`_check`); errors
      name *where*.
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
        scalars, sections = _field_types(type(self))
        for name, (types, legal) in scalars.items():
            value = getattr(self, name)
            if any(_admits(tp, value) for tp in types):
                expected = _violation(value, legal)
            else:
                expected = " or ".join(_TYPE_NAMES[tp] for tp in types)
            if expected:
                raise ConfigError(f"{where}: {name} must be {expected}, got {value!r}")
        prefix = self._prefix(where)
        for name, (section, many) in sections.items():
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
        """Cross-field checks and codec probes (each field already holds
        a legal value)."""

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
    (``lossless``, ``error_bounded``); a codec its options cannot build
    is a :class:`ConfigError` naming *where*."""
    try:
        probe = spec.build()
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if not any(getattr(probe, p, False) for p in props):
        raise ConfigError(f"{where}: {spec.name!r} {problem}")


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

    @classmethod
    def from_dict(cls, d: Dict[str, Any], where: Optional[str] = None):
        # The committed benchmarks/e2e/configs/{train_sz,train_ooc,server_hosted}.json
        # name the removed opt-in cache; ROADMAP D's cleanup deletes this with the engine keys.
        options = d.get("options") if isinstance(d, dict) else None
        if isinstance(options, dict) and options.get("codebook_cache") is True:
            d = {**d, "options": {k: v for k, v in options.items() if k != "codebook_cache"}}
        return super().from_dict(d, where)

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

    def build(self, kernel_backend: Optional[str] = None):
        """The codec, with *kernel_backend* (a session's
        ``engine.kernel_backend``) routed to its szlike kernels unless
        the options name a backend of their own.  Codecs without a
        kernel backend (lossless, jpeg) ignore it; an unavailable one
        (``"numba"`` without numba installed) is a :class:`ConfigError`
        naming ``engine.kernel_backend``."""
        from repro.compression.registry import get_codec

        self.validate()
        try:
            codec = get_codec(self.name, **self.options)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"codec {self.name!r}: {exc}") from exc
        routed = kernel_backend is not None and "kernel_backend" not in self.options
        if routed and hasattr(codec, "set_kernel_backend"):
            try:
                codec.set_kernel_backend(kernel_backend)
            except ValueError as exc:
                raise ConfigError(f"engine.kernel_backend: {exc}") from exc
        return codec


@dataclass
class StorageSpec(_Section):
    """Where packed activations and parameters physically live.

    ``activations="arena"`` serializes packed activations into a
    budgeted :class:`~repro.core.arena.ByteArena` (spill-to-disk
    overflow, byte-exact tracker numbers); ``params="arena"`` moves
    weights and optimizer slots into a :class:`~repro.core.param_store.ParamStore`.
    """

    _name = "storage"

    activations: str = knob("inmem", choices=("inmem", "arena"))
    budget_bytes: int = knob(64 << 20, ge=0)
    spill_dir: Optional[str] = None
    params: str = knob("resident", choices=("resident", "arena"))
    param_budget_bytes: int = knob(64 << 20, ge=0)
    param_codec: Optional[CodecSpec] = None

    def _check(self, where: str) -> None:
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
    — see :mod:`repro.kernels`).
    """

    _name = "engine"

    kernel_backend: str = knob("auto", choices=KERNEL_BACKENDS)

    @classmethod
    def from_dict(cls, d: Dict[str, Any], where: Optional[str] = None):
        if isinstance(d, dict):
            d = {k: v for k, v in d.items() if k not in _IGNORED_ENGINE_KEYS}
        return super().from_dict(d, where)


@dataclass
class AdaptiveSpec(_Section):
    """The Eq. 8/9 controller's knobs: the paper's values, with W scaled
    to CPU-sized runs.  ``CompressedTraining`` takes this section as it
    is.  Enabled, each conv layer packs from ``initial_rel_eb`` of its
    first activation's value range, then under the controller's Eq. 9
    bound (its coefficient and clamps are constants of
    :mod:`repro.core.adaptive`); disabled, every layer packs under the
    codec's own ``error_bound`` / ``mode``."""

    _name = "adaptive"

    enabled: bool = True
    W: int = knob(50, ge=1)
    sigma_fraction: float = knob(0.01, gt=0, lt=1)
    initial_rel_eb: float = knob(1e-3, gt=0)
    warmup_iterations: int = knob(5, ge=0)


@dataclass
class ProfilerSpec(_Section):
    """Hot-path stage profiling for the run: the codec's quantize /
    predict / encode / decode stages, byte-arena I/O and a ``step``
    stage per iteration, read through ``session.profiler``."""

    _name = "profiler"

    enabled: bool = False


@dataclass
class OptimizerSpec(_Section):
    """SGD with momentum, whose velocity Eq. 8 budgets against; a
    config fully determines a run."""

    _name = "optimizer"

    kind: str = knob("sgd", choices=("sgd",))
    lr: float = knob(0.01, gt=0)
    momentum: float = knob(0.9, ge=0, lt=1)
    weight_decay: float = knob(0.0, ge=0)

    def build(self, params):
        from repro.nn.optim import SGD

        self.validate()
        try:
            return SGD(params, lr=self.lr, momentum=self.momentum, weight_decay=self.weight_decay)
        except ValueError as exc:  # the knobs are valid: the network has no parameters
            raise ConfigError(f"optimizer: {exc}") from exc


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
        (``szlike``) or lossless — unbounded lossy codecs (``jpeg``) are
        rejected.  One codec serves every parameter, on the session's
        ``engine.kernel_backend``.
    error_feedback:
        Keep a per-layer residual of what compression dropped and add
        it back into the next step's gradient before compressing, so
        the *accumulated* applied gradient tracks the true one and
        convergence matches the single-worker run within the bound.
    reduce_order:
        ``"tree"``, the one legal value: rank gradients are summed over a
        fixed binary rank-tree (:mod:`repro.distributed.reduce`), so a
        committed config reproduces the same bits.
    rank_arena_budget:
        Per-rank override (bytes) for ``storage.budget_bytes`` so N
        rank arenas don't multiply the single-process budget; ``None``
        inherits the session storage budget unchanged.
    """

    _name = "distributed"

    world_size: int = knob(1, ge=1)
    grad_codec: Optional[CodecSpec] = None
    error_feedback: bool = True
    reduce_order: str = knob("tree", choices=("tree",))
    rank_arena_budget: Optional[int] = knob(None, ge=1)

    def resolved_grad_codec(self) -> CodecSpec:
        """The codec the exchange actually uses (default: bit-exact)."""
        if self.grad_codec is not None:
            return self.grad_codec
        return CodecSpec("sparse-lossless")

    def _check(self, where: str) -> None:
        if self.grad_codec is not None:
            # The exchange's accuracy contract: a per-element error bound
            # or a bit-exact round trip.  Unbounded lossy codecs (jpeg)
            # say nothing about how far the averaged gradient can drift.
            _require_codec(
                self.grad_codec,
                f"{where}.grad_codec",
                ("error_bounded", "lossless"),
                "is lossy without an error bound; gradient exchange needs an "
                "error-bounded ('szlike') or lossless ('lossless', "
                "'sparse-lossless') codec",
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
        Point every tenant codebook cache at the server's one in-memory
        codebook table, so tenant B adopts the canonical Huffman books
        tenant A already built (reconstruction stays bit-identical; only
        the entropy-stage build cost is shared).
    spill_dir:
        Pool spill directory (defaults to an owned temp dir).
    host, port:
        Bind address for :func:`repro.server.serve`'s HTTP/JSON metrics
        endpoint (``port=0`` = ephemeral).
    """

    _name = "server"

    pool_budget_bytes: int = knob(64 << 20, ge=0)
    max_tenants: int = knob(8, ge=1)
    admission: str = knob("reject", choices=("reject", "queue"))
    overcommit: float = knob(1.0, ge=1.0)
    queue_depth: int = knob(64, ge=1)
    workers: int = knob(1, ge=1)
    max_batch_requests: int = knob(1, ge=1)
    shared_codebook_cache: bool = True
    spill_dir: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = knob(0, ge=0, le=65535)

    def _check(self, where: str) -> None:
        if not self.host:
            raise ConfigError(f"{where}: host must be a non-empty string")

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
    storage: StorageSpec = field(default_factory=StorageSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    adaptive: AdaptiveSpec = field(default_factory=AdaptiveSpec)
    profiler: ProfilerSpec = field(default_factory=ProfilerSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    distributed: DistributedSpec = field(default_factory=DistributedSpec)
    #: False skips activation compression entirely (the session is then
    #: a plain trainer, optionally with out-of-core parameters /
    #: profiler)
    compress_activations: bool = True

    @classmethod
    def _prefix(cls, where: str) -> str:
        return ""  # the root's sections are named bare: "engine", "storage.param_codec"

    def _check(self, where: str) -> None:
        if (
            self.distributed.world_size > 1
            and self.distributed.rank_arena_budget is not None
            and self.storage.activations != "arena"
        ):
            raise ConfigError(
                "distributed: rank_arena_budget needs "
                "storage.activations='arena' on the session (there is no "
                "per-rank arena to apply the budget to)"
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
