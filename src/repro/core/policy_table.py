"""Per-layer compression policy resolution: the PolicyTable.

The paper sets one error bound per conv layer.  Real cuSZ-style
deployments also tune the codec per field: early conv layers (large,
smooth activations) tolerate loose bounds and cheap codecs, late layers
(small, gradient-critical) want tight bounds or lossless treatment.  The
:class:`PolicyTable` makes that a first-class concept in the
saved-tensor layer:

* A table is an ordered list of ``(matcher, ResolvedPolicy)`` pairs.
  ``matcher`` is any ``Callable[[str], bool]`` over layer names —
  typically an :func:`fnmatch.fnmatchcase` glob compiled by
  :func:`compile_matcher`, but arbitrary predicates work too.
* Resolution is **first match wins**, cached per layer name (layer sets
  are static for a session, so the cache never invalidates).
* A layer no rule matches falls back to the owning context's defaults
  (session codec, adaptive error bound), exactly the pre-table
  behaviour.  Storage is the context's, for every layer.

The table is deliberately declarative-friendly: the ``repro.api``
package builds one from serializable :class:`~repro.api.config.PolicyRule`
specs, but nothing here depends on the api layer — contexts in
:mod:`repro.core.activation_store` consume the table directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["ResolvedPolicy", "PolicyTable", "compile_matcher"]

#: group label reported for layers no rule matches
DEFAULT_GROUP = "default"


def compile_matcher(pattern: str) -> Callable[[str], bool]:
    """Compile a glob *pattern* into a layer-name predicate.

    Matching is :func:`fnmatch.fnmatchcase` (case-sensitive: layer names
    are identifiers, not filenames) — ``"l*"`` matches every default
    layer name; ``"l0"`` exactly one; ``"l[01]"`` a character class;
    ``"l1?"`` any two-digit name starting with 1.
    """
    if not isinstance(pattern, str) or not pattern:
        raise ValueError(f"match pattern must be a non-empty string, got {pattern!r}")
    return lambda name: fnmatchcase(name, pattern)


@dataclass
class ResolvedPolicy:
    """What one rule prescribes for the layers it matches: a codec and
    an error-bound regime.

    ``None`` fields mean "inherit the session default" — the contexts
    interpret them, the table just carries them.
    """

    #: rule label, used as the tracker's per-rule accounting group
    label: str
    #: codec instance for matched layers (None = session default codec).
    #: One instance is shared by every layer the rule matches, so
    #: stateful codecs (codebook caches, worker pools) amortize across
    #: the group.
    codec: Optional[object] = None
    #: fixed absolute error bound (None = adaptive / codec default)
    error_bound: Optional[float] = None
    #: False pins matched layers to their rule bound — the adaptive
    #: controller leaves them alone
    adaptive: bool = True
    #: per-rule warm-up relative bound and clamp overrides for the
    #: adaptive controller (None = the AdaptiveConfig globals)
    initial_rel_eb: Optional[float] = None
    eb_min: Optional[float] = None
    eb_max: Optional[float] = None

    def __post_init__(self):
        if not self.label:
            raise ValueError("ResolvedPolicy needs a non-empty label")
        for attr in ("error_bound", "initial_rel_eb", "eb_min", "eb_max"):
            v = getattr(self, attr)
            if v is not None and not 0 < v < math.inf:
                raise ValueError(
                    f"rule {self.label!r}: {attr} must be positive and finite, got {v}"
                )


class PolicyTable:
    """Ordered first-match layer-name → :class:`ResolvedPolicy` lookup."""

    def __init__(
        self, rules: Sequence[Tuple[Callable[[str], bool], ResolvedPolicy]] = ()
    ):
        seen: set = set()
        for matcher, policy in rules:
            if not callable(matcher):
                raise TypeError(
                    f"rule {policy.label!r}: matcher must be callable, "
                    f"got {type(matcher).__name__}"
                )
            if policy.label == DEFAULT_GROUP:
                raise ValueError(
                    f"rule label {DEFAULT_GROUP!r} is reserved for the layers no rule matches"
                )
            if policy.label in seen:
                raise ValueError(f"duplicate rule label {policy.label!r}")
            seen.add(policy.label)
        self._rules: List[Tuple[Callable[[str], bool], ResolvedPolicy]] = list(rules)
        self._cache: Dict[str, Optional[ResolvedPolicy]] = {}

    @property
    def rules(self) -> Tuple[ResolvedPolicy, ...]:
        return tuple(policy for _, policy in self._rules)

    def resolve(self, layer_name: str) -> Optional[ResolvedPolicy]:
        """First matching rule's policy, or None (session defaults)."""
        try:
            return self._cache[layer_name]
        except KeyError:
            pass
        hit = None
        for matcher, policy in self._rules:
            if matcher(layer_name):
                hit = policy
                break
        self._cache[layer_name] = hit
        return hit

    def group_of(self, layer_name: str) -> str:
        """Accounting-group label for *layer_name* (``"default"`` when
        no rule matches)."""
        pol = self.resolve(layer_name)
        return pol.label if pol is not None else DEFAULT_GROUP

    def __len__(self) -> int:
        return len(self._rules)

    def __repr__(self) -> str:
        return f"PolicyTable({[p.label for _, p in self._rules]})"
