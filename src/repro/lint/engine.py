"""The reprolint rule engine: file walking, parsing, output.

A lint run is deliberately simple and dependency-free:

1. Collect ``*.py`` files under the requested paths (sorted walk,
   skipping hidden directories and ``__pycache__``).
2. Parse each into a :class:`LintModule` — the ``ast`` tree plus the
   dotted module name (when the file lives under a ``repro`` package
   root).
3. Hand every module to every :class:`Rule`; collect
   :class:`Violation` records.
4. Render them as human-readable lines.

No finding can be silenced inline: a documented exception (such as
LCK001's caller-holds-lock helpers) is part of the rule itself.

Cross-module context
--------------------
Rules receive the whole :class:`LintRun`, so analyses that need more
than one file (DET001's import-reachability from ``repro.api.session``)
can see every collected module.  Single-module rules just ignore it.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Violation",
    "Rule",
    "LintModule",
    "LintRun",
    "collect_files",
    "lint_paths",
    "render_text",
]


@dataclass(frozen=True)
class Violation:
    """One rule hit, anchored to a source line."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


class Rule:
    """Base class for reprolint rules.

    Subclasses set ``id`` / ``name`` / ``rationale`` and implement
    :meth:`check`, yielding :class:`Violation` records.  ``rationale``
    doubles as the rule-catalog documentation (``--list-rules``).
    """

    id: str = "RULE000"
    name: str = "unnamed"
    rationale: str = ""

    def check(self, module: "LintModule", run: "LintRun") -> Iterable[Violation]:
        raise NotImplementedError

    def violation(self, module: "LintModule", node: ast.AST, message: str) -> Violation:
        return Violation(
            rule_id=self.id,
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


@dataclass
class LintModule:
    """One parsed source file plus everything rules need to scope it."""

    path: str
    display_path: str
    tree: ast.Module
    #: dotted module name when the file lives under a ``repro`` package
    #: root (``.../repro/core/arena.py`` -> ``repro.core.arena``); None
    #: for files outside any such root (e.g. test fixtures)
    module_name: Optional[str] = None

    @property
    def parts(self) -> Tuple[str, ...]:
        return tuple(os.path.normpath(self.path).split(os.sep))

    @property
    def filename(self) -> str:
        return os.path.basename(self.path)

    def imported_modules(self) -> Set[str]:
        """Every module name this file imports (top-level and nested),
        with ``from pkg import sub`` contributing both ``pkg`` and
        ``pkg.sub`` so package-attribute imports resolve either way."""
        out: Set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    out.add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative import: resolve against our package
                    if self.module_name is None:
                        continue
                    base = self.module_name.split(".")
                    # level=1 strips the module's own name, deeper levels
                    # climb packages
                    base = base[: -node.level] if len(base) >= node.level else []
                    prefix = ".".join(base)
                else:
                    prefix = node.module or ""
                if prefix:
                    out.add(prefix)
                for alias in node.names:
                    if prefix and alias.name != "*":
                        out.add(f"{prefix}.{alias.name}")
        return out


def _derive_module_name(path: str) -> Optional[str]:
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    if "repro" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("repro")  # last 'repro' segment
    dotted = parts[idx:]
    dotted[-1] = dotted[-1][:-3] if dotted[-1].endswith(".py") else dotted[-1]
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)


class LintRun:
    """All modules of one invocation plus cross-module caches."""

    def __init__(self, modules: Sequence[LintModule]):
        self.modules = list(modules)
        self._by_name: Dict[str, LintModule] = {
            m.module_name: m for m in self.modules if m.module_name
        }
        self._reachable_cache: Dict[str, Optional[Set[str]]] = {}

    def reachable_from(self, entry: str) -> Optional[Set[str]]:
        """Module names transitively imported from *entry*, restricted to
        the modules in this run.  Returns ``None`` when *entry* is not
        part of the run (callers should then fall back to applying their
        rule everywhere — that keeps fixture trees checkable)."""
        if entry in self._reachable_cache:
            return self._reachable_cache[entry]
        if entry not in self._by_name:
            self._reachable_cache[entry] = None
            return None
        seen = {entry}
        frontier = [entry]
        while frontier:
            mod = self._by_name[frontier.pop()]
            for name in mod.imported_modules():
                # an import of pkg.sub also executes pkg/__init__.py
                segments = name.split(".")
                for i in range(1, len(segments) + 1):
                    candidate = ".".join(segments[:i])
                    if candidate in self._by_name and candidate not in seen:
                        seen.add(candidate)
                        frontier.append(candidate)
        self._reachable_cache[entry] = seen
        return seen


def collect_files(paths: Sequence[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs if not d.startswith(".") and d != "__pycache__"
            )
            for name in sorted(names):
                if name.endswith(".py"):
                    files.append(os.path.join(root, name))
    return files


def load_module(path: str) -> Tuple[Optional[LintModule], Optional[Violation]]:
    with open(path, "r", encoding="utf-8") as f:
        source = f.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, Violation(
            rule_id="LINT000",
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            message=f"syntax error: {exc.msg}",
        )
    module = LintModule(
        path=path,
        display_path=os.path.relpath(path),
        tree=tree,
        module_name=_derive_module_name(path),
    )
    return module, None


def default_rules() -> List[Rule]:
    from repro.lint.rules_alloc import LayerAllocationRule
    from repro.lint.rules_backend import BackendDisciplineRule
    from repro.lint.rules_bounds import ErrorBoundExactnessRule
    from repro.lint.rules_determinism import DeterminismRule
    from repro.lint.rules_imports import HeavyImportRule
    from repro.lint.rules_lifecycle import ResourceLifecycleRule
    from repro.lint.rules_locks import LockDisciplineRule
    from repro.lint.rules_registry import RegistryHygieneRule

    return [
        LockDisciplineRule(),
        ResourceLifecycleRule(),
        ErrorBoundExactnessRule(),
        DeterminismRule(),
        RegistryHygieneRule(),
        BackendDisciplineRule(),
        HeavyImportRule(),
        LayerAllocationRule(),
    ]


def lint_paths(paths: Sequence[str]) -> Tuple[List[Violation], int]:
    """Run every rule of the catalog over *paths*.

    Returns ``(violations, files_checked)`` with the violations sorted
    by location.
    """
    rules = default_rules()
    modules: List[LintModule] = []
    violations: List[Violation] = []
    for path in collect_files(paths):
        module, parse_error = load_module(path)
        if parse_error is not None:
            violations.append(parse_error)
            continue
        modules.append(module)
    run = LintRun(modules)
    for module in modules:
        for rule in rules:
            violations.extend(rule.check(module, run))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return violations, len(modules)


def render_text(violations: Sequence[Violation], files_checked: int) -> str:
    lines = [v.format() for v in violations]
    summary = (
        f"reprolint: {len(violations)} violation(s) in {files_checked} file(s)"
        if violations
        else f"reprolint: clean ({files_checked} file(s) checked)"
    )
    lines.append(summary)
    return "\n".join(lines)

