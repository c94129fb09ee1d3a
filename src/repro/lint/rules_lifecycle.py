"""REL001 — resource lifecycle for arena/param-store handles.

**Rule.** A local variable assigned from an *acquisition call* —
``key = <storage>.put(...)`` or ``entry = <store>.adopt(...)`` — owns a
storage entry that must flow to **exactly one** release
(``discard``/``pop``/``release``/``_release`` with the variable as the
argument) on every path through the function, unless ownership visibly
*escapes* the function first (returned/yielded, stored into an
attribute, subscript, or container, or handed to a non-release call).
After a release, further uses of the variable — another release, an
attribute access like ``handle.data``, or a re-read via ``get(var)`` —
are flagged: the entry's bytes are gone (and NaN-poisoned under
``REPRO_SANITIZE=1``).

The rule is deliberately local and conservative: cross-function
ownership transfer is modeled as escape, so the codebase's idiomatic
``handle.arena_key = storage.put(blob)`` (ownership lives on the handle,
released via the handle lifecycle) is out of scope, while the classic
leak — acquire into a local, early-return without release — is caught.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.engine import LintModule, LintRun, Rule, Violation

__all__ = ["ResourceLifecycleRule"]

_ACQUIRE_METHODS = {"put", "adopt"}
_RELEASE_METHODS = {"discard", "pop", "release", "_release"}
#: calls that may take the tracked variable without taking ownership
_BORROW_METHODS = {"get", "__contains__"}


def _call_method_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _is_release_call(node: ast.AST, var: str) -> bool:
    """``<recv>.discard(var)`` / ``release(var)`` / ``var.release()``."""
    if not isinstance(node, ast.Call):
        return False
    name = _call_method_name(node)
    if name in _RELEASE_METHODS:
        if node.args and isinstance(node.args[0], ast.Name) and node.args[0].id == var:
            return True
    # handle-style: var.release() / var.close()
    if (
        isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == var
        and node.func.attr in _RELEASE_METHODS
    ):
        return True
    return False


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class _FunctionAnalysis:
    def __init__(self, fn: ast.AST):
        self.fn = fn
        #: var -> acquisition Call node
        self.acquired: Dict[str, ast.Call] = {}
        self.escaped: Set[str] = set()
        self._collect()

    def _collect(self) -> None:
        for node in ast.walk(self.fn):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                name = _call_method_name(node.value)
                if name in _ACQUIRE_METHODS and isinstance(node.value.func, ast.Attribute):
                    if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                        self.acquired[node.targets[0].id] = node.value
        if not self.acquired:
            return
        tracked = set(self.acquired)
        for node in ast.walk(self.fn):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if node.value is not None:
                    self.escaped |= tracked & _names_in(node.value)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        self.escaped |= tracked & _names_in(node.value)
            elif isinstance(node, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
                self.escaped |= tracked & _names_in(node)
            elif isinstance(node, ast.Call):
                name = _call_method_name(node)
                if name in _RELEASE_METHODS or name in _BORROW_METHODS:
                    continue
                if name in _ACQUIRE_METHODS:
                    continue
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    self.escaped |= tracked & _names_in(arg)

    # -- all-paths release analysis -----------------------------------------
    def _releases(self, stmts: List[ast.stmt], var: str) -> Tuple[bool, bool]:
        """``(always, ever)`` released across this statement list."""
        always = False
        ever = False
        for stmt in stmts:
            a, e = self._stmt_releases(stmt, var)
            always = always or a
            ever = ever or e
        return always, ever

    def _stmt_releases(self, stmt: ast.stmt, var: str) -> Tuple[bool, bool]:
        if isinstance(stmt, ast.Expr) and _is_release_call(stmt.value, var):
            return True, True
        if isinstance(stmt, ast.Assign) and _is_release_call(stmt.value, var):
            return True, True
        if isinstance(stmt, ast.If):
            a1, e1 = self._releases(stmt.body, var)
            a2, e2 = self._releases(stmt.orelse, var)
            return a1 and a2, e1 or e2
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            _a, e1 = self._releases(stmt.body, var)
            a2, e2 = self._releases(stmt.orelse, var)
            return a2, e1 or e2  # loop bodies may run zero times
        if isinstance(stmt, ast.Try):
            a_body, e_body = self._releases(stmt.body, var)
            a_final, e_final = self._releases(stmt.finalbody, var)
            e_handlers = any(self._releases(h.body, var)[1] for h in stmt.handlers)
            return a_body or a_final, e_body or e_final or e_handlers
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._releases(stmt.body, var)
        return False, False

    def check_released(self, var: str) -> Tuple[bool, bool]:
        return self._releases(self.fn.body, var)

    # -- straight-line use-after-release -------------------------------------
    def use_after_release(self, var: str) -> List[Tuple[ast.AST, str]]:
        """Violations within each straight-line suite: once *var* is
        released in a suite, later statements of the *same* suite must
        not release it again or read through it."""
        out: List[Tuple[ast.AST, str]] = []
        for suite in self._suites(self.fn):
            released_at: Optional[int] = None
            for stmt in suite:
                stmt_releases = any(
                    _is_release_call(n, var) for n in ast.walk(stmt)
                )
                if released_at is not None:
                    if stmt_releases:
                        out.append(
                            (stmt, f"{var!r} released again (first release at line "
                                   f"{released_at})")
                        )
                        continue
                    for node in ast.walk(stmt):
                        if (
                            isinstance(node, ast.Attribute)
                            and isinstance(node.value, ast.Name)
                            and node.value.id == var
                        ):
                            out.append(
                                (node, f"{var}.{node.attr} read after release at "
                                       f"line {released_at}")
                            )
                        elif (
                            isinstance(node, ast.Call)
                            and _call_method_name(node) in _BORROW_METHODS
                            and node.args
                            and isinstance(node.args[0], ast.Name)
                            and node.args[0].id == var
                        ):
                            out.append(
                                (node, f"{var!r} used after release at line "
                                       f"{released_at}")
                            )
                if stmt_releases and released_at is None:
                    released_at = stmt.lineno
        return out

    def _suites(self, node: ast.AST) -> Iterable[List[ast.stmt]]:
        for child in ast.walk(node):
            for field_name in ("body", "orelse", "finalbody"):
                suite = getattr(child, field_name, None)
                if isinstance(suite, list) and suite and isinstance(suite[0], ast.stmt):
                    yield suite


class ResourceLifecycleRule(Rule):
    id = "REL001"
    name = "resource-lifecycle"
    rationale = (
        "Arena/param-store acquisitions assigned to a local must be released "
        "exactly once on every path (or visibly escape), and never be used "
        "after release — leaked entries hold real bytes, double releases "
        "corrupt accounting."
    )

    def check(self, module: LintModule, run: LintRun) -> Iterable[Violation]:
        for fn in [
            n
            for n in ast.walk(module.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]:
            analysis = _FunctionAnalysis(fn)
            for var, call in analysis.acquired.items():
                for node, message in analysis.use_after_release(var):
                    yield self.violation(module, node, message)
                if var in analysis.escaped:
                    continue
                always, ever = analysis.check_released(var)
                if always:
                    continue
                method = _call_method_name(call)
                if ever:
                    message = (
                        f"{var!r} (acquired via .{method}()) is released on some "
                        f"paths but not all; every path must release exactly once"
                    )
                else:
                    message = (
                        f"{var!r} (acquired via .{method}()) is never released and "
                        f"never escapes {fn.name}(); the entry leaks"
                    )
                yield self.violation(module, call, message)
