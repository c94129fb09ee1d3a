"""LCK001 — lock discipline for lock-owning classes.

**Rule.** In a class that creates a ``threading.Lock``/``RLock``/
``Condition`` in any of its methods (``self._lock = threading.RLock()``;
a ``Condition`` *is* a lock context manager — ``with self._cond:``
acquires its underlying lock), every attribute that is *mutated* inside
a ``with self._lock:`` block anywhere in the class is considered
**guarded**.  Touching a guarded attribute (read or
write) outside such a block, in any method, is a violation: the mix is
exactly the pattern that tears multi-field invariants when threads
share an object — an arena pool spilling a tenant's arena from another
tenant's thread, a server's stats thread reading counters mid-step
(e.g. reading ``in_memory_nbytes`` while a concurrent ``put`` is
mid-update).

**What counts as a mutation.** Assignment / augmented assignment /
deletion of ``self.attr``, subscript stores like ``self.attr[k] = v``,
and calls to known mutating container methods
(``self.attr.pop(...)``, ``.append``, ``.clear``, ``.update``, ...).
Only *direct* mutations (assignment / subscript store / deletion)
establish that an attribute is guarded: a mutating *method call* under
the lock (``self.storage.discard(k)``) may target a component object
with its own synchronization and is not evidence by itself — but once
an attribute is guarded, method-call mutations outside the lock are
flagged like any other touch.

**Exemptions.**

* ``__init__`` / ``__getstate__`` / ``__setstate__`` / ``__del__``:
  construction and (un)pickling run before/after any sharing.
* Methods whose docstring states the **caller holds the lock** (the
  codebase convention, e.g. ``"(callers hold the lock)"``): their
  bodies execute under the caller's ``with`` block, so their touches
  count as guarded — including as guarded-mutation evidence.
* Line/``def``-scoped ``# reprolint: disable=LCK001`` for the rest.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.engine import LintModule, LintRun, Rule, Violation

__all__ = ["LockDisciplineRule"]

_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}
_EXEMPT_METHODS = {"__init__", "__getstate__", "__setstate__", "__del__"}
_LOCK_HELD_DOC = re.compile(r"callers?\s+(?:must\s+)?holds?\s+the\s+lock", re.I)
_MUTATING_METHODS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "move_to_end",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "sort",
    "update",
}

#: (attr, lineno, col, is_mutation, under_lock, is_direct_mutation)
_Touch = Tuple[str, int, int, bool, bool, bool]


def _is_lock_factory(call: ast.AST) -> bool:
    if not isinstance(call, ast.Call):
        return False
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in _LOCK_FACTORIES
    if isinstance(func, ast.Name):
        return func.id in _LOCK_FACTORIES
    return False


def _self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _lock_attrs(cls: ast.ClassDef) -> Set[str]:
    locks: Set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and _is_lock_factory(node.value):
            for target in node.targets:
                attr = _self_attr(target)
                if attr:
                    locks.add(attr)
        elif isinstance(node, ast.AnnAssign) and _is_lock_factory(node.value):
            attr = _self_attr(node.target)
            if attr:
                locks.add(attr)
    return locks


def _is_lock_held_method(fn: ast.AST) -> bool:
    doc = ast.get_docstring(fn, clean=False)
    return bool(doc and _LOCK_HELD_DOC.search(doc))


class _MethodScanner:
    """Collects every ``self.<attr>`` touch in one method, annotated
    with whether it happens under a ``with self.<lock>:`` block."""

    def __init__(self, locks: Set[str]):
        self.locks = locks
        self.touches: List[_Touch] = []

    def scan(self, fn: ast.AST, under: bool) -> List[_Touch]:
        for stmt in fn.body:
            self._stmt(stmt, under)
        return self.touches

    # -- statement dispatch -------------------------------------------------
    def _stmt(self, node: ast.AST, under: bool) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = under or any(
                _self_attr(item.context_expr) in self.locks for item in node.items
            )
            for item in node.items:
                self._expr(item.context_expr, under)
            for stmt in node.body:
                self._stmt(stmt, inner)
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._target(target, under)
            self._expr(node.value, under)
            return
        if isinstance(node, ast.AugAssign):
            self._target(node.target, under)
            self._expr(node.value, under)
            return
        if isinstance(node, ast.AnnAssign):
            self._target(node.target, under)
            if node.value is not None:
                self._expr(node.value, under)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._target(target, under)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested helpers/closures inherit the lock state at their
            # definition site (the dominant pattern: inline callbacks
            # invoked while the enclosing block still holds the lock).
            for stmt in node.body:
                self._stmt(stmt, under)
            return
        # Generic statement: recurse into child statements with the same
        # lock state and collect expression touches.
        for field_name, value in ast.iter_fields(node):
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.stmt):
                        self._stmt(item, under)
                    elif isinstance(item, ast.expr):
                        self._expr(item, under)
            elif isinstance(value, ast.stmt):
                self._stmt(value, under)
            elif isinstance(value, ast.expr):
                self._expr(value, under)

    # -- mutation targets ---------------------------------------------------
    def _target(self, node: ast.AST, under: bool) -> None:
        attr = _self_attr(node)
        if attr is not None:
            self._record(node, attr, mutation=True, under=under, direct=True)
            return
        if isinstance(node, ast.Subscript):
            # self.attr[k] = v mutates the container behind self.attr
            attr = _self_attr(node.value)
            if attr is not None:
                self._record(node.value, attr, mutation=True, under=under, direct=True)
            else:
                self._expr(node.value, under)
            self._expr(node.slice, under)
            return
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                self._target(elt, under)
            return
        if isinstance(node, ast.Attribute):
            self._expr(node.value, under)
            return
        if isinstance(node, ast.expr):
            self._expr(node, under)

    # -- expression touches -------------------------------------------------
    def _expr(self, node: ast.AST, under: bool) -> None:
        if node is None:
            return
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
                attr = _self_attr(func.value)
                if attr is not None:
                    self._record(func.value, attr, mutation=True, under=under, direct=False)
                    for arg in node.args:
                        self._expr(arg, under)
                    for kw in node.keywords:
                        self._expr(kw.value, under)
                    return
            self._expr(func, under)
            for arg in node.args:
                self._expr(arg, under)
            for kw in node.keywords:
                self._expr(kw.value, under)
            return
        attr = _self_attr(node)
        if attr is not None:
            self._record(node, attr, mutation=False, under=under, direct=False)
            return
        for child in ast.iter_child_nodes(node):
            self._expr(child, under)

    def _record(
        self, node: ast.AST, attr: str, mutation: bool, under: bool, direct: bool
    ) -> None:
        if attr in self.locks:
            return
        self.touches.append(
            (attr, node.lineno, node.col_offset, mutation, under, direct)
        )


class LockDisciplineRule(Rule):
    id = "LCK001"
    name = "lock-discipline"
    rationale = (
        "Attributes mutated under a class's own lock must never be touched "
        "outside it; a lock-free read of multi-field state races the other "
        "threads sharing the object (arena pools, server schedulers)."
    )

    def check(self, module: LintModule, run: LintRun) -> Iterable[Violation]:
        for cls in [n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)]:
            locks = _lock_attrs(cls)
            if not locks:
                continue
            methods = [
                n
                for n in cls.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            touches_by_method: Dict[str, List[_Touch]] = {}
            lock_held: Set[str] = set()
            for fn in methods:
                held = _is_lock_held_method(fn)
                if held:
                    lock_held.add(fn.name)
                touches_by_method[fn.name] = _MethodScanner(locks).scan(fn, under=held)
            guarded: Dict[str, int] = {}  # attr -> first guarded-mutation line
            for name, touches in touches_by_method.items():
                if name in _EXEMPT_METHODS:
                    continue
                for attr, lineno, _col, mutation, under, direct in touches:
                    if mutation and under and direct and attr not in guarded:
                        guarded[attr] = lineno
            if not guarded:
                continue
            for fn in methods:
                if fn.name in _EXEMPT_METHODS or fn.name in lock_held:
                    continue
                for attr, lineno, col, _mutation, under, _direct in touches_by_method[fn.name]:
                    if under or attr not in guarded:
                        continue
                    yield Violation(
                        rule_id=self.id,
                        path=module.display_path,
                        line=lineno,
                        col=col + 1,
                        message=(
                            f"{cls.name}.{attr} is guarded (mutated under the class "
                            f"lock at line {guarded[attr]}) but touched here outside "
                            f"'with self.<lock>:' in {fn.name}()"
                        ),
                    )
