"""ALLOC001 — layer temporaries come from the workspace, not the allocator.

**Rule.** Inside ``forward`` / ``backward`` of a class under
``nn/layers/``, a call to ``np.empty`` / ``np.zeros`` / ``np.full`` /
``np.ones`` (or a ``*_like`` form) whose result is neither returned nor
passed to ``self._save`` is a violation.  Such an array has the same
shape on every step; freshly allocated, it goes back to the kernel and is
page-faulted in again on every pass, so it is borrowed from
``repro.utils.scratch.WORKSPACE``.  What a layer returns or saves stays
a plain array: pooling the tensors compression exists to free would pin them.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.engine import LintModule, LintRun, Rule, Violation

__all__ = ["LayerAllocationRule"]


def _is_allocation(node: ast.AST) -> bool:
    func = getattr(node, "func", None)
    return (
        isinstance(node, ast.Call)
        and isinstance(func, ast.Attribute)
        and func.attr.replace("_like", "") in ("empty", "zeros", "full", "ones")
        and getattr(func.value, "id", None) in ("np", "numpy")
    )


class LayerAllocationRule(Rule):
    id = "ALLOC001"
    name = "layer-allocation"
    rationale = (
        "an array that dies inside a layer's forward/backward is borrowed from "
        "the shared workspace; only what is returned or saved is allocated."
    )

    def check(self, module: LintModule, run: LintRun) -> Iterable[Violation]:
        if ("nn", "layers") not in zip(module.parts, module.parts[1:]):
            return
        for cls in ast.walk(module.tree):
            for fn in cls.body if isinstance(cls, ast.ClassDef) else ():
                if isinstance(fn, ast.FunctionDef) and fn.name in ("forward", "backward"):
                    yield from self._check_method(module, fn)

    def _check_method(self, module: LintModule, fn: ast.FunctionDef) -> Iterable[Violation]:
        # what leaves the call: ``return`` values and ``self._save`` arguments,
        # seen through indexing, ``a if c else b`` and tuples
        leaving = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                leaving.append(node.value)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_save":
                leaving += node.args
        escaping, names = set(), set()
        while leaving:
            node = leaving.pop()
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Subscript):
                leaving.append(node.value)
            elif isinstance(node, ast.IfExp):
                leaving += [node.body, node.orelse]
            elif isinstance(node, ast.Tuple):
                leaving += node.elts
            else:
                escaping.add(id(node))
        for node in ast.walk(fn):  # breadth first: an assignment before its value
            if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) in names for t in node.targets
            ):
                escaping.add(id(node.value))
            if _is_allocation(node) and id(node) not in escaping:
                yield self.violation(
                    module,
                    node,
                    f"np.{node.func.attr}(...) in {fn.name}() is neither returned nor "
                    f"saved; borrow the temporary from "
                    "repro.utils.scratch.WORKSPACE.take(shape, dtype)",
                )
