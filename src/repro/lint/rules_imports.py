"""IMP001 — heavy imports happen where they are used, not at start-up.

**Rule.** An ``import scipy...`` / ``from scipy... import`` statement
that executes when its module is imported (module level, including
``if`` / ``try`` blocks and class bodies) is a violation; the same
statement inside a function body is not.  ``scipy.stats`` and
``scipy.fft`` each pull in hundreds of modules (~0.8 s and ~60 MiB
resident together) that no training session calls, so every process
that imports ``repro`` would pay for them before its first step.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.engine import LintModule, LintRun, Rule, Violation

__all__ = ["HeavyImportRule"]


def _import_time_nodes(tree: ast.AST) -> Iterator[ast.AST]:
    """Nodes that execute at import: everything outside function bodies."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield child
        yield from _import_time_nodes(child)


class HeavyImportRule(Rule):
    id = "IMP001"
    name = "heavy-import"
    rationale = (
        "scipy is imported inside the function that uses it; a module-level "
        "import charges its start-up time and resident memory to every process."
    )

    def check(self, module: LintModule, run: LintRun) -> Iterable[Violation]:
        if module.filename.startswith("test_") or module.filename == "conftest.py":
            return
        for node in _import_time_nodes(module.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] == "scipy":
                    yield self.violation(
                        module,
                        node,
                        f"module-level import of {name!r}; import it inside the "
                        f"function that uses it so start-up does not pay for it",
                    )
