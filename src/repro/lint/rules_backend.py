"""BKD001 — szlike hot loops go through the kernel-backend registry.

**Rule.** Code under ``compression/szlike/`` must reach the five hot
kernels (``quantize_encode``, ``quantize_decode``, ``lorenzo_predict``,
``huffman_pack_words``, ``huffman_unpack_window``) through
:func:`repro.kernels.get_backend` — importing or calling the private
``_numpy_*`` reference implementations directly is a violation.  The
private entry points bypass backend selection ("auto" probing, one-shot
warmup, counted fallback), so a direct call silently pins the NumPy
reference even when the session asked for a compiled backend.

Shared *building blocks* (``apply_outliers``, ``diff_axes``,
``pack_words``, ...) are exempt: they are the reference pieces the
historical public szlike API is defined in terms of, and they carry no
backend dispatch of their own.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.engine import LintModule, LintRun, Rule, Violation

__all__ = ["BackendDisciplineRule"]

#: the five private kernel entry points of the reference backend
_PRIVATE_KERNELS = {
    "_numpy_quantize_encode",
    "_numpy_quantize_decode",
    "_numpy_lorenzo_predict",
    "_numpy_huffman_pack_words",
    "_numpy_huffman_unpack_window",
}


class BackendDisciplineRule(Rule):
    id = "BKD001"
    name = "backend-discipline"
    rationale = (
        "szlike code must call the hot kernels via get_backend(...); "
        "direct _numpy_* references bypass backend selection and "
        "fallback accounting."
    )

    def check(self, module: LintModule, run: LintRun) -> Iterable[Violation]:
        if "szlike" not in module.parts:
            return
        if module.filename.startswith("test_") or module.filename == "conftest.py":
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in _PRIVATE_KERNELS:
                        yield self.violation(
                            module,
                            node,
                            f"import of private kernel {alias.name!r}; go through "
                            f"get_backend(...).{alias.name[len('_numpy_'):]} so "
                            f"backend selection applies",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                name = None
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                if name in _PRIVATE_KERNELS:
                    yield self.violation(
                        module,
                        node,
                        f"direct {name}(...) call bypasses the kernel-backend "
                        f"registry; use get_backend(...).{name[len('_numpy_'):]}",
                    )
