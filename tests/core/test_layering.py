"""``repro.core`` never imports ``repro.api`` at run time.

The core reads the config's sections by duck typing (``CompressedTraining``
takes the ``AdaptiveSpec`` it is given) and names the api types only in
annotations, under ``TYPE_CHECKING``.
"""

import ast
import pathlib

import pytest

CORE = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro" / "core"


class _RuntimeImports(ast.NodeVisitor):
    """Every module an ``import`` outside ``if TYPE_CHECKING:`` names."""

    def __init__(self):
        self.modules = []

    def visit_If(self, node):
        if ast.unparse(node.test) == "TYPE_CHECKING":
            for child in node.orelse:
                self.visit(child)
        else:
            self.generic_visit(node)

    def visit_Import(self, node):
        self.modules += [alias.name for alias in node.names]

    def visit_ImportFrom(self, node):
        self.modules.append(node.module or "")


@pytest.mark.parametrize("path", sorted(CORE.glob("*.py")), ids=lambda p: p.name)
def test_core_module_does_not_import_the_api(path):
    visitor = _RuntimeImports()
    visitor.visit(ast.parse(path.read_text()))
    assert not [m for m in visitor.modules if m == "repro.api" or m.startswith("repro.api.")]
