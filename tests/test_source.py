import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "tilelab").glob("*.py"))


def test_sources_are_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    # python -O strips assert statements, so an invariant check must raise
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} checks invariants with assert at lines {lines}"


class _LapackUses(ast.NodeVisitor):
    """Every numpy.linalg name and numpy.roots a module reads, with the
    function that reads it: (function, dotted name), import aliases
    resolved."""

    def __init__(self, module):
        self.module, self.scope, self.aliases, self.uses = module, [], {}, []

    def visit_Import(self, node):
        for a in node.names:
            top = a.name.split(".")[0]  # import numpy.linalg binds numpy
            self.aliases[a.asname or top] = a.name if a.asname else top

    def visit_ImportFrom(self, node):
        for a in node.names:
            self.aliases[a.asname or a.name] = f"{node.module}.{a.name}"

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def _read(self, dotted):
        if dotted == "numpy.roots" or dotted.startswith("numpy.linalg"):
            self.uses.append((".".join([self.module] + self.scope), dotted))

    def visit_Attribute(self, node):
        parts, base = [], node
        while isinstance(base, ast.Attribute):
            parts.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id in self.aliases:
            self._read(".".join([self.aliases[base.id]] + parts[::-1]))
        else:
            self.generic_visit(node)

    def visit_Name(self, node):
        if node.id in self.aliases:
            self._read(self.aliases[node.id])


def test_lapack_is_entered_only_where_its_inputs_are_guarded():
    # on a NaN, LAPACK's least squares prints DLASCL errors and may never
    # return, so every entry into LAPACK sits behind a finiteness guard:
    # the stacked least squares in vieta._lstsq_rows and np.roots in
    # sturm._structured_reading; numpy.linalg is otherwise read only for
    # norm and LinAlgError
    allowed = {
        ("vieta._lstsq_rows", "numpy.linalg._umath_linalg.lstsq"),
        ("sturm._structured_reading", "numpy.roots"),
    }
    uses = set()
    for path in SOURCES:
        visitor = _LapackUses(path.stem)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        uses.update(visitor.uses)
    free = {"numpy.linalg.norm", "numpy.linalg.LinAlgError"}
    assert allowed <= uses  # the two entry points are still read
    assert {u for u in uses if u[1] not in free} == allowed
