import argparse
import ast
from pathlib import Path

import pytest

from tilelab import cli

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tilelab").glob("*.py"))


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


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _bound_names(tree):
    """Names a module binds at its top level, by import or definition,
    each with the node that binds it."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                yield (a.asname or a.name).split(".")[0], node
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _private_definitions(tree):
    """(name, node) for each private module-level function, class and
    constant of a module, and each private method or property of its
    classes."""
    for name, node in _bound_names(tree):
        if _is_private(name) and not isinstance(node, (ast.Import, ast.ImportFrom)):
            yield name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and _is_private(member.name):
                    yield member.name, member


def test_every_private_name_is_read():
    # a private name that nothing reads outside its own definition is dead
    # code: a function, class, constant, method or property
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    reads = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
    dead = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if all(id(node) in own for node in reads.get(name, ())):
                dead.append(f"{module}.{name}")
    assert dead == []


# the programs outside the library that call it
PROGRAMS = sorted([*(ROOT / "perfbench").glob("*.py"), *(ROOT / "demos").glob("*.py")])
# exports that no program reads, only tests, each kept public for a reason
TEST_ONLY_EXPORTS = {
    "candidate_sequences": "the exhaust walk's order as a generator, its reference",
    "decode": "the inverse of encode, which reads packed census codes back",
    "eval_naive": "the power-sum fidelity oracle that Horner evaluation is held to",
    "grid_to_json": "the writer that grid_from_json reads back",
    "is_nicely_factored": "the oracle's split test over the working field",
    "poly_to_json": "the writer that poly_from_json reads back",
    "root_bound": "the Cauchy bound the oracle isolates roots within",
    "solve_case": "one shape attacked alone, the step of find_roots_report's walk",
}


def _program_reads(path):
    """The names a program reads: a load of a name its module binds, read
    outside the binding itself, an attribute of a name the module imports
    (cost.instrumented_verify), and in perfbench, whose PUBLIC table names
    the functions it calls, any attribute and any string constant."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = dict(_bound_names(tree))
    modules = {name for name, node in bound.items() if isinstance(node, (ast.Import, ast.ImportFrom))}
    loose = path.parent.name == "perfbench"
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
            if not any(node is n for n in ast.walk(bound[node.id])):
                reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if loose or isinstance(node.value, ast.Name) and node.value.id in modules:
                reads.add(node.attr)
        elif loose and isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
    return reads


def test_every_export_is_called_by_a_program():
    # a second public spelling of an operation is one more thing to keep in
    # step: every name the package exports must be read by the library
    # itself, by perfbench or by a demo, unless it is listed above
    init = next(p for p in SOURCES if p.name == "__init__.py")
    exports = {a.asname or a.name
               for node in ast.parse(init.read_text()).body if isinstance(node, ast.ImportFrom)
               for a in node.names}
    assert len(exports) > 50
    reads = set()
    for path in [p for p in SOURCES if p != init] + PROGRAMS:
        reads |= _program_reads(path)
    assert sorted(exports - reads) == sorted(TEST_ONLY_EXPORTS)
    tests = "".join(p.read_text() for p in (ROOT / "tests").glob("test_*.py")
                    if p.name != "test_source.py")
    assert all(name + "(" in tests for name in TEST_ONLY_EXPORTS)


def _option_dests(parser):
    """The dest of every option of parser and of its subparsers, --help
    aside."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _option_dests(sub)
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            yield action.dest


def test_every_cli_option_is_read():
    # a flag that no handler reads does nothing: every option's dest must
    # be read as args.<dest> somewhere in cli.py
    path = next(p for p in SOURCES if p.name == "cli.py")
    reads = {node.attr for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
             and isinstance(node.value, ast.Name) and node.value.id == "args"}
    dests = set(_option_dests(cli.build_parser()))
    assert len(dests) > 10
    assert sorted(dests - reads) == []


# each chain lists modules in import order: a module may import only the
# modules before it in its chain, so the tile stack and the root finder
# share limits alone, and only cli and __init__ join them
IMPORT_CHAINS = (("limits", "grid", "cost", "search", "verify"),
                 ("limits", "poly", "sturm", "vieta"))


def _package_imports(tree):
    """The tilelab modules a module imports: the package imports itself by
    relative name only."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("tilelab") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            out.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom):
            assert not node.module.startswith("tilelab")
    return out


def test_imports_sit_at_module_level():
    # an import inside a function hides a cycle from the module header
    nested = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(node) for node in tree.body}
        nested += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert nested == []


def test_imports_run_one_way_along_two_chains():
    imports = {path.stem: _package_imports(ast.parse(path.read_text(), filename=str(path)))
               for path in SOURCES}
    assert imports["limits"] == set()
    for chain in IMPORT_CHAINS:
        for i, module in enumerate(chain):
            assert imports[module] <= set(chain[:i]), module
    assert set(imports) - {m for chain in IMPORT_CHAINS for m in chain} == {"cli", "__init__"}
