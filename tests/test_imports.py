"""Every top-level import of a `uendo` module or a test module is used in
that module, unless its line carries `# noqa: F401`, every private
top-level function, class or assigned name of `uendo` is read somewhere in
`uendo`, and no report of `uendo.cli` calls a builder of the analysis that
its document's `multiplicity.Analysis` keeps."""

import ast
import pathlib

import pytest

import uendo

MODULES = sorted(pathlib.Path(uendo.__file__).parent.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.FunctionDef):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    """Every name the module reads, those in annotations written as strings
    included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used_names(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source):
    tree = ast.parse(source)
    used = _used_names(tree)
    lines = source.splitlines()
    unused = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if "# noqa: F401" in lines[stmt.lineno - 1]:
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append("line %d: %s" % (stmt.lineno, name))
    return unused


def test_finder_sees_plain_from_and_annotation_uses():
    source = ("from __future__ import annotations\nimport os.path\nimport re as regex\n"
              "from typing import List, Optional\nfrom x import y\n"
              "import json  # noqa: F401\n"
              "def f(a: List[int]) -> 'Optional[int]':\n    return os.path.sep\n")
    assert unused_imports(source) == ["line 3: regex", "line 5: y"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda path: "tests/" + path.name)
def test_test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def _defined_names(stmt):
    """The names a top-level statement defines: a function's or a class's,
    or each name an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def unreferenced_private_definitions(sources):
    """The private top-level functions, classes and assigned names, as
    'module: name', that nothing in `sources` (a dict of module name to
    source) reads, apart from the definition itself.  Reads resolve per
    module: a bare name that a module loads counts for that module,
    `from m import _x` (relative or not) counts for module m, and an
    attribute read `._x` counts for every module."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read, attributes = set(), set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add((module, node.id))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rsplit(".", 1)[-1]
                read.update((source, alias.name) for alias in node.names)
    return ["%s: %s" % (name, defined)
            for name, tree in trees.items() for stmt in tree.body
            for defined in _defined_names(stmt)
            if defined.startswith("_") and not defined.startswith("__")
            and defined not in attributes and (name, defined) not in read]


def test_private_finder_sees_calls_attributes_and_imports():
    sources = {"a": "from .b import _imported\ndef _used():\n    pass\n"
                    "def _dead():\n    '''_dead'''\n"
                    "class _Attr:\n    pass\ndef public():\n    return _used()\n",
               "b": "import a\nx = a._Attr\n"
                    "def _imported():\n    pass\nclass _Lonely:\n    pass\n"}
    assert unreferenced_private_definitions(sources) == ["a: _dead", "b: _Lonely"]


def test_private_finder_resolves_names_per_module():
    # a name defined in two modules and loaded in one is unread in the other;
    # importing it from a module counts for that module, not the importer
    sources = {"a": "_DUP = 1\n_OWN = 2\ndef f():\n    return _DUP\n",
               "b": "_DUP = 3\n_OWN = 4\n",
               "c": "from pkg.b import _OWN\n"}
    assert unreferenced_private_definitions(sources) == ["a: _OWN", "b: _DUP"]


def test_private_finder_sees_assigned_names():
    # a private name bound at top level is read only where it is loaded;
    # binding it again, in its module or another, does not count
    sources = {"a": "_TABLE = {}\n_SPARE = 1\n_X: int = 2\n_P, (_Q, _R) = 1, (2, 3)\n"
                    "__all__ = ()\nPUBLIC = 0\ndef f():\n    return _TABLE, _Q\n",
               "b": "import a\n_LOCAL = a._X\n_SPARE = 3\n"}
    assert unreferenced_private_definitions(sources) == [
        "a: _SPARE", "a: _P", "a: _R", "b: _LOCAL", "b: _SPARE"]


def test_every_private_definition_is_referenced():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unreferenced_private_definitions(sources) == []


# The builders of a document's analysis, which its `multiplicity.Analysis`
# keeps: a report reads each part off the analysis, so each is built once for
# all the reports of one document.  `sigma` is among them, so that no report
# forms sigma-bar^0 or the stable coefficient itself.
ANALYSIS_BUILDERS = frozenset(("factors_through", "centralizer_shape", "component_group",
                               "identity_component_shape", "epsilon_character",
                               "_epsilon_character", "sigma"))


def reports_calling_builders(source):
    """'report: builder' for every call of an analysis builder, by bare name
    or as an attribute, in a top-level `report_*` function of `source`."""
    found = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("report_"):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in ANALYSIS_BUILDERS:
                        found.append("%s: %s" % (stmt.name, name))
    return found


def test_builder_finder_sees_names_and_attributes():
    source = ("def report_a(sem):\n    return central.component_group(sem.shape)\n"
              "def report_b(sem):\n    def inner():\n        return _epsilon_character(1, 2)\n"
              "    return inner, sem.eps, sem.group\n"
              "def report_c(sem):\n    return weylnum.sigma(sem.identity_component)\n"
              "def helper(sem):\n    return centralizer_shape(sem.psi, sem.tag)\n")
    assert reports_calling_builders(source) == ["report_a: component_group",
                                                "report_b: _epsilon_character", "report_c: sigma"]


def test_reports_read_the_analysis_of_their_document():
    source = (pathlib.Path(uendo.__file__).parent / "cli.py").read_text()
    assert reports_calling_builders(source) == []
