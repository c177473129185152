"""Every top-level import of a `uendo` module or a test module is used in
that module, unless its line carries `# noqa: F401`, and every private
top-level function, class or assigned name of `uendo` is read somewhere in
`uendo`."""

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
    'module: name', that no module of `sources` (a dict of module name to
    source) reads by name, as an attribute or in an import, apart from the
    definition itself."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return ["%s: %s" % (name, defined)
            for name, tree in trees.items() for stmt in tree.body
            for defined in _defined_names(stmt)
            if defined.startswith("_") and not defined.startswith("__")
            and defined not in read]


def test_private_finder_sees_calls_attributes_and_imports():
    sources = {"a": "def _used():\n    pass\ndef _dead():\n    '''_dead'''\n"
                    "class _Attr:\n    pass\ndef public():\n    return _used()\n",
               "b": "from a import _imported\nimport a\nx = a._Attr\n"
                    "def _imported():\n    pass\nclass _Lonely:\n    pass\n"}
    assert unreferenced_private_definitions(sources) == ["a: _dead", "b: _Lonely"]


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
