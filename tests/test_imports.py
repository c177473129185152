"""Every top-level import of a `uendo` module or a test module is used in
that module, unless its line carries `# noqa: F401`."""

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
