"""No module of the package imports a name it never uses.

No linter ships with the package, so each module of src/mcybe is parsed
with ast.  A module-level import must be used in its module, be named in
its __all__, or carry `# noqa: F401` on its lines.
"""

import ast

import pytest

from conftest import package_modules


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):    # string annotations such as -> "Endo"
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used_names(ast.parse(node.value, mode="eval"))
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    """(line, name) of each module-level import that nothing uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree) | _exported(tree)
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("path", package_modules())
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_unused_imports():
    source = ('from fractions import Fraction\n'
              'from .linalg import (Matrix,\n'
              '                     ratio)\n'
              'import json  # noqa: F401\n'
              'from .liealg import Endo\n'
              '__all__ = ["Endo"]\n'
              'def f(x) -> "Matrix":\n'
              '    return x\n')
    assert unused_imports(source) == [(1, "Fraction"), (2, "ratio")]
