"""The elimination internals stay inside mcybe.linalg.

linalg.certified_rank is the one rank certificate of the package: it scales
a matrix to integers once and runs both eliminations on those rows.  Each
module of src/mcybe is parsed with ast, and no module but linalg may name
eliminate, MODULUS or _integral, whether read, called, or imported.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mcybe"
INTERNALS = {"eliminate", "MODULUS", "_integral"}


def internal_uses(source):
    """Line numbers of every name, attribute or imported name in INTERNALS."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Name) and node.id in INTERNALS
                  or isinstance(node, ast.Attribute) and node.attr in INTERNALS
                  or isinstance(node, ast.ImportFrom)
                  and any(alias.name in INTERNALS for alias in node.names))


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "linalg.py"),
                         ids=lambda p: p.name)
def test_module_uses_no_elimination_internals(path):
    assert internal_uses(path.read_text()) == []


def test_guard_flags_internal_uses():
    source = ('from .linalg import Matrix, eliminate\n'
              'p = linalg.MODULUS\n'
              'doc = "eliminate _integral MODULUS"\n'
              'def f(m):\n'
              '    return _integral(m._rows), m.eliminated\n')
    assert internal_uses(source) == [1, 2, 5]
    assert internal_uses((PACKAGE / "linalg.py").read_text())
