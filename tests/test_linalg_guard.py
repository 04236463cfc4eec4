"""The elimination internals stay inside mcybe.linalg.

linalg.certified_rank is the one rank certificate of the package: it reads
a matrix's one echelon form, which Matrix._reduced stores in _echelon, and
runs the modular elimination on its rows.  Each module of src/mcybe is
parsed with ast, and no module but linalg may name eliminate, MODULUS,
_integral, _echelon or _reduced, whether read, called, or imported.
"""

import ast

import pytest

from conftest import PACKAGE, node_lines, package_modules

INTERNALS = {"eliminate", "MODULUS", "_integral", "_echelon", "_reduced"}


def internal_uses(source):
    """Line numbers of every name, attribute or imported name in INTERNALS."""
    return node_lines(source, lambda node: isinstance(node, ast.Name) and node.id in INTERNALS
                      or isinstance(node, ast.Attribute) and node.attr in INTERNALS
                      or isinstance(node, ast.ImportFrom)
                      and any(alias.name in INTERNALS for alias in node.names))


@pytest.mark.parametrize("path", package_modules("linalg.py"))
def test_module_uses_no_elimination_internals(path):
    assert internal_uses(path.read_text()) == []


def test_guard_flags_internal_uses():
    source = ('from .linalg import Matrix, eliminate\n'
              'p = linalg.MODULUS\n'
              'doc = "eliminate _integral MODULUS"\n'
              'def f(m):\n'
              '    return _integral(m._rows), m.eliminated\n'
              'basis, leads, kept, rows = m._echelon or m._reduced()\n')
    assert internal_uses(source) == [1, 2, 5, 6, 6]
    assert internal_uses((PACKAGE / "linalg.py").read_text())
