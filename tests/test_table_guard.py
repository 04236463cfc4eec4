"""The layout of the structure table stays inside mcybe.liealg.

Every bracket of the package is read off LieAlgebra._table, and the
operator-identity kernel in liealg is the one place that combines it with
an operator.  Each module of src/mcybe is parsed with ast, and no module
but liealg may read an attribute named _table.
"""

import ast

import pytest

from conftest import PACKAGE, node_lines, package_modules


def table_reads(source):
    """Line numbers of every attribute access named _table."""
    return node_lines(source, lambda node: isinstance(node, ast.Attribute)
                      and node.attr == "_table")


@pytest.mark.parametrize("path", package_modules("liealg.py"))
def test_module_reads_no_structure_table(path):
    assert table_reads(path.read_text()) == []


def test_guard_flags_table_reads():
    source = ('rows = algebra._table[i]\n'
              'table = "a._table"\n'
              'def f(a):\n'
              '    return getattr(a, "x"), a.table, a._table\n')
    assert table_reads(source) == [1, 4]
    assert table_reads((PACKAGE / "liealg.py").read_text())
