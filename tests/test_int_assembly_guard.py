"""The coboundary is assembled in ints.

The complex holds lambda and mu of t R, whose entries are all ints, so the
terms and the matrix are summed in int arithmetic, and the true values are
made only where they leave a call.  cochain.py is parsed with ast: neither
_terms nor coboundary_matrix, whose loop assembles the matrix, may name
Fraction or _half or divide with /, whether as an operator or in place.
"""

import ast

import pytest

from conftest import PACKAGE, definition, node_lines

COCHAIN = (PACKAGE / "cochain.py").read_text()
NAMES = {"Fraction", "_half"}


def rational_uses(source, name):
    """Line numbers, from the first line of the top-level definition name,
    of every Fraction or _half in it, by name or as an attribute, and of
    every true division."""
    segment = ast.get_source_segment(source, definition(source, name))
    return node_lines(segment, lambda n: isinstance(n, ast.Name) and n.id in NAMES
                      or isinstance(n, ast.Attribute) and n.attr in NAMES
                      or isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div))


@pytest.mark.parametrize("name", ["_terms", "coboundary_matrix"])
def test_assembly_is_in_ints(name):
    assert rational_uses(COCHAIN, name) == []


def test_guard_flags_rational_uses():
    source = ('def _terms(side, S):\n'
              '    c = fractions.Fraction(1, 2)\n'
              '    doc = "Fraction / _half", 7 // 2\n'
              '    x = _half(c) + side.lambdas[0] / 2\n'
              '    x /= 3\n'
              '    return Fraction\n')
    assert rational_uses(source, "_terms") == [2, 4, 4, 5, 6]
    assert rational_uses(COCHAIN, "_Complex")          # its scale is a Fraction
