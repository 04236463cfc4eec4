"""d_apply walks the support of its cochain, never the whole cochain space.

cochain.py is parsed with ast, and neither d_apply nor _terms, which yields
the terms of d that read one source tuple, may call basis_tuples: one such
call would make the cost of every d_apply, and of every cocycle test, that
of the whole space again, whatever the cochain's support.
"""

import ast

import pytest

from conftest import PACKAGE, node_lines

COCHAIN = (PACKAGE / "cochain.py").read_text()


def function_source(source, name):
    """The source of the top-level function name in source."""
    node = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == name)
    return ast.get_source_segment(source, node)


def basis_tuples_calls(source):
    """Line numbers of every call to basis_tuples, by name or as an attribute."""
    return node_lines(source, lambda node: isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "basis_tuples"
        or getattr(node.func, "attr", None) == "basis_tuples"))


@pytest.mark.parametrize("name", ["d_apply", "_terms"])
def test_support_walk_calls_no_basis_tuples(name):
    assert basis_tuples_calls(function_source(COCHAIN, name)) == []


def test_guard_flags_basis_tuples_calls():
    source = ('def d_apply(P, f):\n'
              '    for T in basis_tuples(n, 2):\n'
              '        tuples = "basis_tuples(n, 2)", basis_tuples\n'
              '    return cochain.basis_tuples(n, k)\n'
              'def other():\n'
              '    return basis_tuples(n, 1)\n')
    assert basis_tuples_calls(function_source(source, "d_apply")) == [2, 4]
    assert basis_tuples_calls(function_source(COCHAIN, "coboundary_matrix"))
