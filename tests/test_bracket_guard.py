"""The graded bracket and the Nijenhuis checks read the structure table sparsely.

graded.graded_bracket and deform's Nijenhuis witnesses take every bracket
through liealg._sparse_bracket, on the nonzero (index, value) pairs of their
arguments, or through ad_x.  Each of graded.py and deform.py is parsed with
ast, and neither may call a method named bracket, basis_vector or
eval_insert, the dense per-term route they replaced.
"""

import ast

import pytest

from mcybe import Cochain

from conftest import PACKAGE, node_lines

DENSE = {"bracket", "basis_vector", "eval_insert"}


def dense_calls(source):
    """Line numbers of every call of an attribute named in DENSE."""
    return node_lines(source, lambda node: isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute) and node.func.attr in DENSE)


@pytest.mark.parametrize("name", ["graded.py", "deform.py"])
def test_module_makes_no_dense_bracket_call(name):
    assert dense_calls((PACKAGE / name).read_text()) == []


def test_eval_insert_is_gone():
    assert not hasattr(Cochain, "eval_insert")


def test_guard_flags_dense_calls():
    source = ('w = a.bracket(x, a.basis_vector(m))\n'
              'doc = "a.bracket(x, y)"\n'
              'def f(outer, a):\n'
              '    return outer.eval_insert(w, rest), a.bracket_basis(0, 1), bracket(x, y)\n'
              'g = a.bracket\n')
    assert dense_calls(source) == [1, 1, 4]
    assert dense_calls((PACKAGE / "liealg.py").read_text())
