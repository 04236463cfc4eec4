"""The package's own cochain producers build through the trusted path.

cochain.py and graded.py are parsed with ast, and none of d_apply,
graded_bracket, Cochain.scale and Cochain.__add__ may call the checking
Cochain(...) constructor: each hands over keys and entries that are exact
by construction, and one such call would check every key and entry of
its result again, the cost the trusted path exists to save.
"""

import ast

import pytest

from conftest import PACKAGE, definition, node_lines

SOURCES = {name: (PACKAGE / name).read_text() for name in ("cochain.py", "graded.py")}


def is_checking_call(node):
    """A call of Cochain(...), by name or as an attribute, or of cls(...) or
    type(self)(...) inside the class."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (getattr(func, "id", None) in ("Cochain", "cls")
            or getattr(func, "attr", None) == "Cochain"
            or isinstance(func, ast.Call) and getattr(func.func, "id", None) == "type")


def checking_calls(source, name):
    """Line numbers of every checking constructor call inside name."""
    node = definition(source, name)
    return node_lines(source, lambda call: is_checking_call(call)
                      and node.lineno <= call.lineno <= node.end_lineno)


@pytest.mark.parametrize("module, name", [("cochain.py", "d_apply"),
                                          ("graded.py", "graded_bracket"),
                                          ("cochain.py", "Cochain.scale"),
                                          ("cochain.py", "Cochain.__add__")])
def test_producers_build_through_the_trusted_path(module, name):
    assert checking_calls(SOURCES[module], name) == []


def test_guard_flags_checking_constructor_calls():
    source = ('class Cochain:\n'
              '    def scale(self, c):\n'
              '        f = Cochain(a, 1, {})\n'
              '        g = Cochain._trusted(a, 1, {}), "Cochain(a, 1)", Cochain\n'
              '        h = cochain.Cochain(a, 1)\n'
              '        return type(self)(a, 1) or cls(a, 1)\n'
              '    def zero(self):\n'
              '        return Cochain(a, 0)\n'
              'def d_apply(P, f):\n'
              '    return Cochain(P.algebra, 1, {})\n')
    assert checking_calls(source, "Cochain.scale") == [3, 5, 6, 6]
    assert checking_calls(source, "d_apply") == [10]
    assert checking_calls(SOURCES["cochain.py"], "Cochain.from_vector")
