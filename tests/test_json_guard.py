"""JSON objects are decoded in mcybe.linalg only.

linalg.json_object is the one decoder of a JSON object: it refuses a
non-object, a missing key and an unknown key, each by name.  A hand-written
key read catches KeyError or TypeError instead, so each module of src/mcybe
is parsed with ast, and no module but linalg may have an except clause that
names either.
"""

import ast

import pytest

from conftest import PACKAGE, node_lines, package_modules

CAUGHT = {"KeyError", "TypeError"}


def key_read_handlers(source):
    """Line numbers of every except clause naming KeyError or TypeError."""
    return node_lines(source, lambda node: isinstance(node, ast.ExceptHandler)
                      and node.type is not None
                      and any(isinstance(n, ast.Name) and n.id in CAUGHT
                              or isinstance(n, ast.Attribute) and n.attr in CAUGHT
                              for n in ast.walk(node.type)))


@pytest.mark.parametrize("path", package_modules("linalg.py"))
def test_module_decodes_no_json_object_by_hand(path):
    assert key_read_handlers(path.read_text()) == []


def test_guard_flags_key_read_handlers():
    source = ('try:\n'
              '    dim = data["dim"]\n'
              'except (TypeError, KeyError) as exc:\n'
              '    raise InputError(exc)\n'
              'try:\n'
              '    rows = data["matrix"]\n'
              'except builtins.KeyError:\n'
              '    pass\n'
              'except ValueError:\n'
              '    pass\n'
              'doc = "except KeyError"\n')
    assert key_read_handlers(source) == [3, 7]
    assert key_read_handlers((PACKAGE / "linalg.py").read_text())
