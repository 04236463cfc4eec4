"""The complex builds lambda alone; the image table waits for mu.

_Complex.__init__ builds lambda straight from the operator and reads the
precondition S(R) off it, so an arity-0 coboundary, whose terms are all
lambda terms, never builds the image table [Re_i, e_j].  cochain.py is
parsed with ast: _Complex.__init__ may name neither _images nor
operator_identity, whose per-pair loop reads that table, and no code of
cochain but _Complex.mu_index may name _images (its import aside), so only
reading mu builds the table.
"""

import ast

from conftest import PACKAGE, definition, node_lines

COCHAIN = (PACKAGE / "cochain.py").read_text()


def name_uses(source, names, inside=None):
    """Line numbers of every name or attribute in names, read or called, within
    the definition inside (default the whole source)."""
    node = inside and definition(source, inside)
    return node_lines(source, lambda use: (
        isinstance(use, ast.Name) and use.id in names
        or isinstance(use, ast.Attribute) and use.attr in names)
        and (node is None or node.lineno <= use.lineno <= node.end_lineno))


def test_complex_init_builds_no_image_table():
    assert name_uses(COCHAIN, {"_images", "operator_identity"}, "_Complex.__init__") == []


def test_only_mu_index_names_the_image_table():
    mu = definition(COCHAIN, "_Complex.mu_index")
    uses = name_uses(COCHAIN, {"_images"})
    assert uses and all(mu.lineno <= line <= mu.end_lineno for line in uses)


def test_guard_flags_image_table_uses():
    source = ('from .liealg import _images, operator_identity\n'
              'class _Complex:\n'
              '    def __init__(self, P):\n'
              '        cols, images = _images(P, a)\n'
              '        self.doc = "_images", liealg.operator_identity\n'
              '    @property\n'
              '    def mu_index(self):\n'
              '        return _images(self.operator, self.algebra)\n'
              'def other(P):\n'
              '    return liealg._images(P, P.algebra), images\n')
    names = {"_images", "operator_identity"}
    assert name_uses(source, names, "_Complex.__init__") == [4, 5]
    assert name_uses(source, names, "_Complex.mu_index") == [8]
    assert name_uses(source, {"_images"}) == [4, 8, 10]
    assert name_uses(COCHAIN, {"_lambdas"}, "_Complex.__init__")
