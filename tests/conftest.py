"""Shared fixtures: catalog instances, extra algebras, random generators, ast guard helpers."""

import ast
import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

import mcybe
from mcybe import Endo, InputError, LieAlgebra, Matrix, catalog, linalg
from mcybe.cochain import Cochain, basis_tuples


@pytest.fixture(scope="session")
def sl2():
    return catalog("sl-borel", 2)


@pytest.fixture(scope="session")
def sl3():
    return catalog("sl-borel", 3)


@pytest.fixture(scope="session")
def sl4():
    return catalog("sl-borel", 4)


@pytest.fixture(scope="session")
def sl3_conjugate(sl3):
    """The sl(3) Borel operator conjugated by exp(ad x), x = E12 + E13/2 - E23:
    a modified r-matrix with dense rational rho(R, e_u)."""
    a, r = sl3
    x = [0] * a.dim
    for name, c in (("E12", 1), ("E13", Fraction(1, 2)), ("E23", -1)):
        x[a.basis_names.index(name)] = c
    return a, conjugate(nilpotent_exp(a, tuple(x)), r)


@pytest.fixture(scope="session")
def sl3_rescaled(sl3_conjugate):
    """The sl(3) conjugate in the basis c_i e_i: its structure constants
    c_i c_j a_ij^k / c_k and its matrix D^(-1) R D, D = diag(c), are both
    fractional."""
    a, r = sl3_conjugate
    c = [Fraction(x) for x in (1, "2/3", "3/2", 1, "5/4", 2, "1/3", 3)]
    structure = {pair: tuple(c[pair[0]] * c[pair[1]] * x / c[k] for k, x in enumerate(value))
                 for pair, value in a.structure.items()}
    b = LieAlgebra(a.dim, structure, basis_names=a.basis_names)
    D, D_inv = Matrix.diagonal(c), Matrix.diagonal([1 / x for x in c])
    return b, Endo(D_inv @ r.matrix @ D, b)


@pytest.fixture(scope="session")
def abelian3():
    return catalog("abelian", 3)


@pytest.fixture(scope="session")
def affine2():
    """Solvable 2-dim algebra [a, n] = n with the involutive split R = diag(1, -1).

    Both eigenspaces are subalgebras, so R is a modified r-matrix, and n is
    a genuine Nijenhuis element with d n != 0.
    """
    algebra = LieAlgebra(2, {(0, 1): (0, 1)}, basis_names=["a", "n"])
    return algebra, Endo.from_diagonal(algebra, [1, -1])


@pytest.fixture(scope="session")
def gl2_like():
    """sl(2) plus a central line: a 4-dimensional non-abelian algebra."""
    structure = {
        (0, 1): (0, 0, 1, 0),
        (0, 2): (-2, 0, 0, 0),
        (1, 2): (0, 2, 0, 0),
    }
    return LieAlgebra(4, structure, basis_names=["e", "f", "h", "z"])


# The package's source, which the ast guards parse.
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mcybe"


def env_with_src():
    """os.environ with the directory holding the imported mcybe first on
    PYTHONPATH, for a subprocess to import the same package."""
    src = str(Path(mcybe.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def package_modules(*skip):
    """The modules of the package but those named in skip, as parameters
    identified by file name."""
    return [pytest.param(path, id=path.name) for path in sorted(PACKAGE.glob("*.py"))
            if path.name not in skip]


def node_lines(source, match):
    """Sorted line numbers of the nodes of source's syntax tree that match."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if match(node))


def definition(source, name):
    """The node of the top-level function or class method name ('Class.method')."""
    body = ast.parse(source).body
    for part in name.split("."):
        node = next(node for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                    and node.name == part)
        body = node.body
    return node


def input_error(call):
    """The message of the InputError that call() raises."""
    with pytest.raises(InputError) as err:
        call()
    return str(err.value)


# a float and a boolean entry, each with the InputError message ratio gives it
NON_RATIONAL = pytest.mark.parametrize(
    "bad, message", [(0.5, "not an exact rational: 0.5 of type float"),
                     (True, "booleans are not rationals")], ids=["float", "bool"])


def rand_rational(rng, span=4):
    num = rng.randint(-span, span)
    den = rng.randint(1, 3)
    return Fraction(num, den)


def rand_vector(rng, n, span=3):
    return tuple(rng.randint(-span, span) for _ in range(n))


def rand_endo(rng, algebra, span=2):
    n = algebra.dim
    return Endo(Matrix([[rng.randint(-span, span) for _ in range(n)]
                        for _ in range(n)]), algebra)


def rand_cochain(rng, algebra, arity, support=2, span=3):
    tuples = basis_tuples(algebra.dim, arity)
    if not tuples:
        return Cochain.zero(algebra, arity)
    coeffs = {}
    for tup in rng.sample(tuples, min(support, len(tuples))):
        coeffs[tup] = tuple(rng.randint(-span, span) for _ in range(algebra.dim))
    return Cochain(algebra, arity, coeffs)


def full_solve(m, b):
    """Matrix.solve(b) without its reach restriction: every row of the matrix
    [m | b] is eliminated, and x is read off the reduced row echelon form
    with each free column at 0; None when b is outside the image."""
    n = m.ncols
    basis, leads, _ = linalg.eliminate(linalg._integral(
        [{**m.nonzeros(i), n: bv} if bv else m.nonzeros(i) for i, bv in enumerate(b)]))
    if n in basis:
        return None
    x = [0] * n
    for c, rest in basis.items():
        x[c] = linalg.ratio(Fraction(rest.get(n, 0), leads[c]))
    return tuple(x)


def rand_invertible(rng, n, span=2):
    while True:
        m = Matrix([[rng.randint(-span, span) for _ in range(n)] for _ in range(n)])
        inv = m.inverse()
        if inv is not None:
            return m, inv


def rand_involution(rng, algebra, k=None):
    """P diag(+-1) P^(-1): a random involution with a k-dimensional +1 space."""
    n = algebra.dim
    if k is None:
        k = rng.randint(0, n)
    p, pinv = rand_invertible(rng, n)
    d = Matrix.diagonal([1] * k + [-1] * (n - k))
    return Endo(p @ d @ pinv, algebra)


def borel_with_cartan(n, C):
    """The sl(n) Borel r-matrix with its Cartan block replaced by the
    (n - 1) x (n - 1) matrix C, entry C[p][q] at (H_p, H_q).

    Every such R is a modified r-matrix: h is abelian and R acts on the
    root vectors as the Borel one does.  It is an involution only where
    C^2 = Id.
    """
    algebra, R = catalog("sl-borel", n)
    rows = R.matrix.rows_list()
    off = algebra.dim - (n - 1)
    for p, row in enumerate(C):
        for q, c in enumerate(row):
            rows[off + p][off + q] = c
    return algebra, Endo(Matrix(rows), algebra)


def nilpotent_exp(algebra, x):
    """exp(ad_x) for ad_x nilpotent, as an exact inner automorphism."""
    ad = algebra.ad(x).matrix
    n = algebra.dim
    acc = Matrix.identity(n)
    term = Matrix.identity(n)
    k = 1
    while True:
        term = term @ ad
        if term.is_zero():
            break
        if k > n + 1:
            raise ValueError("ad_x is not nilpotent")
        acc = acc + term.scale(Fraction(1, _factorial(k)))
        k += 1
    return Endo(acc, algebra)


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def conjugate(A: Endo, R: Endo) -> Endo:
    """A R A^(-1); preserves solutions of the modified Yang-Baxter equation
    when A is a Lie algebra automorphism."""
    inv = A.matrix.inverse()
    assert inv is not None
    return Endo(A.matrix @ R.matrix @ inv, R.algebra)
