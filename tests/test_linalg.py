"""Exact linear algebra kernel: rank, kernels, solving, edge shapes."""

import random
from fractions import Fraction

import pytest
import sympy

from mcybe import InputError, Matrix
from mcybe.linalg import MODULUS, rank_mod_p, ratio, rational_from_json, rational_to_json


def rand_matrix(rng, r, c, span=6, frac=False):
    def entry():
        if frac and rng.random() < 0.3:
            return Fraction(rng.randint(-span, span), rng.randint(1, 4))
        return rng.randint(-span, span)
    return Matrix([[entry() for _ in range(c)] for _ in range(r)])


def test_rank_zero_matrices():
    for r, c in [(1, 1), (3, 5), (5, 3), (4, 4)]:
        assert Matrix.zero(r, c).rank() == 0


def test_rank_identity():
    assert Matrix.identity(3).rank() == 3


def test_kernel_identity_empty():
    assert Matrix.identity(4).kernel_basis() == []


def test_kernel_one_by_two():
    basis = Matrix([[1, 1]]).kernel_basis()
    assert len(basis) == 1
    v = basis[0]
    # spans (1, -1)
    assert v[0] * (-1) == v[1] * 1 and any(v)


def test_solve_identity():
    b = (3, Fraction(-1, 2), 7)
    assert Matrix.identity(3).solve(b) == b


def test_solve_zero_matrix_nonzero_rhs():
    assert Matrix.zero(3, 2).solve((1, 0, 0)) is None


def test_solve_dimension_mismatch():
    with pytest.raises(InputError):
        Matrix.identity(3).solve((1, 2))


def test_rank_plus_nullity(rng=random.Random(101)):
    for _ in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(rng, r, c, frac=True)
        kernel = m.kernel_basis()
        assert m.rank() + len(kernel) == c
        for v in kernel:
            assert all(not x for x in m.apply(v))


def test_solve_exactness(rng=random.Random(102)):
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, r, c)
        x0 = tuple(rng.randint(-4, 4) for _ in range(c))
        b = m.apply(x0)
        x = m.solve(b)
        assert x is not None
        assert m.apply(x) == b


def test_rank_invariant_under_row_ops(rng=random.Random(103)):
    for _ in range(25):
        r, c = rng.randint(2, 6), rng.randint(2, 6)
        m = rand_matrix(rng, r, c, frac=True)
        rows = m.rows_list()
        rng.shuffle(rows)
        scaled = []
        for row in rows:
            s = Fraction(rng.choice([1, 2, 3, -1, -5]), rng.randint(1, 3))
            scaled.append([s * x for x in row])
        assert Matrix(scaled).rank() == m.rank()


def test_rank_matches_sympy(rng=random.Random(104)):
    for _ in range(25):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        m = rand_matrix(rng, r, c, frac=True)
        assert m.rank() == sympy.Matrix(m.rows_list()).rank()


def test_det_matches_sympy(rng=random.Random(105)):
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n, frac=True)
        assert m.det() == sympy.Matrix(m.rows_list()).det()


def test_inverse_roundtrip(rng=random.Random(106)):
    hits = 0
    while hits < 10:
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        inv = m.inverse()
        if inv is None:
            continue
        hits += 1
        assert m @ inv == Matrix.identity(n)
        assert inv @ m == Matrix.identity(n)


def test_singular_inverse_none():
    assert Matrix.zero(2, 2).inverse() is None


def test_matmul_shapes_and_zero_rows():
    a = Matrix.zero(0, 3)
    b = Matrix.identity(3)
    prod = a @ b
    assert prod.shape == (0, 3)
    assert prod.is_zero()
    assert Matrix.zero(0, 5).kernel_basis() == [tuple(1 if i == j else 0 for i in range(5))
                                                for j in range(5)]


def test_no_floats_accepted():
    with pytest.raises(InputError):
        Matrix([[0.5]])
    with pytest.raises(InputError):
        ratio(1.25)


def test_rational_json_roundtrip():
    for v in (3, -7, Fraction(2, 3), Fraction(-9, 4), 0):
        assert rational_from_json(rational_to_json(v)) == v
    assert rational_to_json(Fraction(4, 2)) == 2
    # a string is an optional minus, ASCII digits, then optionally a slash
    # and ASCII digits
    for text, value in {"1": 1, "-3": -3, "1/2": Fraction(1, 2), "-1/2": Fraction(-1, 2),
                        "2/4": Fraction(1, 2), "4/2": 2}.items():
        assert rational_from_json(text) == value
    for bad in ("not-a-number", 0.5, "0.5", "0.0", "1e3", "1_000", " 1/2", "1/2 ",
                "1/2\n", "+1", "1/-2", "1/", "/2", "", "\u0661", "1/0"):
        with pytest.raises(InputError):
            rational_from_json(bad)


def test_entry_normalization():
    m = Matrix([[Fraction(4, 2), Fraction(1, 3)]])
    assert m.entry(0, 0) == 2 and isinstance(m.entry(0, 0), int)
    assert m.entry(0, 1) == Fraction(1, 3)


def rand_sparse(rng, r, c, fill=0.3):
    """Mostly zero entries, some rows and columns empty."""
    return Matrix([[rng.choice((1, -1, 2, Fraction(1, 3), Fraction(-5, 2)))
                    if rng.random() < fill else 0 for _ in range(c)] for _ in range(r)])


def test_rank_mod_p_matches_rank(rng=random.Random(107)):
    for _ in range(40):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        m = rand_matrix(rng, r, c, frac=True) if rng.random() < 0.5 else rand_sparse(rng, r, c)
        assert rank_mod_p(m) == m.rank() == sympy.Matrix(m.rows_list()).rank()


def test_rank_mod_p_is_only_a_lower_bound():
    # a multiple of the prime vanishes modulo it
    m = Matrix([[MODULUS, 1], [0, 1]])
    assert m.rank() == 2 and rank_mod_p(m) == 1


def test_rref_and_kernel_match_sympy_on_sparse(rng=random.Random(108)):
    for _ in range(30):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        m = rand_sparse(rng, r, c)
        rows, pivots = m.rref()
        ref, ref_pivots = sympy.Matrix(m.rows_list()).rref()
        assert pivots == list(ref_pivots) == list(m.pivot_columns())
        assert rows == ref.tolist()
        kernel = m.kernel_basis()
        assert len(kernel) == c - m.rank()
        null = m.null_space()
        assert [null.row(i) for i in range(null.nrows)] == kernel
        assert (m @ null.transpose()).is_zero()


def test_det_matches_sympy_on_permuted_sparse(rng=random.Random(109)):
    for _ in range(30):
        n = rng.randint(1, 6)
        m = rand_sparse(rng, n, n, fill=0.4)
        rows = m.rows_list()
        rng.shuffle(rows)
        assert Matrix(rows).det() == sympy.Matrix(rows).det()


def test_sparse_arithmetic_matches_dense(rng=random.Random(110)):
    for _ in range(20):
        r, k, c = (rng.randint(1, 5) for _ in range(3))
        a, b = rand_sparse(rng, r, k), rand_sparse(rng, k, c)
        sa, sb = sympy.Matrix(a.rows_list()), sympy.Matrix(b.rows_list())
        assert (a @ b).rows_list() == (sa * sb).tolist()
        assert (a - a.scale(2) + a).is_zero()
        assert a.transpose().rows_list() == sa.T.tolist()
        v = tuple(rng.randint(-3, 3) for _ in range(k))
        assert list(a.apply(v)) == list(sa * sympy.Matrix(v))
