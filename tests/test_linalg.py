"""Exact linear algebra kernel: rank, kernels, solving, edge shapes."""

import enum
import json
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
import sympy

from mcybe import (Cochain, InputError, InternalError, LieAlgebra, Matrix, coboundary_matrix,
                   cohomology, linalg, rb_from_r)
from mcybe.linalg import (MODULUS, certified_rank, ratio, rational_from_json, rational_str,
                          rational_to_json, rationals_from_json)

from conftest import env_with_src, full_solve, input_error


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
    # a zero row of A against a nonzero entry of b, beside nonzero rows
    a = Matrix([[1, 2], [0, 0], [3, 4]])
    assert a.solve((1, 1, 0)) is None
    assert a.solve((1, 0, 3)) == (1, 0)


def test_solve_dimension_mismatch():
    with pytest.raises(InputError):
        Matrix.identity(3).solve((1, 2))


def spy_eliminate(monkeypatch):
    """The list that records the rows of every linalg.eliminate call."""
    seen = []
    true_eliminate = linalg.eliminate
    monkeypatch.setattr(linalg, "eliminate", lambda rows, modulus=0: seen.append(
        list(rows)) or true_eliminate(rows, modulus))
    return seen


def test_solve_zero_rhs_eliminates_no_row(monkeypatch, rng=random.Random(112)):
    seen = spy_eliminate(monkeypatch)
    for r, c in [(1, 1), (4, 3), (3, 5)]:
        assert rand_matrix(rng, r, c, frac=True).solve([0] * r) == (0,) * c
    assert Matrix.zero(0, 2).solve([]) == (0, 0)
    assert seen == [[]] * 4


def block_diagonal(rng, shapes):
    """(m, blocks): m has a random block of each (rows, cols) shape down its
    diagonal, then its rows and its columns shuffled; blocks lists each
    block's (rows, cols) as indices into m.  Every row of a block is nonzero
    on the block's first column, so shared columns connect the whole block,
    and a block of two or more rows ends with twice its first row."""
    nrows, ncols = sum(r for r, _ in shapes), sum(c for _, c in shapes)
    row_at, col_at = rng.sample(range(nrows), nrows), rng.sample(range(ncols), ncols)
    dense = [[0] * ncols for _ in range(nrows)]
    blocks = []
    for r, c in shapes:
        rows, cols = row_at[:r], col_at[:c]
        del row_at[:r], col_at[:c]
        values = [[rng.choice((-2, -1, 1, Fraction(3, 2)))] + [rng.randint(-2, 2)
                                                             for _ in range(c - 1)]
                  for _ in range(r)]
        if r > 1:
            values[-1] = [2 * x for x in values[0]]
        for i, row in zip(rows, values):
            for j, x in zip(cols, row):
                dense[i][j] = x
        blocks.append((rows, cols))
    return Matrix(dense), blocks


def test_solve_eliminates_only_the_blocks_b_touches(monkeypatch, rng=random.Random(113)):
    # the rows of the blocks that hold a nonzero of b are the only rows
    # eliminated, and x is the one read off the whole augmented matrix, for
    # b inside and outside the image
    seen = spy_eliminate(monkeypatch)
    for _ in range(40):
        shapes = [(rng.randint(2, 4), rng.randint(1, 4))]
        shapes += [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        m, blocks = block_diagonal(rng, shapes)
        x0 = [0] * m.ncols
        for _, cols in rng.sample(blocks, rng.randint(1, len(blocks))):
            for j in cols:
                x0[j] = rng.randint(-3, 3)
        inside = m.apply(x0)
        outside = list(inside)
        outside[blocks[0][0][-1]] += 1       # its last row is twice its first
        for b, consistent in ((inside, True), (outside, False)):
            want = full_solve(m, b)
            seen.clear()
            x = m.solve(b)
            assert x == want
            assert (x is not None) == consistent
            touched = [(rows, cols) for rows, cols in blocks if any(b[i] for i in rows)]
            assert len(seen) == 1
            assert len(seen[0]) == sum(len(rows) for rows, _ in touched)
            reach = {j for _, cols in touched for j in cols} | {m.ncols}
            assert all(row.keys() <= reach for row in seen[0])


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
    assert Matrix([[1, 2], [0, 0]]).inverse() is None
    assert Matrix([[0, 0], [0, 5]]).inverse() is None


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


def test_unnormalized_fractions_eliminate_like_ints():
    # from_sparse and _exact_rows take their rows as they are, so a Fraction
    # of denominator 1 reaches _integral, which turns it into an int
    plain = Matrix([[2, 4]])
    for m in (Matrix.from_sparse([{0: Fraction(2, 1), 1: Fraction(4, 1)}], 2),
              Matrix._exact_rows([[Fraction(2, 1), Fraction(4, 1)]])):
        assert m.rank() == plain.rank() == 1
        assert m.null_space() == plain.null_space() == Matrix([[-2, 1]])
        for b in ((6,), (Fraction(1, 3),), (0,)):
            got, want = m.solve(b), plain.solve(b)
            assert got == want and list(map(type, got)) == list(map(type, want))
        assert certified_rank(m) == certified_rank(plain)
        assert input_error(m.inverse) == input_error(plain.inverse)
    square = Matrix.from_sparse([{0: Fraction(2, 1), 1: Fraction(4, 1)}, {0: Fraction(1, 1)}],
                                2)
    assert square.inverse() == Matrix([[2, 4], [1, 0]]).inverse() == Matrix(
        [[0, 1], [Fraction(1, 4), Fraction(-1, 2)]])


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
                "1/2\n", "+1", "1/-2", "1/", "/2", "", "\u0661", "1/0", True, False):
        with pytest.raises(InputError):
            rational_from_json(bad)


def test_rational_str_is_the_json_text():
    for v in (3, -7, Fraction(2, 3), Fraction(-9, 4), 0, Fraction(4, 2)):
        assert rational_str(v) == str(rational_to_json(v))
    # past the int-to-string digit limit a number is refused as input, and
    # any other ValueError stays what it was
    limit = f"more than {sys.get_int_max_str_digits()} digits"
    for v in (10 ** 5000, Fraction(10 ** 5000 + 1, 2)):
        assert limit in input_error(lambda: rational_str(v))
    assert limit in input_error(lambda: rational_to_json(Fraction(1, 10 ** 5000 + 1)))
    assert input_error(lambda: rational_str(0.5)) == "not an exact rational: 0.5 of type float"


@pytest.mark.parametrize("call, message", [
    (lambda: ratio(True), "booleans are not rationals"),
    (lambda: ratio(False), "booleans are not rationals"),
    (lambda: rationals_from_json(json.loads("[0, true]"), "matrix row"), "not a rational: True"),
    (lambda: Matrix([[1, 2], [3]]), "ragged rows in matrix"),
    (lambda: Matrix.from_columns([[1, 2], [3]]), "ragged columns in matrix"),
    (lambda: Matrix.identity(2) + Matrix.identity(3), "shape mismatch (2, 2) + (3, 3)"),
    (lambda: Matrix.zero(2, 3) @ Matrix.zero(2, 3), "shape mismatch (2, 3) @ (2, 3)"),
    (lambda: Matrix.identity(2).apply((1, 2, 3)), "vector length 3 != cols 2"),
    (lambda: Matrix.zero(2, 3).inverse(), "inverse of non-square (2, 3) matrix"),
], ids=["ratio-bool", "ratio-false", "json-true-entry", "ragged-rows", "ragged-columns", "add-shapes",
        "matmul-shapes", "apply-length", "inverse-non-square"])
def test_input_errors(call, message):
    assert input_error(call) == message


def test_repr_prints_at_most_36_entries():
    rows = [[Fraction(1, 2), -3]] * 18
    assert repr(Matrix(rows)) == "Matrix[" + "; ".join(["1/2 -3"] * 18) + "]"
    assert repr(Matrix(rows + rows[:1])) == "Matrix(19x2)"


def test_entry_normalization():
    m = Matrix([[Fraction(4, 2), Fraction(1, 3)]])
    assert m.entry(0, 0) == 2 and isinstance(m.entry(0, 0), int)
    assert m.entry(0, 1) == Fraction(1, 3)


class Weird(int):
    def __str__(self):
        return "weird"


class Three(enum.IntEnum):
    THREE = 3


@pytest.mark.parametrize("three", [Weird(3), Three.THREE], ids=["str-override", "IntEnum"])
def test_int_subclasses_are_stored_as_plain_ints(three):
    # every stored entry is a plain int or a Fraction, whatever int subclass came in
    assert type(ratio(three)) is int and type(rational_from_json(three)) is int
    assert rational_str(three) == "3" and rationals_from_json([three], "row") == [3]
    m = Matrix([[three, 0]])
    assert repr(m) == "Matrix[3 0]" and type(m.entry(0, 0)) is int
    assert type(Matrix.diagonal([three]).entry(0, 0)) is int
    algebra = LieAlgebra(2, {(0, 1): (0, three)})
    assert [type(x) for x in algebra.structure[(0, 1)]] == [int, int]
    f = Cochain(algebra, 1, {(0,): (three, 1)})
    assert [type(x) for x in f.get((0,))] == [int, int]
    assert type(f.to_endo().matrix.entry(0, 0)) is int


def rand_sparse(rng, r, c, fill=0.3):
    """Mostly zero entries, some rows and columns empty."""
    return Matrix([[rng.choice((1, -1, 2, Fraction(1, 3), Fraction(-5, 2)))
                    if rng.random() < fill else 0 for _ in range(c)] for _ in range(r)])


def test_certified_rank_matches_rank(rng=random.Random(107)):
    for _ in range(40):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        m = rand_matrix(rng, r, c, frac=True) if rng.random() < 0.5 else rand_sparse(rng, r, c)
        ref = sympy.Matrix(m.rows_list())
        rank = certified_rank(m)
        assert type(rank) is int and rank == m.rank() == ref.rank()
        assert m.null_space().rows_list() == [list(v) for v in ref.nullspace()]


def test_one_form_matches_sympy_rref(rng=random.Random(113)):
    # the stored form is integral; a pivot row whose rref entries have a
    # denominator has a lead != 1, and the kernel check scales it by lcm(leads)
    with_lead = 0
    for _ in range(40):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        m = rand_matrix(rng, r, c, frac=True)
        rref, pivots = sympy.Matrix(m.rows_list()).rref()
        assert m.pivot_columns() == pivots
        # each null_space row: 1 at its free column f, -rref[i, f] at pivot i
        assert m.null_space().rows_list() == [
            [int(j == f) - (rref[pivots.index(j), f] if j in pivots else 0) for j in range(c)]
            for f in range(c) if f not in pivots]
        assert certified_rank(m) == len(pivots)
        with_lead += any(lead != 1 for lead in m._reduced()[1].values())
    assert 4 * with_lead >= 40


def test_rank_first_then_certificate_scales_once(monkeypatch, rng=random.Random(114)):
    # rank() stores the one form, which certified_rank then reads as it is
    calls = []
    true_integral = linalg._integral
    monkeypatch.setattr(linalg, "_integral",
                        lambda rows: calls.append(rows) or true_integral(rows))
    for _ in range(20):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        rows = rand_matrix(rng, r, c, frac=True).rows_list()
        fresh = Matrix(rows)
        fresh_rank = certified_rank(fresh)
        m = Matrix(rows)
        calls.clear()
        rank = m.rank()
        assert certified_rank(m) == fresh_rank == rank
        assert m.null_space() == fresh.null_space()
        assert len(calls) == 1


def row_space_moves(rng, m):
    """Three matrices with m's row space: each row scaled by a seeded nonzero
    rational, the rows permuted, and the sum of two rows appended."""
    rows = m.rows_list()
    scales = [Fraction(rng.choice((1, -1, 2, -3, 5)), rng.randint(1, 4)) for _ in rows]
    scaled = [[s * x for x in row] for s, row in zip(scales, rows)]
    permuted = rng.sample(rows, len(rows))
    a, b = rng.choice(rows), rng.choice(rows)
    return Matrix(scaled), Matrix(permuted), Matrix(rows + [[x + y for x, y in zip(a, b)]])


def assert_row_space_moves_keep_the_form(rng, m):
    rank, null = certified_rank(m), m.null_space()
    pivots = m.pivot_columns()
    for moved in row_space_moves(rng, m):
        assert moved.rank() == rank and moved.pivot_columns() == pivots
        assert moved.null_space() == null
        assert certified_rank(moved) == rank


def test_row_space_moves_keep_the_form(rng=random.Random(115)):
    for _ in range(40):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        m = rand_matrix(rng, r, c, frac=True) if rng.random() < 0.5 else rand_sparse(rng, r, c)
        assert_row_space_moves_keep_the_form(rng, m)


@pytest.mark.parametrize("name", ["sl3", "sl3_conjugate"])
def test_coboundary_row_space_moves_keep_the_form(name, request, rng=random.Random(116)):
    _, r = request.getfixturevalue(name)
    for flavor, P in (("R", r), ("B", rb_from_r(r))):
        for arity in range(3):
            assert_row_space_moves_keep_the_form(
                rng, coboundary_matrix(P, arity, flavor=flavor).matrix)


def kept_minor(m):
    """The rows m's elimination kept, restricted to its pivot columns, dense.

    The elimination reads the nonempty rows of m in order, each scaled by a
    positive integer, and reports the indices of the ones it kept.
    """
    basis, _, kept, _ = m._reduced()
    rows = [row for row in map(m.nonzeros, range(m.nrows)) if row]
    return [[rows[i].get(j, 0) for j in sorted(basis)] for i in kept]


def assert_nonsingular_kept_minor(m):
    minor, r = kept_minor(m), m.rank()
    assert len(minor) == r and all(len(row) == r for row in minor)
    assert sympy.Matrix(r, r, [x for row in minor for x in row]).rank() == r


def test_kept_rows_give_a_nonsingular_minor(rng=random.Random(112)):
    for _ in range(40):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        m = rand_matrix(rng, r, c, frac=True) if rng.random() < 0.5 else rand_sparse(rng, r, c)
        assert_nonsingular_kept_minor(m)


@pytest.mark.parametrize("name, arities",
                         [("sl2", 4), ("sl3", 3), ("sl3_conjugate", 2), ("sl4", 2)])
def test_coboundary_kept_rows_give_a_nonsingular_minor(name, arities, request):
    _, r = request.getfixturevalue(name)
    for flavor, P in (("R", r), ("B", rb_from_r(r))):
        for arity in range(arities):
            assert_nonsingular_kept_minor(coboundary_matrix(P, arity, flavor=flavor).matrix)


def test_certified_rank_refuses_where_rank_mod_p_falls_short():
    # a multiple of the prime vanishes modulo it: the certificate fails, and
    # the uncertified rank stays exact before and after
    assert Matrix([[MODULUS, 1], [0, 1]]).rank() == 2
    m = Matrix([[MODULUS, 1], [0, 1]])
    with pytest.raises(InternalError, match="rank mod p and rank over Q disagree"):
        certified_rank(m)
    assert m.rank() == 2


def general_eliminate(rows, modulus=0):
    """linalg.eliminate with every row taken through the general loop, one-entry
    rows too: the reference the one-entry fast path must agree with."""
    basis, leads, kept = {}, {}, []
    holders = {}
    for i in sorted(range(len(rows)), key=lambda i: len(rows[i])):
        row = dict(rows[i])
        for c in [c for c in row if c in basis]:
            f = row.pop(c)
            if leads[c] != 1:
                for j in row:
                    row[j] *= leads[c]
            for j, x in basis[c].items():
                v = row.get(j, 0) - f * x
                if modulus:
                    v %= modulus
                if v:
                    row[j] = v
                else:
                    del row[j]
        if not row:
            continue
        kept.append(i)
        pivot = min(row)
        lead = row.pop(pivot)
        if modulus:
            inv = pow(lead, -1, modulus)
            row = {j: x * inv % modulus for j, x in row.items()}
            lead = 1
        else:
            g = gcd(lead, *row.values())
            if lead < 0:
                g = -g
            if g != 1:
                row = {j: x // g for j, x in row.items()}
                lead //= g
        for q in holders.pop(pivot, ()):
            held = basis[q]
            f = held.pop(pivot)
            if lead != 1:
                leads[q] *= lead
                for j in held:
                    held[j] *= lead
            for j, x in row.items():
                v = held.get(j, 0) - f * x
                if modulus:
                    v %= modulus
                if v:
                    if j not in held:
                        holders.setdefault(j, set()).add(q)
                    held[j] = v
                else:
                    del held[j]
                    holders[j].discard(q)
            if not modulus:
                g = gcd(leads[q], *held.values())
                if g != 1:
                    leads[q] //= g
                    for j in held:
                        held[j] //= g
        basis[pivot] = row
        leads[pivot] = lead
        for j in row:
            holders.setdefault(j, set()).add(pivot)
    return basis, leads, kept


def one_entry_rows(rng, nrows, ncols):
    """Seeded int rows, mostly of one entry, on few columns so that columns
    repeat; entries negative, small, or multiples of MODULUS, and some rows empty."""
    def entry():
        return rng.choice((1, -1, 2, -3, 7, MODULUS, -2 * MODULUS, 5 * MODULUS + 1))
    rows = []
    for _ in range(nrows):
        size = rng.choice((0, 1, 1, 1, 1, 1, 2, 3))
        rows.append({j: entry() for j in rng.sample(range(ncols), min(size, ncols))})
    return rows


def test_one_entry_rows_eliminate_like_the_general_loop(rng=random.Random(117)):
    singles = 0
    for _ in range(200):
        rows = one_entry_rows(rng, rng.randint(0, 12), rng.randint(1, 6))
        residues = [{j: r for j, x in row.items() if (r := x % MODULUS)} for row in rows]
        singles += sum(len(row) == 1 for row in rows + residues)
        for args in ((rows,), (residues, MODULUS)):
            before = [dict(row) for row in args[0]]
            assert linalg.eliminate(*args) == general_eliminate(*args)
            assert args[0] == before
    assert singles > 1000


_FORGED_FORM_SCRIPT = """
import sys
from mcybe import InternalError, Matrix
from mcybe.linalg import certified_rank
assert sys.argv[2] == ("optimized" if not __debug__ else "plain")
m = Matrix([[1, 0], [0, 1]] if sys.argv[1] == "free" else [[1, 0]])
m.rank()
basis, leads, kept, rows = m._echelon
if sys.argv[1] == "free":
    # the row {1: 1} is dropped, so its column is left free
    del basis[1], leads[1]
    kept.pop()
else:
    # pivot 0 of the row {0: 1} gets a nonempty reduced row
    basis[0][1] = 1
try:
    certified_rank(m)
except InternalError as exc:
    sys.exit(f"internal error: {exc}")
"""


@pytest.mark.parametrize("forgery", ["free", "filled"])
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_forged_one_entry_rows_are_refused(forgery, flags):
    # a one-entry row is checked by one lookup: on a free column, or on a
    # pivot whose reduced row is not empty, some null space vector misses it
    proc = subprocess.run([sys.executable, *flags, "-c", _FORGED_FORM_SCRIPT, forgery,
                           "optimized" if flags else "plain"],
                          capture_output=True, text=True, env=env_with_src(), timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "internal error: null space vector is not annihilated\n"


def test_rref_and_kernel_match_sympy_on_sparse(rng=random.Random(108)):
    for _ in range(30):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        m = rand_sparse(rng, r, c)
        ref = sympy.Matrix(m.rows_list())
        assert m.pivot_columns() == ref.rref()[1]
        # each null_space row carries the negated rref entries of its free column
        null = m.null_space()
        assert [list(null.row(i)) for i in range(null.nrows)] == [
            list(v) for v in ref.nullspace()]
        kernel = m.kernel_basis()
        assert len(kernel) == c - m.rank()
        assert [null.row(i) for i in range(null.nrows)] == kernel
        assert (m @ null.transpose()).is_zero()


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


def interleave_zero_rows(rng, m):
    """(z, kept): m with one to three zero rows after each of its rows, so
    at least half the rows of z are zero, and the indices of m's rows in z."""
    rows, kept = [], []
    for i in range(m.nrows):
        kept.append(len(rows))
        rows.append(list(m.row(i)))
        rows.extend([0] * m.ncols for _ in range(rng.randint(1, 3)))
    return Matrix(rows), kept


def test_zero_rows_change_no_answer(rng=random.Random(111)):
    # empty rows are dropped before any elimination: every answer is the one
    # for the matrix without them, and sympy's for the matrix with them
    for _ in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 7)
        m = rand_matrix(rng, r, c, frac=True) if rng.random() < 0.5 else rand_sparse(rng, r, c)
        z, kept = interleave_zero_rows(rng, m)
        assert 2 * sum(not z.nonzeros(i) for i in range(z.nrows)) >= z.nrows
        ref = sympy.Matrix(z.rows_list())
        assert z.rank() == m.rank() == ref.rank()
        assert z.pivot_columns() == m.pivot_columns() == ref.rref()[1]
        assert z.null_space() == m.null_space()
        assert z.null_space().rows_list() == [list(v) for v in ref.nullspace()]
        assert certified_rank(z) == certified_rank(m) == ref.rank()
        b = z.apply(tuple(rng.randint(-4, 4) for _ in range(c)))
        x = z.solve(b)
        assert x == m.solve([b[i] for i in kept])
        solution, params = ref.gauss_jordan_solve(sympy.Matrix(b))
        assert list(x) == list(solution.subs({p: 0 for p in params}))
        off = list(b)
        off[kept[rng.randrange(r)] + 1] = 1      # a zero row of z
        assert z.solve(off) is None


@pytest.mark.parametrize("flavor", ["R", "B"])
def test_cohomology_eliminates_no_empty_row(sl3, flavor, monkeypatch):
    _, r = sl3
    P = r if flavor == "R" else rb_from_r(r)
    m = coboundary_matrix(P, 1, flavor=flavor).integral
    assert any(not m.nonzeros(i) for i in range(m.nrows))     # empty rows to drop
    seen = []
    true_eliminate = linalg.eliminate
    monkeypatch.setattr(linalg, "eliminate", lambda rows, modulus=0: seen.append(
        (list(rows), modulus)) or true_eliminate(rows, modulus))
    cohomology(P, 3, flavor=flavor)
    assert [modulus for _, modulus in seen] == [0, MODULUS] * 3   # exact, then the minor
    assert all(row for rows, _ in seen for row in rows)
    # each exact call gets the int matrix's nonempty rows as they are, and
    # each modular call the rank's worth of rows, inside the pivot columns
    for arity in range(3):
        m = coboundary_matrix(P, arity, flavor=flavor).integral
        assert seen[2 * arity][0] == [m.nonzeros(i) for i in range(m.nrows) if m.nonzeros(i)]
        minor = seen[2 * arity + 1][0]
        assert len(minor) == m.rank()
        assert all(row.keys() <= set(m.pivot_columns()) for row in minor)
