"""Cochains, coboundary matrices, and cohomology with independent oracles."""

import functools
import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
import sympy

from mcybe import (Cochain, Endo, InputError, InternalError, LieAlgebra, Matrix,
                   PreconditionError, catalog, cochain, coboundary_matrix, coboundary_preimage,
                   cohomology, d_apply, graded_bracket, is_cocycle, is_rota_baxter, kuranishi,
                   liealg, linalg, pi_cochain, rb_from_r)
from mcybe.cochain import basis_tuples, cochain_space_dim, insert_sorted
from mcybe.liealg import vadd, vsub
from mcybe.linalg import ratio
from mcybe.rmatrix import require_modified

from conftest import (borel_with_cartan, conjugate, full_solve, input_error, nilpotent_exp,
                      rand_cochain, rand_endo, rand_vector)


def vscale(c, u):
    return tuple(c * a for a in u)


def to_vector(f):
    """The value of an arity-0 cochain."""
    assert f.arity == 0
    return f.get(())


def _eval(f, args):
    """f extended to arbitrary vectors, alternating and multilinear: the
    coefficient of f(e_T) is the minor det(args_i[T_j]), taken by sympy."""
    if f.arity == 0:
        return f.get(())
    acc = [0] * f.algebra.dim
    for tup, vec in f.coeffs.items():
        minor = sympy.Matrix([[x[t] for t in tup] for x in args]).det()
        minor = Fraction(int(minor.p), int(minor.q))
        acc = [s + minor * v for s, v in zip(acc, vec)]
    return tuple(ratio(x) for x in acc)


def test_eval_repeated_argument_vanishes(sl2, rng=random.Random(21)):
    a, _ = sl2
    for _ in range(10):
        f = rand_cochain(rng, a, 2)
        x = rand_vector(rng, a.dim)
        y = rand_vector(rng, a.dim)
        assert _eval(f, [x, x]) == a.zero()
        assert _eval(f, [x, y]) == tuple(-c for c in _eval(f, [y, x]))


def test_eval_on_sorted_basis_tuple_returns_stored(sl3, rng=random.Random(22)):
    a, _ = sl3
    f = rand_cochain(rng, a, 3, support=4)
    for tup, vec in f.coeffs.items():
        args = [a.basis_vector(t) for t in tup]
        assert _eval(f, args) == vec


def test_eval_pi_cochain(sl2):
    a, _ = sl2
    pi = pi_cochain(a)
    e, f, h = a.basis()
    assert _eval(pi, [e, f]) == h
    assert _eval(pi, [h, e]) == (2, 0, 0)


def test_eval_multilinearity(sl2, rng=random.Random(23)):
    a, _ = sl2
    f = rand_cochain(rng, a, 2, support=3)
    x, y, z = (rand_vector(rng, a.dim) for _ in range(3))
    c = Fraction(3, 2)
    lhs = _eval(f, [vadd(x, vscale(c, z)), y])
    rhs = vadd(_eval(f, [x, y]), vscale(c, _eval(f, [z, y])))
    assert lhs == rhs

def test_insert_sorted_signs():
    assert insert_sorted((1, 3), 0) == (1, (0, 1, 3))
    assert insert_sorted((1, 3), 2) == (-1, (1, 2, 3))
    assert insert_sorted((1, 3), 5) == (1, (1, 3, 5))
    assert insert_sorted((1, 3), 3) is None


def test_abelian_coboundary_is_zero(abelian3):
    a, r = abelian3
    for k in range(0, 3):
        assert coboundary_matrix(r, k).matrix.is_zero()


def test_each_coboundary_builds_one_image_table(sl3, monkeypatch):
    # every coboundary builds lambda once, with no rho call; mu is read off
    # one image table, which arity 0 never reads and so never builds
    tables, lambdas, rhos = [], [], []
    real_images, real_lambdas, real_rho = liealg._images, liealg._lambdas, liealg.rho
    spy = lambda P, a: tables.append(P) or real_images(P, a)
    lambda_spy = lambda a, P: lambdas.append(P) or real_lambdas(a, P)
    for module in (liealg, cochain):
        monkeypatch.setattr(module, "_images", spy)
        monkeypatch.setattr(module, "_lambdas", lambda_spy)
    monkeypatch.setattr(liealg, "rho", lambda P, x: rhos.append(P) or real_rho(P, x))
    a, r = sl3
    for flavor, op in (("R", r), ("B", rb_from_r(r))):
        for k in (0, 1, 2):
            coboundary_matrix(op, k, flavor=flavor)
            assert (len(lambdas), len(tables)) == (1, int(k > 0))
            d_apply(op, Cochain(a, k, {tuple(range(k)): a.basis_vector(k)}),
                    flavor=flavor, check=False)
            assert (len(lambdas), len(tables)) == (2, 2 * (k > 0))
            tables.clear()
            lambdas.clear()
    assert rhos == []
    assert "rho" not in vars(cochain) and "induced_bracket_table" not in vars(cochain)


def test_sl2_degree1_kernel_is_cartan(sl2):
    a, r = sl2
    cb = coboundary_matrix(r, 0)
    assert cb.matrix.shape == (9, 3)
    assert cb.matrix.rank() == 2
    assert cb.matrix.kernel_basis() == [(0, 0, 1)]    # span{h}


def test_sl2_degree2_kernel_pattern(sl2):
    # the five vanishing entries t11, t21, t31, t22, t13 leave a 4-dim kernel
    a, r = sl2
    cb = coboundary_matrix(r, 1)
    kernel = cb.matrix.kernel_basis()
    assert len(kernel) == 4
    forced_zero = {0, 1, 2, 4, 6}
    for v in kernel:
        assert all(v[i] == 0 for i in forced_zero)


def test_coboundary_matrix_matches_d_apply(sl2, sl3, sl3_conjugate, rng=random.Random(24)):
    # matrix route and direct evaluation route must agree, in both flavors,
    # on the empty cochain, on one-key cochains and on 3R, which is no
    # modified r-matrix, through a complex built unchecked; the conjugate's
    # lambda is dense and rational, so a row/column mix-up shows
    a3, r3 = sl3
    cases = [(a, P, flavor, k) for a, r in (sl2, sl3, sl3_conjugate)
             for flavor, P in (("R", r), ("B", rb_from_r(r))) for k in (0, 1, 2)]
    cases += [(a3, r3, "R", 3), (a3, rb_from_r(r3), "B", 3)]
    cases += [(a3, r3.scale(3), "R", k) for k in (0, 1, 2)]
    for a, P, flavor, k in cases:
        cb = coboundary_matrix(cochain._complex(P, flavor, k, check=False), k, flavor=flavor)
        tuples = basis_tuples(a.dim, k)
        cochains = [Cochain.zero(a, k), rand_cochain(rng, a, k, support=1),
                    Cochain(a, k, {tuples[-1]: a.basis_vector(rng.randrange(a.dim))}),
                    rand_cochain(rng, a, k).scale(Fraction(-2, 3))]
        cochains += [rand_cochain(rng, a, k) for _ in range(3)]
        for f in cochains:
            via_matrix = cb.matrix.apply(f.to_coeff_vector())
            direct = d_apply(P, f, flavor=flavor, check=False)
            assert list(via_matrix) == direct.to_coeff_vector()


def test_complex_property_both_flavors(sl2, sl3, abelian3):
    from mcybe.rmatrix import rb_from_r
    for a, r in (sl2, sl3, abelian3):
        b = rb_from_r(r)
        for k in range(0, min(3, a.dim)):
            dr1 = coboundary_matrix(r, k + 1).matrix
            dr0 = coboundary_matrix(r, k).matrix
            assert (dr1 @ dr0).is_zero()
            db1 = coboundary_matrix(b, k + 1, flavor="B").matrix
            db0 = coboundary_matrix(b, k, flavor="B").matrix
            assert (db1 @ db0).is_zero()


def test_scaling_relation_r_equals_2b(sl2, sl3, abelian3):
    from mcybe.rmatrix import rb_from_r
    for a, r in (sl2, sl3, abelian3):
        b = rb_from_r(r)
        for k in range(0, min(3, a.dim) + 1):
            mr = coboundary_matrix(r, k).matrix
            mb = coboundary_matrix(b, k, flavor="B").matrix
            assert mr == mb.scale(2)


# -- the B-complex against its own lambda^B and mu^B ------------------------

def _oracle_d_b(B, f):
    """d_B f from lambda^B_u = [Bu, .] - B[u, .] and mu^B(x, y) = [Bx, y] +
    [x, By] + [x, y], evaluated on basis tuples with f extended by minors."""
    a = B.algebra
    k = f.arity
    coeffs = {}
    for T in basis_tuples(a.dim, k + 1):
        e = [a.basis_vector(t) for t in T]
        acc = a.zero()
        for i in range(k + 1):
            v = _eval(f, e[:i] + e[i + 1:])
            term = vsub(a.bracket(B.apply(e[i]), v), B.apply(a.bracket(e[i], v)))
            acc = vadd(acc, vscale((-1) ** i, term))
        for i, j in combinations(range(k + 1), 2):
            x, y = e[i], e[j]
            mu = vadd(vadd(a.bracket(B.apply(x), y), a.bracket(x, B.apply(y))),
                      a.bracket(x, y))
            rest = [v for m, v in enumerate(e) if m not in (i, j)]
            acc = vadd(acc, vscale((-1) ** (i + j), _eval(f, [mu] + rest)))
        coeffs[T] = acc
    return Cochain(a, k + 1, coeffs)


@pytest.mark.parametrize("name", ["sl2", "sl3", "affine2", "sl3_conjugate"])
def test_b_complex_matches_direct_oracle(name, request, rng=random.Random(32)):
    # both routes build the B-complex as half the R-complex of Id + 2B; the
    # oracle never forms Id + 2B
    a, r = request.getfixturevalue(name)
    b = rb_from_r(r)
    nonzero = 0
    for k in (0, 1, 2):
        cb = coboundary_matrix(b, k, flavor="B")
        for c in (1, Fraction(2, 3), 1, Fraction(-1, 5)):
            f = rand_cochain(rng, a, k).scale(c)
            want = _oracle_d_b(b, f)
            assert d_apply(b, f, flavor="B") == want
            assert list(cb.matrix.apply(f.to_coeff_vector())) == want.to_coeff_vector()
            nonzero += not want.is_zero()
    assert nonzero >= 6


# -- the complex in ints, the coboundary in exact rationals ------------------

def _rational_coboundary(P, k, flavor):
    """The coboundary matrix on arity-k cochains in exact rationals, entry by
    entry off rho(R, e_u) and the induced table of R, R = P or Id + 2P,
    halved in the B-complex, each entry made exact by ratio."""
    a = P.algebra
    n = a.dim
    R = P if flavor == "R" else Endo.identity(a) + P.scale(2)
    half = 1 if flavor == "R" else Fraction(1, 2)
    lam = [liealg.rho(R, e).matrix for e in a.basis()]
    mu = liealg.induced_bracket_table(R)
    column = {S: i * n for i, S in enumerate(basis_tuples(n, k))}
    rows = []
    for T in basis_tuples(n, k + 1):
        block = [{} for _ in range(n)]
        for i, u in enumerate(T):
            base = column[T[:i] + T[i + 1:]]
            for m in range(n):
                for j, x in lam[u].nonzeros(m).items():
                    block[m][base + j] = block[m].get(base + j, 0) + (-1) ** i * half * x
        for p, q in combinations(range(k + 1), 2):
            rest = T[:p] + T[p + 1:q] + T[q + 1:]
            for s, x in enumerate(mu.get((T[p], T[q]), ())):
                if x and (placed := insert_sorted(rest, s)):
                    sign, S = placed
                    for m in range(n):
                        c = column[S] + m
                        block[m][c] = block[m].get(c, 0) + (-1) ** (p + q) * sign * half * x
        rows += [{j: ratio(x) for j, x in row.items() if x} for row in block]
    return Matrix.from_sparse(rows, len(column) * n)


def _int_cases(sl3_conjugate, sl3_rescaled):
    """(P, flavor, check): the sl(3) conjugate and the rescaled one in both
    flavors, and 3/2 times the rescaled R, no modified r-matrix, unchecked."""
    cases = [(r if flavor == "R" else rb_from_r(r), flavor, True)
             for _, r in (sl3_conjugate, sl3_rescaled) for flavor in ("R", "B")]
    return cases + [(sl3_rescaled[1].scale(Fraction(3, 2)), "R", False)]


def test_coboundary_values_keep_their_types(sl3_conjugate, sl3_rescaled,
                                            rng=random.Random(35)):
    # the coboundary is assembled in ints and scaled only where it leaves:
    # .matrix, read once, d_apply and coboundary_preimage equal the rational
    # route entry for entry and type for type, and .matrix is the int
    # matrix itself at scale 1
    scales = []
    for P, flavor, check in _int_cases(sl3_conjugate, sl3_rescaled):
        a = P.algebra
        for k in (0, 1, 2):
            side = cochain._complex(P, flavor, k, check=check)
            cb = coboundary_matrix(side, k, flavor=flavor)
            assert cb.scale == side.scale
            assert all(type(x) is int for i in range(cb.integral.nrows)
                       for x in cb.integral.nonzeros(i).values())
            want = _rational_coboundary(P, k, flavor)
            assert _typed_rows(cb.matrix) == _typed_rows(want)
            assert cb.matrix is cb.matrix and (cb.matrix is cb.integral) == (cb.scale == 1)
            for c in (1, Fraction(-2, 3), Fraction(5, 7)):
                f = rand_cochain(rng, a, k, support=3).scale(c)
                got = d_apply(side, f, flavor=flavor, check=False)
                expected = Cochain.from_coeff_vector(a, k + 1, want.apply(f.to_coeff_vector()))
                assert _typed_coeffs(got) == _typed_coeffs(expected)
                assert not got.is_zero() or k == 2
            # the preimage the whole rational matrix gives, free columns at 0
            pre = coboundary_preimage(side, got, flavor=flavor)
            x = full_solve(want, got.to_coeff_vector())
            assert _typed_coeffs(pre) == _typed_coeffs(Cochain.from_coeff_vector(a, k, x))
        scales.append(side.scale)
    assert scales == [1, Fraction(1, 2), Fraction(1, 4320), Fraction(1, 8640),
                      Fraction(1, 2880)]


def test_cohomology_hands_the_elimination_ints(sl3_conjugate, sl3_rescaled, monkeypatch):
    # every row that cohomology eliminates, exactly or modulo the prime, is
    # all ints, no _integral scan runs, and every coboundary witness image
    # is d of its preimage, type for type
    seen = []
    true_eliminate = linalg.eliminate
    monkeypatch.setattr(linalg, "_integral", lambda rows: pytest.fail("_integral called"))
    monkeypatch.setattr(linalg, "eliminate", lambda rows, modulus=0: seen.append(
        list(rows)) or true_eliminate(rows, modulus))
    for P, flavor, _ in _int_cases(sl3_conjugate, sl3_rescaled)[:4]:
        seen.clear()
        rep = cohomology(P, 3, flavor=flavor)
        assert [rep.dim_h(d) for d in (1, 2, 3)] == [2, 9, 16]
        assert len(seen) == 6 and all(type(x) is int for rows in seen for row in rows
                                      for x in row.values())
        for d in rep.degrees.values():
            for pre, img in d.coboundary_witnesses:
                want = d_apply(P, pre, flavor=flavor, check=False)
                assert _typed_coeffs(img) == _typed_coeffs(want)


def test_arity_zero_rows_are_the_lambda_rows(sl3_rescaled):
    # at arity 0 the matrix rows are lambda's own row dicts, and neither
    # the elimination nor the scaled read changes them
    a, r = sl3_rescaled
    n = a.dim
    for flavor, P in (("R", r), ("B", rb_from_r(r))):
        side = cochain._complex(P, flavor, 0)
        before = [{m: dict(row) for m, row in lam.items()} for lam in side.lambdas]
        cb = coboundary_matrix(side, 0, flavor=flavor)
        linalg.certified_rank(cb.integral)
        cb.matrix
        for u, lam in enumerate(side.lambdas):
            for m in range(n):
                if m in lam:
                    assert cb.integral._rows[u * n + m] is lam[m]
                else:
                    assert not cb.integral._rows[u * n + m]
        assert side.lambdas == before


def test_unchecked_d_apply_reads_no_defect(sl3_rescaled, monkeypatch):
    # check=False builds the int complex of an operator that is not modified
    # without reading S(R), and still scales its output
    a, r = sl3_rescaled
    monkeypatch.setattr(cochain, "_modified_defect", lambda *args: pytest.fail("S(R) read"))
    f = Cochain.from_vector(a, a.basis_vector(0))
    for flavor, P in (("R", r.scale(Fraction(3, 2))), ("B", rb_from_r(r).scale(3))):
        got = d_apply(P, f, flavor=flavor, check=False)
        want = _rational_coboundary(P, 0, flavor).apply(f.to_coeff_vector())
        assert got.to_coeff_vector() == list(want) and not got.is_zero()


def test_prime_in_the_denominator_is_certified(affine2):
    # [a, n] = p n for p = 2^61 - 1, the prime of the rank's lower bound,
    # and R conjugated by exp(ad(n / p^2)), whose matrix has the denominator
    # p: p d has every entry divisible by p, and certified_rank divides it
    # out of the minor
    a, r = affine2
    p = linalg.MODULUS
    b = LieAlgebra(2, {(0, 1): (0, p)}, basis_names=a.basis_names)
    R = Endo(Matrix([[1, 0], [Fraction(-2, p), -1]]), b)
    for flavor, P, Q in (("R", r, R), ("B", rb_from_r(r), rb_from_r(R))):
        side = cochain._complex(Q, flavor, 0)
        assert side.scale.denominator % p == 0
        integral = coboundary_matrix(side, 0, flavor=flavor).integral
        assert all(x % p == 0 for i in range(integral.nrows)
                   for x in integral.nonzeros(i).values())
        want, got = cohomology(P, 3, flavor=flavor), cohomology(Q, 3, flavor=flavor)
        assert [got.dim_h(d) for d in (1, 2, 3)] == [want.dim_h(d) for d in (1, 2, 3)]


def test_coboundary_requires_valid_operator(sl2):
    a, _ = sl2
    with pytest.raises(PreconditionError):
        coboundary_matrix(Endo.from_diagonal(a, [1, 1, -1]), 1)
    with pytest.raises(PreconditionError):
        coboundary_matrix(Endo.identity(a), 1, flavor="B")


def _off_by_scale_or_entry(rng, P):
    """c P for c in 2, -3, 1/2, and P with one seeded entry changed."""
    rows = P.matrix.rows_list()
    n = len(rows)
    rows[rng.randrange(n)][rng.randrange(n)] += rng.choice((1, -1, 2, Fraction(1, 2)))
    return [P.scale(c) for c in (2, -3, Fraction(1, 2))] + [Endo(Matrix(rows), P.algebra)]


def _old_route_message(P, flavor):
    """The precondition message as the separate defect evaluation words it."""
    if flavor == "R":
        with pytest.raises(PreconditionError) as exc:
            require_modified(P, "the R-complex coboundary")
        return str(exc.value)
    report = is_rota_baxter(P, 1)
    assert not report.ok
    i, j = report.failing_pair
    names = P.algebra.basis_names
    return (f"the B-complex coboundary needs a weight-1 Rota-Baxter operator; "
            f"axiom fails on ({names[i]}, {names[j]})")


@pytest.mark.parametrize("flavor", ["R", "B"])
@pytest.mark.parametrize("name", ["sl2", "sl3", "sl3_conjugate", "sl3_rescaled"])
def test_precondition_read_off_the_image_table(name, flavor, request, rng=random.Random(33)):
    # S(R) on the image table of the one complex a call builds (R = Id + 2P
    # in the B-complex, where S(R) is 4 times P's Rota-Baxter defect) refuses
    # exactly what the separate defect evaluation refuses, with the same
    # message, also where it is read as t^2 S(R) off the int complex of t R
    # (sl3_rescaled: R and its table fractional); an arity out of range is
    # an input error before that
    a, r = request.getfixturevalue(name)
    valid = r if flavor == "R" else rb_from_r(r)

    def routes(P):
        for k in (0, 1):
            yield lambda: coboundary_matrix(P, k, flavor=flavor)
            yield lambda: d_apply(P, Cochain(a, k, {tuple(range(k)): a.basis_vector(k)}),
                                  flavor=flavor)
        yield lambda: cohomology(P, 1, flavor=flavor)
        yield lambda: cohomology(P, 2, flavor=flavor)
        if flavor == "R":
            yield lambda: kuranishi(P, Cochain.zero(a, 1))
    for P in _off_by_scale_or_entry(rng, valid):
        message = _old_route_message(P, flavor)
        for route in routes(P):
            with pytest.raises(PreconditionError) as exc:
                route()
            assert str(exc.value) == message
        too_high = Cochain.zero(a, a.dim + 1)
        for route in (lambda: coboundary_matrix(P, a.dim + 1, flavor=flavor),
                      lambda: d_apply(P, too_high, flavor=flavor),
                      lambda: is_cocycle(P, too_high, flavor=flavor),
                      lambda: coboundary_preimage(P, Cochain.zero(a, a.dim + 2),
                                                  flavor=flavor)):
            with pytest.raises(InputError, match="out of range"):
                route()
    for route in routes(valid):
        route()


@pytest.mark.parametrize("name, flavor, witnesses", [
    pytest.param(name, flavor, witnesses, id=f"{name}-{flavor}" + ("" if witnesses else "-ranks"))
    for witnesses in (True, False) for name in ("sl3", "sl3_conjugate") for flavor in "RB"])
def test_cohomology_builds_each_kernel_once(name, flavor, witnesses, request, monkeypatch):
    # every dimension comes from the certified ranks; only witnesses read a
    # kernel, whose rows are the cocycle witnesses, and the pivots of the
    # previous coboundary, the preimages of the coboundary witnesses
    a, r = request.getfixturevalue(name)
    kernels, pivots = [], []
    true_null_space, true_pivot_columns = Matrix.null_space, Matrix.pivot_columns
    monkeypatch.setattr(Matrix, "null_space",
                        lambda m: kernels.append(true_null_space(m)) or kernels[-1])
    monkeypatch.setattr(Matrix, "pivot_columns",
                        lambda m: pivots.append(true_pivot_columns(m)) or pivots[-1])
    rep = cohomology(r if flavor == "R" else rb_from_r(r), 3, flavor=flavor,
                     witnesses=witnesses)
    degrees = list(rep.degrees.values())
    assert [d.arity for d in degrees if d.dim_cochains] == [0, 1, 2]
    assert (len(kernels), len(pivots)) == ((3, 2) if witnesses else (0, 0))
    for kernel, d in zip(kernels, degrees):
        assert [w.to_coeff_vector() for w in d.cocycle_witnesses] == kernel.rows_list()
    for cols, d in zip(pivots, degrees[1:]):
        assert [pre.to_coeff_vector().index(1) for pre, _ in d.coboundary_witnesses] == \
            list(cols)


DIMENSIONS = ("dim_cochains", "dim_cocycles", "dim_coboundaries", "dim_cohomology")
CARTAN_BLOCKS = {"sl2_cartan": (2, [[3]]), "sl3_cartan": (3, [[1, 5], [0, -2]])}


@pytest.mark.parametrize("flavor", ["R", "B"])
@pytest.mark.parametrize("name, max_degree", [
    ("sl2", 6), ("sl3", 4), ("sl4", 3), ("sl3_conjugate", 3), ("sl2_cartan", 6),
    ("sl3_cartan", 3)])
def test_witnesses_change_no_dimension(name, max_degree, flavor, request):
    # a run without witnesses reads each dimension off the ranks alone; a
    # run with them reports the same numbers, one witness for each
    if name in CARTAN_BLOCKS:
        _, r = borel_with_cartan(*CARTAN_BLOCKS[name])
    else:
        _, r = request.getfixturevalue(name)
    P = r if flavor == "R" else rb_from_r(r)
    full, bare = (cohomology(P, max_degree, flavor=flavor, witnesses=w) for w in (True, False))
    assert list(full.degrees) == list(bare.degrees) == list(range(1, max_degree + 1))
    for d, rep in full.degrees.items():
        assert [getattr(rep, key) for key in DIMENSIONS] == \
            [getattr(bare.degrees[d], key) for key in DIMENSIONS]
        assert (len(rep.cocycle_witnesses), len(rep.coboundary_witnesses)) == \
            (rep.dim_cocycles, rep.dim_coboundaries)
        assert not bare.degrees[d].cocycle_witnesses and not bare.degrees[d].coboundary_witnesses


# an integer argument given as a bool, a float, a Fraction or a string
NON_INT = pytest.mark.parametrize("bad", [True, 1.0, Fraction(1), "1"],
                                  ids=["bool", "float", "Fraction", "str"])


@NON_INT
def test_cohomology_refuses_a_non_int_max_degree(sl2, bad):
    _, r = sl2
    for flavor, P in (("R", r), ("B", rb_from_r(r))):
        assert input_error(lambda: cohomology(P, max_degree=bad, flavor=flavor)) == \
            f"max_degree must be an integer, got {bad!r}"


@NON_INT
def test_coboundary_matrix_refuses_a_non_int_arity(sl2, bad):
    # after a k = 1 call, basis_tuples(n, 1) is cached, and its key (n, 1)
    # equals (n, 1.0) and (n, Fraction(1)): the arity is refused before the
    # cache is read
    _, r = sl2
    for flavor, P in (("R", r), ("B", rb_from_r(r))):
        coboundary_matrix(P, 1, flavor=flavor)
        assert input_error(lambda: coboundary_matrix(P, bad, flavor=flavor)) == \
            f"arity k must be an integer, got {bad!r}"


@pytest.mark.parametrize("bad, message", [
    (1.0, "cochain arity must be an integer, got 1.0"),
    (1.5, "cochain arity must be an integer, got 1.5"),
    (True, "cochain arity must be an integer, got True"),
    (-1, "negative cochain arity")], ids=["float", "fractional", "bool", "negative"])
def test_cochain_constructors_refuse_a_bad_arity(sl2, bad, message):
    a, _ = sl2
    for call in (lambda: Cochain(a, bad, {(0,): (1, 0, 0)}), lambda: Cochain.zero(a, bad),
                 lambda: Cochain.from_sparse(a, bad, {0: 1}),
                 lambda: Cochain.from_coeff_vector(a, bad, [0] * 9)):
        assert input_error(call) == message


def test_cohomology_sl2(sl2):
    a, r = sl2
    rep = cohomology(r, 3)
    assert rep.dim_h(1) == 1 and rep.dim_h(2) == 2
    d2 = rep.degrees[2]
    assert (d2.dim_cochains, d2.dim_cocycles, d2.dim_coboundaries) == (9, 4, 2)
    d3 = rep.degrees[3]
    assert (d3.dim_cocycles, d3.dim_coboundaries, d3.dim_cohomology) == (6, 5, 1)


def test_cohomology_sl3_h1(sl3):
    _, r = sl3
    assert cohomology(r, 1).dim_h(1) == 2


def test_cohomology_sl3_h2(sl3):
    # frozen after cross-checking both coboundary ranks against sympy
    _, r = sl3
    assert cohomology(r, 2).dim_h(2) == 9


# sha256 of the sorted-key JSON of the library report cohomology(P, d,
# flavor) with witnesses, for P the sl(n) Borel operator or its conjugate by
# exp(ad x), x = E12 + E13/2, and B = rb_from_r(P) in the B flavor.  The CLI
# prints no coboundary witness, so these digests pin what it never shows.
REPORT_DIGESTS = {
    (3, 4, "borel", "R"): "277904449f70bc041b0b31409ca743abf9f7d818f1b1cb06de06fcbb25a3e541",
    (3, 4, "borel", "B"): "d1432c9ae6216f1abf738e661d3e38de5ab7476900da5ee6a74e25dd15dcc1ff",
    (3, 4, "conjugate", "R"): "69e68434ba4b064aa9fb502cbedfcff484fe7e7578560c7030615e6bdd1f9a36",
    (3, 4, "conjugate", "B"): "f1b95f29bd37cbb4b3a6e962c80b6166f09c1eab6fd94fdcb0e5828e2b0ee1d7",
    (4, 3, "borel", "R"): "657d23d0b8d37bfa1ad24dda9a1632caa2cd1db1a2cd37a75d6cde022cda03db",
    (4, 3, "borel", "B"): "8cf1b04411594701566594b02604a13c9b59079175299aab6746a6e240b5446b",
    (4, 3, "conjugate", "R"): "d21a83e5756810c180ba122dcb98110b9f918f3b9fa5ca9e9d77a0b0299eab08",
    (4, 3, "conjugate", "B"): "1384e5ff8e564332ebb11374409311380d65cd020dbb8f6c8c492c579b0aa3a2",
}


@functools.cache
def pinned_report(key):
    """The operator and the library report of a REPORT_DIGESTS key."""
    n, max_degree, name, flavor = key
    a, r = catalog("sl-borel", n)
    if name == "conjugate":
        x = [0] * a.dim
        x[a.basis_names.index("E12")] = 1
        x[a.basis_names.index("E13")] = Fraction(1, 2)
        r = conjugate(nilpotent_exp(a, tuple(x)), r)
    P = r if flavor == "R" else rb_from_r(r)
    return P, cohomology(P, max_degree, flavor=flavor)


@pytest.mark.parametrize("key", sorted(REPORT_DIGESTS))
def test_library_report_digests(key):
    text = json.dumps(pinned_report(key)[1].to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[key]


def combination(coefficients, cochains, algebra, arity):
    """sum c_i f_i over zip(coefficients, cochains)."""
    acc = {}
    for c, f in zip(coefficients, cochains):
        for tup, vec in f.coeffs.items():
            acc[tup] = vadd(acc.get(tup, algebra.zero()), vscale(c, vec))
    return Cochain(algebra, arity, acc)


def test_cohomology_witness_invariants(sl2, rng=random.Random(30)):
    a, r = sl2
    rep = cohomology(r, 3)
    for degree, dr in rep.degrees.items():
        assert dr.dim_cohomology == dr.dim_cocycles - dr.dim_coboundaries >= 0
        assert dr.dim_cochains == cochain_space_dim(a.dim, dr.arity)
        for w in dr.cocycle_witnesses:
            assert d_apply(r, w, check=False).is_zero()
        for pre, img in dr.coboundary_witnesses:
            assert d_apply(r, pre, check=False) == img
    # The pinned reports hold about 500 witnesses each.  d_apply is linear,
    # so one call on a combination with random coefficients in 1..2^40
    # tests all witnesses of a degree at once: a witness with the wrong
    # coboundary passes with chance below 2^-40.
    for key in sorted(REPORT_DIGESTS):
        P, rep = pinned_report(key)
        flavor = key[3]
        for degree, dr in rep.degrees.items():
            assert dr.dim_cohomology == dr.dim_cocycles - dr.dim_coboundaries >= 0
            assert len(dr.cocycle_witnesses) == dr.dim_cocycles
            assert len(dr.coboundary_witnesses) == dr.dim_coboundaries
            zs = combination([rng.randint(1, 1 << 40) for _ in dr.cocycle_witnesses],
                             dr.cocycle_witnesses, P.algebra, dr.arity)
            assert d_apply(P, zs, flavor=flavor, check=False).is_zero()
            if not dr.coboundary_witnesses:
                continue
            pres, imgs = zip(*dr.coboundary_witnesses)
            cs = [rng.randint(1, 1 << 40) for _ in pres]
            pre = combination(cs, pres, P.algebra, dr.arity - 1)
            assert d_apply(P, pre, flavor=flavor, check=False) == \
                combination(cs, imgs, P.algebra, dr.arity)


def test_cohomology_degrees_above_dim_vanish(sl2):
    a, r = sl2
    rep = cohomology(r, 5)
    assert rep.degrees[5].dim_cochains == 0
    assert rep.degrees[5].dim_cohomology == 0


def test_cohomology_b_flavor_isomorphic(sl2, sl3):
    from mcybe.rmatrix import rb_from_r
    for a, r in (sl2, sl3):
        max_degree = 3 if a.dim == 3 else 2
        hr = cohomology(r, max_degree)
        hb = cohomology(rb_from_r(r), max_degree, flavor="B")
        for d in range(1, max_degree + 1):
            assert hr.dim_h(d) == hb.dim_h(d)


@pytest.mark.parametrize("flavor", ["R", "B"])
@pytest.mark.parametrize("name", ["sl3", "sl3_conjugate"])
def test_cohomology_scales_each_matrix_once(name, flavor, request, monkeypatch):
    # the rank certificate reads the int rows of the exact elimination: each
    # coboundary matrix is assembled in ints and eliminated once, its
    # nonempty rows as they are, with no integral copy of it or its kernel
    _, r = request.getfixturevalue(name)
    P = r if flavor == "R" else rb_from_r(r)
    calls, exact = [], []
    true_integral, true_eliminate = linalg._integral, linalg.eliminate
    monkeypatch.setattr(linalg, "_integral",
                        lambda rows: calls.append(rows) or true_integral(rows))

    def eliminate(rows, modulus=0):
        if not modulus:
            exact.append(rows)
        return true_eliminate(rows, modulus)
    monkeypatch.setattr(linalg, "eliminate", eliminate)
    rep = cohomology(P, 3, flavor=flavor)
    assert [d.arity for d in rep.degrees.values() if d.dim_cochains] == [0, 1, 2]
    assert calls == [] and len(exact) == 3
    monkeypatch.undo()
    for k, rows in enumerate(exact):
        integral = coboundary_matrix(P, k, flavor=flavor).integral
        assert [list(row.items()) for row in rows] == \
            [list(integral.nonzeros(i).items()) for i in range(integral.nrows)
             if integral.nonzeros(i)]


# -- one complex per library call ---------------------------------------------

def _spy_side(monkeypatch, seen):
    """Log "lambda" for each lambda build, "table" for each image table and
    "mu" for each induced bracket built, through liealg and through
    cochain's own names for them."""
    for name, tag in (("_lambdas", "lambda"), ("_images", "table"), ("_induced", "mu")):
        real = getattr(liealg, name)
        spy = lambda *args, real=real, tag=tag: seen.append(tag) or real(*args)
        monkeypatch.setattr(liealg, name, spy)
        monkeypatch.setattr(cochain, name, spy)


def _attributes(obj):
    """What obj holds, as {attribute: id(value)}: its instance dict, or its
    slots for a class without one."""
    if hasattr(obj, "__dict__"):
        return {name: id(value) for name, value in vars(obj).items()}
    return {name: id(getattr(obj, name)) for name in type(obj).__slots__}


@pytest.mark.parametrize("flavor", ["R", "B"])
def test_cohomology_builds_one_side_per_call(sl3, flavor, monkeypatch):
    # one lambda build per call at every max_degree, the image table and mu
    # only from arity 1 up, and nothing left behind on the operator, its
    # matrix or its algebra
    a, r = sl3
    P = r if flavor == "R" else rb_from_r(r)
    before = [_attributes(x) for x in (P, P.matrix, a)]
    seen = []
    _spy_side(monkeypatch, seen)
    for max_degree in (1, 2, 3, 4):
        cohomology(P, max_degree, flavor=flavor, witnesses=False)
        assert seen == ["lambda"] + ["table", "mu"] * (max_degree > 1), max_degree
        seen.clear()
    for _ in range(2):
        cohomology(P, 2, flavor=flavor)
    assert seen == ["lambda", "table", "mu"] * 2
    assert [_attributes(x) for x in (P, P.matrix, a)] == before
    assert not hasattr(P, "__dict__") and not hasattr(P.matrix, "__dict__")


def _typed_rows(m):
    """The rows of m as sorted (column, type, entry) triples."""
    return [[(j, type(x), x) for j, x in sorted(m.nonzeros(i).items())] for i in range(m.nrows)]


def _typed_coeffs(f):
    return {key: [(type(x), x) for x in vec] for key, vec in f.coeffs.items()}


@pytest.mark.parametrize("flavor", ["R", "B"])
@pytest.mark.parametrize("name", ["sl3", "sl3_conjugate", "sl4"])
def test_shared_complex_matches_standalone(name, flavor, request, monkeypatch,
                                           rng=random.Random(34)):
    # every matrix cohomology assembles off its one complex, and every
    # d_apply through a shared complex, equals the standalone call on P
    a, r = request.getfixturevalue(name)
    P = r if flavor == "R" else rb_from_r(r)
    inside = []
    assemble = cochain.coboundary_matrix

    def recorded(Q, k, **kwargs):
        cb = assemble(Q, k, **kwargs)
        inside.append((Q, k, cb))
        return cb
    monkeypatch.setattr(cochain, "coboundary_matrix", recorded)
    cohomology(P, 4, flavor=flavor, witnesses=False)
    monkeypatch.undo()
    assert [k for _, k, _ in inside] == [0, 1, 2, 3]
    side = inside[0][0]
    assert isinstance(side, cochain._Complex) and all(Q is side for Q, _, _ in inside)
    for _, k, cb in inside:
        alone = coboundary_matrix(P, k, flavor=flavor)
        assert cb.scale == alone.scale == side.scale
        assert _typed_rows(cb.integral) == _typed_rows(alone.integral)
        assert _typed_rows(cb.matrix) == _typed_rows(alone.matrix)
        for _ in range(3):
            f = rand_cochain(rng, a, k).scale(rng.choice((1, Fraction(-2, 3))))
            got, want = d_apply(side, f, flavor=flavor), d_apply(P, f, flavor=flavor)
            assert got == want and _typed_coeffs(got) == _typed_coeffs(want)


def test_complex_of_the_other_flavor_is_refused(sl3):
    a, r = sl3
    f = Cochain.from_vector(a, a.basis_vector(0))
    for flavor, other in (("R", "B"), ("B", "R")):
        side = cochain._complex(r if flavor == "R" else rb_from_r(r), flavor, 0)
        for route in (lambda: coboundary_matrix(side, 0, flavor=other),
                      lambda: d_apply(side, f, flavor=other),
                      lambda: is_cocycle(side, f, flavor=other),
                      lambda: coboundary_preimage(side, d_apply(side, f, flavor=flavor),
                                                  flavor=other)):
            with pytest.raises(InternalError, match=f"{flavor}-complex of P passed"):
                route()


def test_is_cocycle_on_exact_cochains(sl2, rng=random.Random(25)):
    a, r = sl2
    for _ in range(8):
        x = rand_vector(rng, a.dim)
        dx = d_apply(r, Cochain.from_vector(a, x), check=False)
        assert is_cocycle(r, dx)
        pre = coboundary_preimage(r, dx)
        assert pre is not None
        assert d_apply(r, pre, check=False) == dx


def test_is_cocycle_rejects_arity_above_dim(sl2):
    a, r = sl2
    assert is_cocycle(r, Cochain.zero(a, a.dim))       # d lands in C^(dim+2) = 0
    with pytest.raises(InputError, match="out of range"):
        is_cocycle(r, Cochain.zero(a, a.dim + 1))


def test_d_apply_rejects_arity_above_dim(sl2):
    # the same arity rule as coboundary_matrix and is_cocycle
    a, r = sl2
    assert d_apply(r, Cochain.zero(a, a.dim)).is_zero()
    for flavor, op in (("R", r), ("B", rb_from_r(r))):
        with pytest.raises(InputError, match=r"arity k=4 out of range 0\.\.3"):
            d_apply(op, Cochain.zero(a, a.dim + 1), flavor=flavor)


def test_cochain_over_another_algebra_is_refused(sl2, sl3):
    # a cochain over a smaller or a larger algebra than the operator's is an
    # input error, through P itself and through a complex built from it
    for (a, r), (b, s) in ((sl3, sl2), (sl2, sl3)):
        for flavor, op in (("R", r), ("B", rb_from_r(r))):
            side = cochain._complex(op, flavor, 0)
            for f in (Cochain.from_vector(b, b.basis_vector(0)), Cochain.from_endo(s)):
                for P in (op, side):
                    routes = [d_apply, is_cocycle] + [coboundary_preimage] * (f.arity > 0)
                    for route in routes:
                        with pytest.raises(InputError, match="over the operator's algebra"):
                            route(P, f, flavor=flavor)


def test_r_as_two_cochain_is_not_closed(sl2):
    # d(R) = -2 pi on a non-abelian algebra, so R is not a 2-cocycle
    a, r = sl2
    rc = Cochain.from_endo(r)
    assert d_apply(r, rc, check=False) == pi_cochain(a).scale(-2)
    assert not is_cocycle(r, rc)


def test_z2_witnesses_preimage_pattern(sl2):
    # exactly dim B^2 = 2 of the four kernel witnesses are coboundaries
    a, r = sl2
    kernel = coboundary_matrix(r, 1).matrix.kernel_basis()
    verdicts = []
    for vec in kernel:
        f = Cochain.from_coeff_vector(a, 1, vec)
        verdicts.append(coboundary_preimage(r, f) is not None)
    assert verdicts.count(True) == 2
    assert verdicts == [False, True, True, False]


def test_solve_preimage_congruent_mod_kernel(sl2):
    # preimage of d(e) equals e up to the kernel span{h}
    a, r = sl2
    e = a.basis_vector(0)
    de = d_apply(r, Cochain.from_vector(a, e), check=False)
    pre = coboundary_preimage(r, de)
    assert pre is not None
    diff = tuple(p - q for p, q in zip(to_vector(pre), e))
    assert diff[0] == 0 and diff[1] == 0     # lies in span{h}


def test_linearization_identity_against_sympy(sl2, rng=random.Random(26)):
    # coefficient of t in S(R + t g) equals the coboundary of g, degree-0
    # coefficient equals S(R); checked symbolically
    a, r = sl2
    t = sympy.Symbol("t")
    for _ in range(4):
        g = rand_endo(rng, a)
        rt = [[sympy.Rational(r.matrix.entry(i, j)) + t * g.matrix.entry(i, j)
               for j in range(3)] for i in range(3)]

        def bra(x, y):
            return [sum(sympy.Rational(str(c)) * (x[i] * y[j] - x[j] * y[i])
                        for (i, j), vec in a.structure.items()
                        for c in [vec[m]])
                    for m in range(3)]

        def bracket_sym(x, y):
            out = [sympy.Integer(0)] * 3
            for (i, j), vec in a.structure.items():
                coeff = x[i] * y[j] - x[j] * y[i]
                for m in range(3):
                    out[m] += coeff * vec[m]
            return out

        def apply_sym(mat, v):
            return [sum(mat[i][j] * v[j] for j in range(3)) for i in range(3)]

        dg = d_apply(r, Cochain.from_endo(g), check=False)
        for i in range(3):
            for j in range(i + 1, 3):
                ei = [sympy.Integer(1 if k == i else 0) for k in range(3)]
                ej = [sympy.Integer(1 if k == j else 0) for k in range(3)]
                ri, rj = apply_sym(rt, ei), apply_sym(rt, ej)
                inner = [u + v for u, v in zip(bracket_sym(ri, ej),
                                               bracket_sym(ei, rj))]
                s = [sympy.expand(u - v + w) for u, v, w in
                     zip(bracket_sym(ri, rj), apply_sym(rt, inner),
                         bracket_sym(ei, ej))]
                for m in range(3):
                    poly = sympy.Poly(s[m], t)
                    assert poly.coeff_monomial(1) == 0          # S(R) = 0
                    assert poly.coeff_monomial(t) == sympy.Rational(dg.get((i, j))[m])


def test_cochain_space_dimensions(sl3):
    a, _ = sl3
    n = a.dim
    for k in range(0, 5):
        assert cochain_space_dim(n, k) == comb(n, k) * n
        assert len(basis_tuples(n, k)) == comb(n, k)


def test_cochain_json_roundtrip(sl3, rng=random.Random(27)):
    a, _ = sl3
    f = rand_cochain(rng, a, 2, support=3)
    again = Cochain.from_json_dict(f.to_json_dict(), a)
    assert again == f
    with pytest.raises(InputError):
        Cochain.from_json_dict({"degree": 2, "entries": [{"tuple": [1, 0], "value": [0] * 8}]}, a)
    # a misspelled key would leave the cochain zero
    entries = f.to_json_dict()["entries"]
    with pytest.raises(InputError, match="^unknown key 'entry' in cochain JSON$"):
        Cochain.from_json_dict({"degree": 2, "entry": entries}, a)
    with pytest.raises(InputError, match="^unknown key 'tuples' in cochain entry$"):
        Cochain.from_json_dict({"degree": 2, "entries": [{**entries[0], "tuples": []}]}, a)


@pytest.mark.parametrize("call, message", [
    (lambda a, r: coboundary_matrix(r, 0, flavor="X"), "unknown flavor 'X'; use 'R' or 'B'"),
    (lambda a, r: Cochain(a, -1), "negative cochain arity"),
    (lambda a, r: Cochain(a, 2, {(0,): (1, 0, 0)}), "tuple (0,) has length != arity 2"),
    (lambda a, r: Cochain(a, 1, {(0,): (1,)}), "value for (0,) has length 1 != dim 3"),
    (lambda a, r: Cochain.zero(a, 2).to_endo(), "arity-2 cochain is not an endomorphism"),
    (lambda a, r: Cochain.zero(a, 1) + Cochain.zero(a, 2), "cochain mismatch (arity or algebra)"),
    (lambda a, r: Cochain.from_coeff_vector(a, 1, [0] * 8), "coefficient vector length 8 != 9"),
    (lambda a, r: coboundary_preimage(r, Cochain.zero(a, 0)),
     "degree-1 cochains have no preimage space (C^0 = 0)"),
    (lambda a, r: Cochain.from_json_dict([], a), "cochain JSON must be a JSON object, got []"),
    (lambda a, r: Cochain.from_json_dict({"entries": []}, a),
     "missing key 'degree' in cochain JSON"),
    (lambda a, r: Cochain.from_json_dict({"degree": 1, "entries": [[[0], [1, 0, 0]]]}, a),
     "cochain entry must be a JSON object, got [[0], [1, 0, 0]]"),
    (lambda a, r: Cochain.from_json_dict({"degree": 1, "entries": [{"value": [1, 0, 0]}]}, a),
     "missing key 'tuple' in cochain entry"),
    (lambda a, r: Cochain(a, 1, {(0,): (0.5, 0, 0)}), "not an exact rational: 0.5 of type float"),
    (lambda a, r: Cochain(a, 1, {(0,): (0.0, 0, 0)}), "not an exact rational: 0.0 of type float"),
    (lambda a, r: Cochain(a, 1, {(0,): (True, 0, 0)}), "booleans are not rationals"),
    (lambda a, r: Cochain(a, 1, {(0,): (0, 0, False)}), "booleans are not rationals"),
    (lambda a, r: Cochain(a, 2, {(1, 0): (1, 0, 0)}),
     "tuple (1, 0) is not strictly increasing in range"),
    (lambda a, r: Cochain(a, 2, {(0, 0): (1, 0, 0)}),
     "tuple (0, 0) is not strictly increasing in range"),
    (lambda a, r: Cochain(a, 2, {(0, 3): (1, 0, 0)}),
     "tuple (0, 3) is not strictly increasing in range"),
    (lambda a, r: Cochain.from_json_dict(
        {"degree": 1, "entries": [{"tuple": [0], "value": [0.5, 0, 0]}]}, a),
     "not a rational: 0.5 (use an int or a 'p/q' string)"),
    (lambda a, r: Cochain.from_json_dict(
        {"degree": 1, "entries": [{"tuple": [0], "value": [True, 0, 0]}]}, a),
     "not a rational: True"),
    (lambda a, r: Cochain.from_json_dict(
        {"degree": 2, "entries": [{"tuple": [1, 0], "value": [1, 0, 0]}]}, a),
     "tuple (1, 0) is not strictly increasing in range"),
    (lambda a, r: Cochain.from_json_dict(
        {"degree": 2, "entries": [{"tuple": [0, 1.0], "value": [1, 0, 0]}]}, a),
     "cochain tuple [0, 1.0] needs integer indices"),
    (lambda a, r: Cochain.from_json_dict(
        {"degree": 1, "entries": [{"tuple": [0], "value": [1, 0]}]}, a),
     "vector length 2 != dim 3"),
    (lambda a, r: Cochain.from_json_dict(
        {"degree": 2, "entries": [{"tuple": [0], "value": [1, 0, 0]}]}, a),
     "tuple (0,) has length != arity 2"),
], ids=["flavor", "negative-arity", "tuple-length", "value-length", "to-endo-arity", "conform",
        "coeff-vector-length", "preimage-degree-1", "json-not-object", "json-no-degree",
        "entry-not-object", "entry-no-tuple", "float", "float-zero", "bool", "bool-false",
        "unsorted", "repeated", "index-range", "json-float", "json-bool", "json-unsorted",
        "json-float-index", "json-value-length", "json-tuple-length"])
def test_input_errors(sl2, call, message):
    assert input_error(lambda: call(*sl2)) == message


def test_coeff_vector_roundtrip(sl2, rng=random.Random(28)):
    a, _ = sl2
    for k in (0, 1, 2, 3):
        for f in (rand_cochain(rng, a, k, support=3), Cochain.zero(a, k)):
            assert Cochain.from_coeff_vector(a, k, f.to_coeff_vector()) == f


def test_from_sparse_matches_coeff_vector(sl2, rng=random.Random(31)):
    a, _ = sl2
    for k in (0, 1, 2, 3):
        f = rand_cochain(rng, a, k, support=3)
        vec = f.to_coeff_vector()
        assert Cochain.from_sparse(a, k, {i: x for i, x in enumerate(vec) if x}) == f
        # zero entries, exact or not, leave no key behind, as in __init__
        zeros = Cochain.from_sparse(a, k, {i: Fraction(0) if i % 2 else 0
                                           for i in range(len(vec))})
        assert zeros.coeffs == {} and zeros == Cochain.zero(a, k)
        for index in (-1, len(vec)):
            with pytest.raises(InputError):
                Cochain.from_sparse(a, k, {index: 1})
        with pytest.raises(InputError):
            Cochain.from_coeff_vector(a, k, [0.0] * len(vec))


def test_endo_vector_conversions(sl2, rng=random.Random(29)):
    a, _ = sl2
    m = rand_endo(rng, a)
    assert Cochain.from_endo(m).to_endo() == m
    x = rand_vector(rng, a.dim)
    assert to_vector(Cochain.from_vector(a, x)) == x


def test_to_endo_keeps_the_exact_values(sl2, monkeypatch):
    # the cochain's values are exact already, so to_endo takes them with no
    # ratio pass: a Fraction stays one, an integral Fraction(k, 1) has become
    # the int k, and a zero is no stored entry
    a, _ = sl2
    f = Cochain(a, 1, {(0,): (Fraction(1, 2), Fraction(4, 2), 0),
                       (2,): (0, Fraction(-3, 1), Fraction(-5, 7))})
    monkeypatch.setattr(linalg, "ratio", lambda x: pytest.fail("ratio called"))
    m = f.to_endo().matrix
    rows = [m.nonzeros(i) for i in range(a.dim)]
    assert rows == [{0: Fraction(1, 2)}, {0: 2, 2: -3}, {2: Fraction(-5, 7)}]
    assert [[type(x) for x in row.values()] for row in rows] == [[Fraction], [int, int],
                                                                 [Fraction]]
    assert Cochain.from_endo(f.to_endo()) == f


def _typed(f):
    """f's values entry by entry, each with its type."""
    return {key: [(type(x), x) for x in vec] for key, vec in f.coeffs.items()}


@pytest.mark.parametrize("flavor", ["R", "B"])
@pytest.mark.parametrize("name", ["sl2", "sl3", "sl3_conjugate"])
def test_trusted_path_equals_the_checking_constructor(name, flavor, request, monkeypatch,
                                                      rng=random.Random(41)):
    # d_apply, graded_bracket, scale, + and - hand their dicts to the trusted
    # path, which checks nothing; each result equals Cochain(a, k, coeffs) of
    # the same dict, entry by entry and type by type: every Fraction of
    # denominator 1 an int, and no zero value kept
    a, r = request.getfixturevalue(name)
    P = r if flavor == "R" else rb_from_r(r)
    built = []
    trusted = Cochain._trusted.__func__

    def spy(cls, algebra, arity, coeffs):
        f = trusted(cls, algebra, arity, coeffs)
        built.append((dict(coeffs), f))
        return f
    monkeypatch.setattr(Cochain, "_trusted", classmethod(spy))
    for k in (0, 1, 2):
        f = Cochain(a, k, rand_cochain(rng, a, k, support=3).coeffs).scale(Fraction(1, 2))
        g = Cochain(a, k, rand_cochain(rng, a, k, support=3).coeffs).scale(Fraction(-2, 3))
        results = [d_apply(P, f, flavor=flavor), d_apply(P, g, flavor=flavor),
                   f + g, f - g, f - f, (f + g) - g, f.scale(2), g.scale(Fraction(3, 2)),
                   f.scale(0)]
        if k:
            results += [graded_bracket(f, g), graded_bracket(f, f), graded_bracket(g, f)]
        assert (f + g) - g == f and (f - f).is_zero()
    assert len(built) > 20
    rewritten = dropped = 0
    for coeffs, f in built:
        assert _typed(f) == _typed(Cochain(a, f.arity, coeffs))
        for vec in f.coeffs.values():
            assert any(vec) and not any(type(x) is Fraction and x.denominator == 1 for x in vec)
        rewritten += any(type(x) is Fraction and x.denominator == 1
                         for vec in coeffs.values() for x in vec)
        dropped += any(not any(vec) for vec in coeffs.values())
    assert rewritten and dropped


@pytest.mark.parametrize("flavor", ["R", "B"])
def test_zero_preimage_builds_no_matrix(sl3, flavor, monkeypatch):
    # d 0 = 0, so the preimage of the zero cochain is the zero cochain: once
    # the arity and the precondition are checked, no matrix is built
    a, r = sl3
    P = r if flavor == "R" else rb_from_r(r)
    monkeypatch.setattr(cochain, "coboundary_matrix",
                        lambda *args, **kwargs: pytest.fail("a matrix was built"))
    for k in range(1, a.dim + 2):
        g = coboundary_preimage(P, Cochain.zero(a, k), flavor=flavor)
        assert g.arity == k - 1 and g.is_zero()
    for bad in (P.scale(c) for c in (2, -3, Fraction(1, 2))):
        with pytest.raises(PreconditionError) as exc:
            coboundary_preimage(bad, Cochain.zero(a, 2), flavor=flavor)
        assert str(exc.value) == _old_route_message(bad, flavor)
    with pytest.raises(InputError, match="out of range"):
        coboundary_preimage(P, Cochain.zero(a, a.dim + 2), flavor=flavor)
