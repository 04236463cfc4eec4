"""MCYBE defect, Rota-Baxter axiom, induced bracket, rho, involutive analyzer."""

import random
from fractions import Fraction

import pytest

from mcybe import (Cochain, Endo, InputError, LieAlgebra, Matrix, PreconditionError,
                   catalog, induced_bracket, involutive_analyze, is_rota_baxter,
                   mcybe_defect, nijenhuis_operator_check, operator_identity, r_from_rb,
                   rb_from_r, rho)
from mcybe import rmatrix
from mcybe.deform import weight0_defect_cochain
from mcybe.liealg import vadd

from conftest import NON_RATIONAL, input_error, rand_endo, rand_involution, rand_vector


def test_identity_is_modified_r_matrix(sl2, sl3, abelian3):
    for a, _ in (sl2, sl3, abelian3):
        assert mcybe_defect(Endo.identity(a)).is_zero


def test_borel_is_modified_r_matrix(sl2, sl3, sl4):
    for _, r in (sl2, sl3, sl4):
        assert mcybe_defect(r).is_zero


def test_diag_1_m1_t_family_solves_mcybe(sl2):
    # the sl(2) family diag(1, -1, t) solves the equation for every t
    a, _ = sl2
    for t in (0, 2, -3, Fraction(1, 2)):
        assert mcybe_defect(Endo.from_diagonal(a, [1, -1, t])).is_zero


def test_negative_instances_with_witness(sl2):
    a, _ = sl2
    bad = mcybe_defect(Endo.from_diagonal(a, [1, 1, -1]))
    assert not bad.is_zero
    assert bad.worst_pair == (0, 1)           # (e, f)
    assert bad.defect_cochain.get((0, 1)) == (0, 0, 4)
    assert not mcybe_defect(Endo.identity(a).scale(2)).is_zero


def test_defect_report_consistency(sl2, rng=random.Random(11)):
    a, _ = sl2
    for _ in range(15):
        rep = mcybe_defect(rand_endo(rng, a))
        assert rep.is_zero == rep.defect_cochain.is_zero()
        assert (rep.worst_pair is None) == rep.is_zero


def test_rota_baxter_zero_any_weight(sl2):
    a, _ = sl2
    for w in (0, 1, Fraction(-2, 3)):
        assert is_rota_baxter(Endo.zero(a), w).ok


def test_borel_b_weight_one(sl2):
    a, r = sl2
    b = rb_from_r(r)
    assert b.matrix == Matrix.diagonal([0, -1, 0])
    assert is_rota_baxter(b, 1).ok
    res = is_rota_baxter(b, 0)
    assert not res.ok
    assert res.failing_pair == (1, 2)          # (f, h)


def test_rb_r_roundtrip(sl2, rng=random.Random(12)):
    a, r = sl2
    assert rb_from_r(Endo.identity(a)).is_zero()
    for _ in range(10):
        m = rand_endo(rng, a)
        assert r_from_rb(rb_from_r(m)) == m
        assert rb_from_r(r_from_rb(m)) == m


def test_modified_iff_weight_one_rb(sl2, sl3, rng=random.Random(13)):
    # defect(R) = 0  <=>  (R - Id)/2 is a weight-1 Rota-Baxter operator
    a2, r2 = sl2
    a3, r3 = sl3
    instances = [r2, r3, Endo.identity(a2), Endo.from_diagonal(a2, [1, 1, -1]),
                 Endo.identity(a2).scale(2)]
    instances += [rand_endo(rng, a2) for _ in range(10)]
    for r in instances:
        assert mcybe_defect(r).is_zero == is_rota_baxter(rb_from_r(r), 1).ok


def test_defect_is_four_times_weight_one_rb_defect(sl3, rng=random.Random(20)):
    # R = Id + 2B turns S(R) into 4 ([Bx, By] - B([Bx, y] + [x, By] + [x, y]))
    a, r = sl3
    for R in [r, Endo.from_diagonal(a, [1, 1, -1, -1, 1, -1, 1, 3])] + \
            [rand_endo(rng, a) for _ in range(6)]:
        b = rb_from_r(R)
        rb_defect = Cochain(a, 2, dict(operator_identity(b, b.scale(-1))))
        assert mcybe_defect(R).defect_cochain == rb_defect.scale(4)


def test_torsion_of_involution_is_mcybe_defect(sl3, rng=random.Random(21)):
    a, r = sl3
    involutions = [r] + [rand_involution(rng, a) for _ in range(4)]
    assert any(not mcybe_defect(R).is_zero for R in involutions)
    for R in involutions:
        torsion = dict(operator_identity(R, R.compose(R)))
        assert torsion == mcybe_defect(R).defect_cochain.coeffs
        assert list(torsion) == sorted(torsion)


def test_weight0_rb_and_defect_cochain_agree_on_values(sl3, rng=random.Random(22)):
    a, r = sl3
    for b in [rb_from_r(r), Endo.zero(a)] + [rand_endo(rng, a) for _ in range(6)]:
        rep = is_rota_baxter(b, 0)
        coeffs = weight0_defect_cochain(b).coeffs
        first = next(iter(coeffs.items()), (None, None))
        assert rep.ok == (not coeffs)
        assert (rep.failing_pair, rep.value) == first
        assert first[0] == min(coeffs, default=None)


def test_induced_bracket_identity_doubles(sl2):
    a, _ = sl2
    doubled = induced_bracket(Endo.identity(a))
    for key, vec in a.structure.items():
        assert doubled.structure[key] == tuple(2 * x for x in vec)


def test_induced_bracket_borel_sl2(sl2):
    a, r = sl2
    ind = induced_bracket(r)
    e, f, h = a.basis()
    assert ind.bracket(e, f) == (0, 0, 0)
    assert ind.bracket(h, e) == (4, 0, 0)
    assert ind.bracket(h, f) == (0, 0, 0)
    assert ind.verify_jacobi().ok


def test_induced_bracket_abelian(abelian3, rng=random.Random(19)):
    a, r = abelian3
    assert induced_bracket(r).is_abelian()
    for _ in range(5):
        # every operator on an abelian algebra is a modified r-matrix and
        # induces the abelian bracket again
        assert induced_bracket(rand_endo(rng, a)).is_abelian()


def test_induced_bracket_refuses_non_solutions(sl2):
    a, _ = sl2
    bad = Endo.from_diagonal(a, [1, 1, -1])
    with pytest.raises(PreconditionError):
        induced_bracket(bad)
    # this raw table happens to satisfy Jacobi (a Heisenberg bracket) even
    # though the operator is not a modified r-matrix
    raw = induced_bracket(bad, force=True)
    assert raw.verify_jacobi().ok
    # and this one genuinely fails Jacobi
    worse = Endo(Matrix([[1, 1, -2], [0, 2, 1], [1, 0, 1]]), a)
    raw2 = induced_bracket(worse, force=True)
    jac = raw2.verify_jacobi()
    assert not jac.ok and jac.triple == (0, 1, 2)


def test_induced_jacobi_on_valid(sl2, sl3, rng=random.Random(14)):
    # whenever the precondition holds the output is a Lie algebra
    a, r = sl2
    for t in (0, 1, -2, Fraction(3, 5)):
        rr = Endo.from_diagonal(a, [1, -1, t])
        assert induced_bracket(rr).verify_jacobi().ok
    _, r3 = sl3
    assert induced_bracket(r3).verify_jacobi().ok


def test_rho_zero_cases(sl2, abelian3, rng=random.Random(15)):
    a, r = sl2
    assert rho(r, a.zero()).is_zero()
    ab, rid = abelian3
    for _ in range(5):
        assert rho(rid, rand_vector(rng, ab.dim)).is_zero()


@NON_RATIONAL
def test_rho_element_must_be_rational(sl2, monkeypatch, bad, message):
    # refused before ad_x is built
    _, r = sl2
    monkeypatch.setattr(LieAlgebra, "ad", lambda *args: pytest.fail("ad"))
    for x in ((bad, 0, 0), (0, 0, bad)):
        assert input_error(lambda: rho(r, x)) == message


def test_rho_borel_sl2_values(sl2):
    a, r = sl2
    e, f, h = a.basis()
    assert rho(r, h).matrix == Matrix.diagonal([0, -4, 0])
    assert rho(r, e).is_zero()
    rf = rho(r, f)
    assert rf.apply(e) == (0, 0, 2)
    assert rf.apply(f) == (0, 0, 0)
    assert rf.apply(h) == (0, 0, 0)


def test_rho_representation_property(sl2, sl3, rng=random.Random(16)):
    for a, r in (sl2, sl3):
        for _ in range(25):
            x = rand_vector(rng, a.dim)
            y = rand_vector(rng, a.dim)
            xy_r = vadd(a.bracket(r.apply(x), y), a.bracket(x, r.apply(y)))
            lhs = rho(r, xy_r).matrix
            mx, my = rho(r, x).matrix, rho(r, y).matrix
            assert lhs == mx @ my - my @ mx


def test_involutive_analyze_borel(sl2):
    a, r = sl2
    rep = involutive_analyze(r)
    assert rep.verdict and rep.all_agree()
    assert rep.plus_basis == ((1, 0, 0), (0, 0, 1))   # span{e, h}
    assert rep.minus_basis == ((0, 1, 0),)            # span{f}


def test_involutive_analyze_identity(sl2):
    a, _ = sl2
    rep = involutive_analyze(Endo.identity(a))
    assert rep.verdict
    assert rep.minus_basis == ()


def test_involutive_analyze_swap_negative(sl2):
    a, _ = sl2
    swap = Endo(Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), a)
    rep = involutive_analyze(swap)
    assert not rep.verdict and rep.all_agree()


def test_involutive_analyze_rejects_non_involution(sl2):
    a, _ = sl2
    with pytest.raises(InputError, match="h"):
        involutive_analyze(Endo.from_diagonal(a, [1, -1, 2]))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_involutive_analyze_forms_r_squared_once(name, sign, request, monkeypatch):
    # one product R o R checks R^2 = Id; the torsion of an involution is
    # S(R), so one operator-identity evaluation decides both verdicts
    _, r = request.getfixturevalue(name)
    R = r.scale(sign)
    products, identities = [], []
    true_matmul, true_identity = Matrix.__matmul__, rmatrix.operator_identity
    monkeypatch.setattr(Matrix, "__matmul__",
                        lambda m, other: products.append((m, other)) or true_matmul(m, other))
    monkeypatch.setattr(rmatrix, "operator_identity",
                        lambda P, S=None: identities.append((P, S)) or true_identity(P, S))
    report = involutive_analyze(R)
    assert report.all_agree() and report.verdict
    assert products == [(R.matrix, R.matrix)]
    assert identities == [(R, Endo.identity(R.algebra))]


# first failing pair and value on fixed non-solutions; pinned so that any
# rewrite of the basis-pair loops keeps reporting the same witness
_WORSE = [[1, 1, -2], [0, 2, 1], [1, 0, 1]]


@pytest.mark.parametrize("n, matrix, weight, pair, value", [
    (3, None, 0, (0, 4), (0, 0, 0, 0, 0, 1, 0, 0)),
    (3, None, 2, (0, 4), (0, 0, 0, 0, 0, -1, 0, 0)),
    (3, None, Fraction(-1, 2), (0, 4), (0, 0, 0, 0, 0, Fraction(3, 2), 0, 0)),
    (2, _WORSE, 1, (0, 1), (12, -4, -2)),
    (2, _WORSE, Fraction(1, 3), (0, 1),
     (Fraction(32, 3), Fraction(-10, 3), Fraction(-4, 3))),
])
def test_rota_baxter_witness_pinned(n, matrix, weight, pair, value):
    a, r = catalog("sl-borel", n)
    b = rb_from_r(r) if matrix is None else Endo(Matrix(matrix), a)
    rep = is_rota_baxter(b, weight)
    assert not rep.ok
    assert (rep.failing_pair, rep.value) == (pair, value)


@pytest.mark.parametrize("n, induced, operator, pair, value", [
    (2, False, [1, 1, -1], (0, 1), (0, 0, 4)),
    (2, False, _WORSE, (0, 1), (7, 0, -2)),
    (3, False, [1, 1, 1, -1, -1, -1, 1, 2], (1, 4), (0, 0, 0, 0, 0, 0, 0, 3)),
    (3, False, [1, 1, 1, -1, -1, -1, 0, 1], (0, 3), (0, 0, 0, 0, 0, 0, -1, 0)),
    (3, True, [[1 if (i + 2 * j) % 5 == 0 else 0 for j in range(8)] for i in range(8)],
     (0, 1), (0, 0, 0, 0, -2, 0, 0, 0)),
])
def test_nijenhuis_operator_witness_pinned(n, induced, operator, pair, value):
    a, r = catalog("sl-borel", n)
    if isinstance(operator[0], list):
        N = Endo(Matrix(operator), a)
    else:
        N = Endo.from_diagonal(a, operator)
    rep = nijenhuis_operator_check(induced_bracket(r) if induced else a, N)
    assert not rep.ok
    assert (rep.failing_pair, rep.value) == (pair, value)
