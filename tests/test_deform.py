"""Linear deformations, equivalences, Nijenhuis elements, compatible brackets."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy

from mcybe import (Cochain, Endo, InternalError, LieAlgebra, Matrix, PreconditionError,
                   catalog, check_equivalence, check_linear_deformation, coboundary_matrix,
                   coboundary_preimage, compatible_bracket_check, d_apply,
                   deformed_complements, induced_bracket, induced_bracket_deformation,
                   nijenhuis_check, nijenhuis_operator_check, nijenhuis_scan, pi_cochain,
                   trivial_deformation)
from mcybe import deform, rmatrix
from mcybe.deform import defect_polynomial, weight0_defect_cochain
from mcybe.rmatrix import induced_bracket_table

from conftest import NON_RATIONAL, input_error, rand_endo, rand_vector


def d_endo(r, x):
    return d_apply(r, Cochain.from_vector(r.algebra, tuple(x)), check=False).to_endo()


def test_zero_deformation_valid(sl2):
    a, r = sl2
    dv = check_linear_deformation(r, Endo.zero(a))
    assert dv.valid and dv.cocycle_ok and dv.weight0_ok


def test_d_h_is_zero_deformation(sl2):
    # h spans the kernel of the degree-1 coboundary, so d h = 0
    a, r = sl2
    rhat = d_endo(r, a.basis_vector(2))
    assert rhat.is_zero()
    assert check_linear_deformation(r, rhat).valid


def test_d_e_generates_valid_deformation(sl2):
    a, r = sl2
    rhat = d_endo(r, a.basis_vector(0))
    assert rhat.apply(a.basis_vector(1)) == (0, 0, 2)     # f -> 2h
    dv = check_linear_deformation(r, rhat)
    assert dv.valid
    # yet e is not a Nijenhuis element, so this does not come from the
    # trivial-deformation construction
    assert not nijenhuis_check(r, a.basis_vector(0)).is_nijenhuis_element


def test_invalid_deformation_with_witness(sl2):
    a, r = sl2
    dv = check_linear_deformation(r, Endo.identity(a))
    assert not dv.valid and dv.failing_pair is not None


def test_defect_polynomial_against_sympy(sl2, rng=random.Random(41)):
    # independent symbolic expansion of S(R + t Rhat) in t
    a, r = sl2
    t = sympy.Symbol("t")
    for _ in range(4):
        rhat = rand_endo(rng, a)
        s0, s1, s2 = defect_polynomial(r, rhat, rmatrix.mcybe_defect(r).defect_cochain)
        rt = [[sympy.Rational(r.matrix.entry(i, j)) + t * rhat.matrix.entry(i, j)
               for j in range(3)] for i in range(3)]

        def bracket_sym(x, y):
            out = [sympy.Integer(0)] * 3
            for (i, j), vec in a.structure.items():
                coeff = x[i] * y[j] - x[j] * y[i]
                for m in range(3):
                    out[m] += coeff * vec[m]
            return out

        def apply_sym(mat, v):
            return [sum(mat[i][j] * v[j] for j in range(3)) for i in range(3)]

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
                    assert poly.coeff_monomial(1) == sympy.Rational(s0.get((i, j))[m])
                    assert poly.coeff_monomial(t) == sympy.Rational(s1.get((i, j))[m])
                    assert poly.coeff_monomial(t ** 2) == sympy.Rational(s2.get((i, j))[m])


def test_validity_iff_defect_polynomial_vanishes(sl2, rng=random.Random(42)):
    a, r = sl2
    for _ in range(12):
        rhat = rand_endo(rng, a)
        dv = check_linear_deformation(r, rhat)
        _, s1, s2 = defect_polynomial(r, rhat, rmatrix.mcybe_defect(r).defect_cochain)
        assert dv.valid == (s1.is_zero() and s2.is_zero())


def _count_defects(monkeypatch):
    """The operators whose MCYBE defect is evaluated from now on, in order."""
    seen = []
    real = rmatrix.mcybe_defect

    def counting(R):
        seen.append(R)
        return real(R)
    monkeypatch.setattr(rmatrix, "mcybe_defect", counting)
    monkeypatch.setattr(deform, "mcybe_defect", counting)
    return seen


def test_linear_deformation_evaluates_three_defects(sl2, monkeypatch):
    # S(R) once for the precondition and the t^0 coefficient, then R +- Rhat
    a, r = sl2
    rhat = d_endo(r, a.basis_vector(0))
    seen = _count_defects(monkeypatch)
    assert check_linear_deformation(r, rhat).valid
    assert seen == [r, r + rhat, r - rhat]


@pytest.mark.parametrize("at", ["plus", "minus"])
def test_linear_deformation_routes_must_agree(sl2, monkeypatch, at):
    # the interpolated defect is off by [x, y] at t = 1 or at t = -1 only
    a, r = sl2
    rhat = d_endo(r, a.basis_vector(0))
    wrong = r + rhat if at == "plus" else r - rhat
    true_defect = rmatrix.mcybe_defect

    def defect(R):
        report = true_defect(R)
        if R == wrong:
            report = rmatrix.DefectReport(False, (0, 1),
                                          report.defect_cochain + pi_cochain(a))
        return report
    monkeypatch.setattr(deform, "mcybe_defect", defect)
    for call in (lambda: check_linear_deformation(r, rhat),
                 lambda: compatible_bracket_check(r, rhat, 1, 2)):
        with pytest.raises(InternalError) as info:
            call()
        assert str(info.value) == ("polynomial defect coefficients disagree with "
                                   "interpolated defect values")


def test_invalid_deformation_fails_in_the_weight0_term(sl2):
    # the third Z^2 kernel vector f is a cocycle with [[f, f]] != 0, so S1
    # vanishes and the failing pair comes from S2
    a, r = sl2
    vec = coboundary_matrix(r, 1).matrix.kernel_basis()[2]
    rhat = Cochain.from_coeff_vector(a, 1, vec).to_endo()
    dv = check_linear_deformation(r, rhat)
    assert dv.cocycle_ok and not dv.weight0_ok and not dv.valid
    assert dv.failing_pair == (0, 2) == min(weight0_defect_cochain(rhat).coeffs)


def test_equivalence_reflexive(sl2, rng=random.Random(43)):
    a, r = sl2
    rhat = d_endo(r, a.basis_vector(0))
    eq = check_equivalence(r, rhat, rhat, a.zero())
    assert eq.ok


def test_equivalence_shift_by_coboundary(affine2):
    aff, raff = affine2
    x = aff.basis_vector(1)                  # Nijenhuis element
    rhat1 = d_endo(raff, x)
    eq = check_equivalence(raff, rhat1, Endo.zero(aff), x)
    assert eq.ok
    assert eq.homomorphism_ok and eq.intertwine_linear_ok and eq.intertwine_quadratic_ok


def test_equivalence_fails_for_non_nijenhuis(sl2):
    a, r = sl2
    e = a.basis_vector(0)
    rhat = d_endo(r, e)
    eq = check_equivalence(r, rhat, Endo.zero(a), e)
    assert not eq.ok
    assert not eq.homomorphism_ok and eq.failing_pair is not None
    assert eq.intertwine_linear_ok           # the linear condition alone holds


def test_equivalence_requires_modified_r(sl2):
    a, r = sl2
    zero = Endo.zero(a)
    with pytest.raises(PreconditionError, match="check_equivalence needs a modified r-matrix"):
        check_equivalence(r.scale(3), zero, zero, a.zero())


@NON_RATIONAL
def test_equivalence_element_must_be_rational(sl2, monkeypatch, bad, message):
    # refused before R is checked or ad_x is built, so an R that is not a
    # modified r-matrix gives the same InputError
    a, r = sl2
    monkeypatch.setattr(LieAlgebra, "ad", lambda *args: pytest.fail("ad"))
    zero = Endo.zero(a)
    for op in (r, r.scale(3)):
        for x in ((bad, 0, 0), (0, 0, bad)):
            assert input_error(lambda: check_equivalence(op, zero, zero, x)) == message


def test_equivalence_fraction_one_matches_int(sl2, affine2):
    a, r = sl2
    rhat = d_endo(r, (1, 0, 0))
    for rhat2 in (rhat, Endo.zero(a)):
        assert (check_equivalence(r, rhat, rhat2, (Fraction(1, 1), 0, 0))
                == check_equivalence(r, rhat, rhat2, (1, 0, 0)))
    aff, raff = affine2
    for x in aff.basis():
        rhat = d_endo(raff, x)
        assert (check_equivalence(raff, rhat, Endo.zero(aff), tuple(map(Fraction, x)))
                == check_equivalence(raff, rhat, Endo.zero(aff), x))


def test_class_invariance(affine2):
    # equivalent deformations differ by an exact cochain
    aff, raff = affine2
    x = aff.basis_vector(0)
    rhat1 = d_endo(raff, x)
    rhat2 = Endo.zero(aff)
    assert check_equivalence(raff, rhat1, rhat2, x).ok
    diff = Cochain.from_endo(rhat1 - rhat2)
    assert coboundary_preimage(raff, diff) is not None


def test_nijenhuis_zero_element(sl2):
    a, r = sl2
    assert nijenhuis_check(r, a.zero()).is_nijenhuis_element


def test_nijenhuis_e_fails_eq1(sl2):
    # [[e, f], [e, h]] = [h, -2e] = -4e != 0
    a, r = sl2
    v = nijenhuis_check(r, a.basis_vector(0))
    assert not v.eq1_ok
    assert v.eq1_witness == (1, 2)


@NON_RATIONAL
def test_nijenhuis_element_must_be_rational(sl2, monkeypatch, bad, message):
    # refused before R is checked or any bracket of x is taken
    a, r = sl2
    for name in ("require_modified", "_nijenhuis_verdict"):
        monkeypatch.setattr(deform, name, lambda *args, name=name: pytest.fail(name))
    for call in (nijenhuis_check, trivial_deformation):
        assert input_error(lambda: call(r, (bad, 0, 0))) == message
        assert input_error(lambda: call(r, (0, 0, bad))) == message


def test_nijenhuis_fraction_one_matches_int(sl2, affine2):
    for a, r in (sl2, affine2):
        for x in a.basis() + [a.zero()]:
            assert nijenhuis_check(r, tuple(map(Fraction, x))) == nijenhuis_check(r, x)
    aff, raff = affine2
    x = aff.basis_vector(1)
    assert trivial_deformation(raff, tuple(map(Fraction, x))) == trivial_deformation(raff, x)


def test_nijenhuis_abelian_everything(abelian3, rng=random.Random(44)):
    a, r = abelian3
    for _ in range(6):
        assert nijenhuis_check(r, rand_vector(rng, a.dim)).is_nijenhuis_element


def test_nijenhuis_scan_defaults(sl2, sl3, abelian3, affine2):
    a2, r2 = sl2
    results = nijenhuis_scan(r2)
    assert len(results) == 3 + 3               # basis + pairwise sums
    assert not any(v.is_nijenhuis_element for _, v in results)
    _, r3 = sl3
    assert not any(v.is_nijenhuis_element for _, v in nijenhuis_scan(r3))
    _, rab = abelian3
    assert all(v.is_nijenhuis_element for _, v in nijenhuis_scan(rab))
    aff, raff = affine2
    found = [x for x, v in nijenhuis_scan(raff) if v.is_nijenhuis_element]
    assert found == [(1, 0), (0, 1)]


def _dense_commutator_witness(a, x):
    """Oracle: the first (j, k) with [[x, e_j], [x, e_k]] != 0, by dense brackets."""
    images = [a.bracket(x, e) for e in a.basis()]
    return next(((j, k) for j, k in combinations(range(a.dim), 2)
                 if any(a.bracket(images[j], images[k]))), None)


def _dense_eq2_witness(R, x):
    """Oracle: the first j with [x, [x, Re_j]] != [x, R[x, e_j]], by dense brackets."""
    a = R.algebra
    return next((j for j, e in enumerate(a.basis())
                 if a.bracket(x, a.bracket(x, R.apply(e)))
                 != a.bracket(x, R.apply(a.bracket(x, e)))), None)


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "sl3_conjugate", "affine2", "abelian3"])
def test_nijenhuis_witnesses_match_dense_oracle(name, request):
    # every scan candidate (basis vectors and pair sums) and seeded sparse and
    # dense x with int and Fraction entries, against the dense bracket route
    a, r = request.getfixturevalue(name)
    rng = random.Random(a.dim)
    xs = [x for x, _ in nijenhuis_scan(r)]
    for _ in range(12):
        support = rng.sample(range(a.dim), rng.randint(1, a.dim))
        xs.append(tuple(rng.choice((1, -2, Fraction(1, 2), Fraction(-2, 3)))
                        if k in support else 0 for k in range(a.dim)))
    eq1 = eq2 = 0
    for x in xs:
        v = deform._nijenhuis_verdict(r, x)
        assert (deform._commutator_witness(a.ad(x)) == v.eq1_witness
                == _dense_commutator_witness(a, x))
        assert v.eq2_witness == _dense_eq2_witness(r, x)
        eq1 += v.eq1_ok
        eq2 += v.eq2_ok
    if name in ("sl2", "sl3", "sl4"):
        assert eq1 < len(xs) and eq2 < len(xs)


def test_trivial_deformation_zero(sl2):
    a, r = sl2
    rhat, dv = trivial_deformation(r, a.zero())
    assert rhat.is_zero() and dv.valid


def test_trivial_deformation_abelian(abelian3, rng=random.Random(45)):
    a, r = abelian3
    rhat, dv = trivial_deformation(r, rand_vector(rng, a.dim))
    assert rhat.is_zero() and dv.valid


def test_trivial_deformation_affine(affine2):
    aff, raff = affine2
    x = aff.basis_vector(1)
    rhat, dv = trivial_deformation(raff, x)
    assert not rhat.is_zero()
    assert rhat.apply(aff.basis_vector(0)) == (0, 2)
    assert dv.valid


def test_trivial_deformation_rejects_non_nijenhuis(sl2, affine2):
    a, r = sl2
    with pytest.raises(PreconditionError, match=r"\[\[x, f\], \[x, h\]\] != 0"):
        trivial_deformation(r, a.basis_vector(0))
    # a + n passes eq1 and fails eq2
    _, raff = affine2
    with pytest.raises(PreconditionError,
                       match=r"\[x, \[x, R a\]\] != \[x, R\(\[x, a\]\)\]"):
        trivial_deformation(raff, (1, 1))


def test_trivial_deformation_needs_modified_r_matrix(sl2):
    a, r = sl2
    with pytest.raises(PreconditionError, match="needs a modified r-matrix"):
        trivial_deformation(r.scale(3), a.zero())


def test_trivial_deformation_evaluates_three_defects(affine2, monkeypatch):
    # all three in check_linear_deformation; the Nijenhuis equations, d x
    # and the equivalence certificate take R unchecked.  eq1 is scanned
    # once, and d is applied to x and to Rhat (the t coefficient) only
    aff, raff = affine2
    seen = _count_defects(monkeypatch)
    scans, arities = [], []
    true_witness, true_d_apply = deform._commutator_witness, deform.d_apply
    monkeypatch.setattr(deform, "_commutator_witness",
                        lambda ad_x: scans.append(ad_x) or true_witness(ad_x))
    monkeypatch.setattr(deform, "d_apply", lambda P, f, **kw: arities.append(f.arity)
                        or true_d_apply(P, f, **kw))
    rhat, dv = trivial_deformation(raff, aff.basis_vector(1))
    assert dv.valid and not rhat.is_zero()
    assert seen == [raff, raff + rhat, raff - rhat]
    assert scans == [aff.ad(aff.basis_vector(1))]
    assert arities == [0, 1]


def test_trivial_deformation_certifies_equivalence(affine2, monkeypatch):
    # a validity check forced to pass and a stray a -> a term in Rhat = d n,
    # which ad_n sends to -n: the t^2 condition ad_x Rhat = 0 refuses it
    # through certify, so also under python -O
    aff, raff = affine2
    stray = Cochain.from_endo(Endo(Matrix([[1, 0], [0, 0]]), aff))
    true_d_apply = deform.d_apply
    monkeypatch.setattr(deform, "d_apply", lambda P, f, **kw: true_d_apply(P, f, **kw)
                        + (stray if f.arity == 0 else Cochain.zero(aff, f.arity + 1)))
    monkeypatch.setattr(deform, "check_linear_deformation",
                        lambda R, rhat: deform.DeformationVerdict(True, True, True))
    with pytest.raises(InternalError) as info:
        trivial_deformation(raff, aff.basis_vector(1))
    assert str(info.value) == "trivial deformation failed the equivalence certificate"


def test_nijenhuis_check_and_scan_require_modified_r(sl2):
    a, r = sl2
    for call, what in ((lambda P: nijenhuis_check(P, a.zero()), "nijenhuis_check"),
                       (nijenhuis_scan, "nijenhuis_scan")):
        with pytest.raises(PreconditionError,
                           match=rf"{what} needs a modified r-matrix, "
                                 r"but S\(R\)\(e, f\) = \(0, 0, -8\)"):
            call(r.scale(3))


def test_nijenhuis_check_and_scan_evaluate_one_defect(sl3, monkeypatch):
    a, r = sl3
    seen = _count_defects(monkeypatch)
    assert nijenhuis_check(r, a.zero()).is_nijenhuis_element
    assert seen == [r]
    seen.clear()
    results = nijenhuis_scan(r)
    assert len(results) == 8 + 28
    assert seen == [r]


def test_nijenhuis_operator_identity_and_zero(sl2):
    a, r = sl2
    assert nijenhuis_operator_check(a, Endo.identity(a)).ok
    assert nijenhuis_operator_check(a, Endo.zero(a)).ok


def test_nijenhuis_operator_negative(sl2):
    a, _ = sl2
    swap = Endo(Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), a)
    res = nijenhuis_operator_check(a, swap)
    assert not res.ok and res.failing_pair is not None


def test_ad_x_nijenhuis_on_induced(affine2):
    aff, raff = affine2
    x = aff.basis_vector(1)
    induced = induced_bracket(raff)
    assert nijenhuis_operator_check(induced, aff.ad(x)).ok


def test_chained_deformation_theorems(affine2, abelian3):
    # scan -> trivial deformation -> equivalence -> Nijenhuis operator
    for a, r in (affine2, abelian3):
        induced = induced_bracket(r)
        for x, verdict in nijenhuis_scan(r):
            if not verdict.is_nijenhuis_element:
                continue
            rhat, dv = trivial_deformation(r, x)
            assert dv.valid
            assert check_equivalence(r, rhat, Endo.zero(a), x).ok
            assert nijenhuis_operator_check(induced, a.ad(x)).ok


def test_induced_bracket_deformation_zero(sl2):
    a, r = sl2
    rep = induced_bracket_deformation(r, Endo.zero(a))
    assert rep.omega.is_zero() and rep.jacobi_ok


def test_induced_bracket_deformation_family(sl2, affine2):
    a, r = sl2
    rhat = d_endo(r, a.basis_vector(0))
    rep = induced_bracket_deformation(r, rhat)
    assert rep.jacobi_ok
    # omega agrees with the t-derivative of the induced family
    t = Fraction(3, 7)
    shifted = induced_bracket_table(r + rhat.scale(t))
    base = induced_bracket_table(r)
    for key in set(shifted) | set(base) | set(rep.omega.coeffs):
        zero = (0,) * a.dim
        lhs = shifted.get(key, zero)
        rhs = tuple(b + t * o for b, o in zip(base.get(key, zero),
                                              rep.omega.get(key)))
        assert lhs == rhs
    aff, raff = affine2
    rhat2, _ = trivial_deformation(raff, aff.basis_vector(1))
    assert induced_bracket_deformation(raff, rhat2).jacobi_ok


def test_induced_bracket_deformation_precondition(sl2):
    a, r = sl2
    with pytest.raises(PreconditionError):
        induced_bracket_deformation(r, Endo.identity(a))


def _jacobi_family_oracle(a, r, rhat):
    """First triple i < j < k, lex order, on which the Jacobiator of the
    induced bracket of R + t Rhat, expanded in t by sympy, is nonzero."""
    t = sympy.Symbol("t")
    n = a.dim
    p = [[sympy.Poly(r.matrix.entry(i, j) + t * rhat.matrix.entry(i, j), t, domain="QQ")
          for j in range(n)] for i in range(n)]
    zero = sympy.Poly(0, t, domain="QQ")

    def bracket_basis_images(u, y):
        # [P e_u, e_y] with P e_u = sum_s p[s][u] e_s
        out = [zero] * n
        for s in range(n):
            for m, v in enumerate(a.bracket_basis(s, y)):
                if v:
                    out[m] = out[m] + p[s][u] * v
        return out

    # [e_u, e_y]_P = [P e_u, e_y] - [P e_y, e_u] on every ordered pair
    table = {(u, y): [c - d for c, d in zip(bracket_basis_images(u, y),
                                            bracket_basis_images(y, u))]
             for u in range(n) for y in range(n)}
    for i, j, k in combinations(range(n), 3):
        jac = [zero] * n
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for s, c in enumerate(table[(x, y)]):
                if not c.is_zero:
                    jac = [u + c * v for u, v in zip(jac, table[(s, z)])]
        if any(not c.is_zero for c in jac):
            return (i, j, k)
    return None


def _sparse_endo(a, entries):
    m = [[0] * a.dim for _ in range(a.dim)]
    for i, j, v in entries:
        m[i][j] = v
    return Endo(Matrix(m), a)


# (row, column, value) entries of Rhat for the Borel R whose Jacobiator
# vanishes at t = 1 but not at t = -1, or the reverse, or whose first
# failing triples at t = 1 and t = -1 differ
TWO_POINT_CASES = {3: [[(1, 1, 2)]],
                   8: [[(3, 3, 2)], [(5, 5, -2)], [(2, 2, -2), (3, 1, -1), (6, 3, -1)]]}


def test_induced_bracket_family_failing_path_against_sympy(sl2, sl3, monkeypatch,
                                                          rng=random.Random(48)):
    # a valid deformation always passes, so accept every Rhat to reach the
    # failing path; sparse Rhat give failing triples other than the first
    monkeypatch.setattr(deform, "check_linear_deformation",
                        lambda R, Rhat: deform.DeformationVerdict(True, True, True))
    verdicts = set()
    for (a, r), cases in ((sl2, 8), (sl3, 4)):
        n = a.dim
        rhats = [d_endo(r, a.basis_vector(0))]
        rhats += [_sparse_endo(a, entries) for entries in TWO_POINT_CASES[n]]
        rhats += [_sparse_endo(a, [(rng.randrange(n), rng.randrange(n),
                                    rng.choice((-2, -1, 1, 2)))
                                   for _ in range(rng.randint(1, 2))])
                  for _ in range(cases)]
        for rhat in rhats:
            rep = induced_bracket_deformation(r, rhat)
            expected = _jacobi_family_oracle(a, r, rhat)
            assert (rep.jacobi_ok, rep.failing_triple) == (expected is None, expected)
            verdicts.add(expected if expected in (None, (0, 1, 2)) else "later")
    assert verdicts == {None, (0, 1, 2), "later"}


def test_compatible_brackets_trivial_cases(sl2):
    a, r = sl2
    rhat = d_endo(r, a.basis_vector(0))
    assert compatible_bracket_check(r, rhat, 0, 0).ok
    assert compatible_bracket_check(r, rhat, Fraction(5, 3), Fraction(-5, 3)).ok


def test_compatible_brackets_random_parameters(sl2, affine2, rng=random.Random(46)):
    cases = []
    a, r = sl2
    cases.append((r, d_endo(r, a.basis_vector(0))))
    aff, raff = affine2
    cases.append((raff, trivial_deformation(raff, aff.basis_vector(1))[0]))
    for r_, rhat_ in cases:
        for _ in range(6):
            t1 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            t2 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            rep = compatible_bracket_check(r_, rhat_, t1, t2)
            assert rep.ok and rep.jacobi_ok and rep.midpoint_ok


def test_compatible_brackets_precondition(sl2):
    a, r = sl2
    with pytest.raises(PreconditionError):
        compatible_bracket_check(r, Endo.identity(a), 1, 2)


@pytest.mark.parametrize("what, call", [
    ("induced_bracket_deformation", induced_bracket_deformation),
    ("compatible_bracket_check", lambda r, rhat: compatible_bracket_check(r, rhat, 1, 2)),
    ("deformed_complements", lambda r, rhat: deformed_complements(r, rhat, [0, 1])),
])
def test_deformation_precondition_names_caller_and_pair(sl2, what, call):
    a, r = sl2
    rhat = Endo.identity(a)
    pair = check_linear_deformation(r, rhat).failing_pair
    assert pair is not None
    with pytest.raises(PreconditionError) as info:
        call(r, rhat)
    assert str(info.value) == f"{what} needs a valid deformation; failing pair {pair}"


@pytest.mark.parametrize("call, message", [
    (lambda a, r: check_equivalence(r, r, r, (1, 0)), "element length 2 != dim 3"),
    (lambda a, r: nijenhuis_check(r, (1, 0, 0, 0)), "element length 4 != dim 3"),
    (lambda a, r: nijenhuis_operator_check(a, Endo.identity(catalog("abelian", 2)[0])),
     "operator does not fit the algebra"),
], ids=["equivalence-element", "nijenhuis-element", "nijenhuis-operator-size"])
def test_input_errors(sl2, call, message):
    assert input_error(lambda: call(*sl2)) == message


def test_weight0_defect_matches_rb_check(sl2, rng=random.Random(47)):
    from mcybe import is_rota_baxter
    a, _ = sl2
    for _ in range(10):
        b = rand_endo(rng, a)
        assert weight0_defect_cochain(b).is_zero() == is_rota_baxter(b, 0).ok
