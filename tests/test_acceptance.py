"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is exact equality over the rationals; nothing is
approximate anywhere in this module.

Catalog instance sets are pinned here once:

  COHOMOLOGY_SET  abelian(3), sl(2), sl(3) and sl(4) at arities 0..3; the
                  arity-3 coboundary matrix of sl(4) is 20475 x 6825.
  OPERATOR_SET    sl(2), sl(3), sl(4), abelian(3) for operator-level checks.
"""

import random
import time
from fractions import Fraction

import pytest

from mcybe import (Cochain, Endo, Matrix, catalog, check_equivalence,
                   check_linear_deformation, cohomology, coboundary_matrix,
                   compatible_bracket_check, complement_certificate, d_apply,
                   graded_bracket, graph_complement, induced_bracket,
                   involutive_analyze, is_maurer_cartan_weight0, is_rota_baxter,
                   kuranishi, mcybe_defect, nijenhuis_operator_check,
                   nijenhuis_scan, pi_cochain, rb_from_r, rho,
                   satisfies_mc_modified, trivial_deformation)
from mcybe.liealg import LieAlgebra, vadd

from conftest import (conjugate, nilpotent_exp, rand_cochain, rand_endo,
                      rand_involution, rand_vector)

_INSTANCES = {}
_MATRICES = {}


def instance(name):
    if name not in _INSTANCES:
        if name.startswith("sl"):
            _INSTANCES[name] = catalog("sl-borel", int(name[2:]))
        elif name.startswith("abelian"):
            _INSTANCES[name] = catalog("abelian", int(name[7:]))
        elif name == "affine":
            algebra = LieAlgebra(2, {(0, 1): (0, 1)}, basis_names=["a", "n"])
            _INSTANCES[name] = (algebra, Endo.from_diagonal(algebra, [1, -1]))
        else:
            raise KeyError(name)
    return _INSTANCES[name]


def cob(name, flavor, arity):
    key = (name, flavor, arity)
    if key not in _MATRICES:
        algebra, r = instance(name)
        op = r if flavor == "R" else rb_from_r(r)
        _MATRICES[key] = coboundary_matrix(op, arity, flavor=flavor).matrix
    return _MATRICES[key]


# arities at which each instance's coboundary matrices are assembled
COHOMOLOGY_SET = {"abelian3": 3, "sl2": 3, "sl3": 3, "sl4": 3}
OPERATOR_SET = ("sl2", "sl3", "sl4", "abelian3")


def report(num, name):
    print(f"\n[criterion {num:02d}] {name}: PASS")


def test_criterion_01_sl2_cohomology():
    _, r = instance("sl2")
    rep = cohomology(r, 2)
    assert rep.dim_h(1) == 1
    assert rep.dim_h(2) == 2
    report(1, "sl(2) Borel r-matrix has dim H^1 = 1 and dim H^2 = 2")


def test_criterion_02_sln_first_cohomology():
    for n in (2, 3, 4):
        t0 = time.time()
        algebra, r = catalog("sl-borel", n)
        rep = cohomology(r, 1)
        elapsed = time.time() - t0
        assert rep.dim_h(1) == n - 1
        if n == 4:
            assert algebra.dim == 15
            assert elapsed < 10.0
    report(2, "dim H^1 = n - 1 for sl(n), n in {2, 3, 4}; n = 4 under 10 s")


def test_criterion_03_complex_property():
    for name, top in COHOMOLOGY_SET.items():
        for flavor in ("R", "B"):
            for k in range(0, top):
                prod = cob(name, flavor, k + 1) @ cob(name, flavor, k)
                assert prod.is_zero(), (name, flavor, k)
    report(3, "d∘d = 0 exactly, both flavors, all catalog instances")


def test_criterion_04_scaling_isomorphism():
    for name, top in COHOMOLOGY_SET.items():
        for k in range(0, top + 1):
            assert cob(name, "R", k) == cob(name, "B", k).scale(2), (name, k)
    report(4, "d_R = 2 d_B exactly at every computed degree, every instance")


def test_criterion_05_bridge_identity():
    rng = random.Random(501)
    for name in ("sl2", "sl3"):
        algebra, r = instance(name)
        for arity in (1, 2, 3):
            sign = -1 if arity % 2 else 1       # (-1)^(n-1) with n = arity + 1
            for _ in range(50):
                f = rand_cochain(rng, algebra, arity, support=3)
                assert d_apply(r, f, check=False) == graded_bracket(r, f).scale(sign)
    report(5, "coboundary = (-1)^(n-1) [[R, .]] on 50 random cochains per degree")


def test_criterion_06_maurer_cartan_characterizations():
    rng = random.Random(601)
    a2, r2 = instance("sl2")
    _, r3 = instance("sl3")
    aff, raff = instance("affine")

    positives = [r2, r3, Endo.identity(a2), Endo.from_diagonal(a2, [1, -1, 2]), raff]
    negatives = [Endo.from_diagonal(a2, [1, 1, -1]), Endo.identity(a2).scale(2),
                 Endo(Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), a2)]
    for r in positives:
        assert mcybe_defect(r).is_zero
        assert satisfies_mc_modified(r)
    for r in negatives:
        assert not mcybe_defect(r).is_zero
        assert not satisfies_mc_modified(r)

    b_positives = [Endo.zero(a2), Endo(Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), a2),
                   rand_endo(rng, instance("abelian3")[0])]
    b_negatives = [Endo.identity(a2), Endo.from_diagonal(a2, [0, -1, 0]),
                   Endo(Matrix([[0, 1, 1], [0, 0, 0], [0, 0, 0]]), a2)]
    for b in b_positives:
        assert is_rota_baxter(b, 0).ok
        assert is_maurer_cartan_weight0(b)
    for b in b_negatives:
        assert not is_rota_baxter(b, 0).ok
        assert not is_maurer_cartan_weight0(b)
    report(6, "[[R,R]] = 2 pi iff MCYBE and [[B,B]] = 0 iff weight-0, 3+/3- each")


def test_criterion_07_graded_lie_axioms():
    rng = random.Random(701)
    gl2_like = LieAlgebra(4, {(0, 1): (0, 0, 1, 0), (0, 2): (-2, 0, 0, 0),
                              (1, 2): (0, 2, 0, 0)},
                          basis_names=["e", "f", "h", "z"])
    algebras = [instance("sl2")[0], gl2_like, instance("affine")[0]]

    pairs = triples = 0
    for a in algebras:
        for _ in range(35):
            p, q, s = (rng.randint(1, 3) for _ in range(3))
            f = rand_cochain(rng, a, p)
            g = rand_cochain(rng, a, q)
            h = rand_cochain(rng, a, s)
            assert graded_bracket(f, g) == graded_bracket(g, f).scale(-((-1) ** (p * q)))
            pairs += 1
            total = (graded_bracket(f, graded_bracket(g, h)).scale((-1) ** (p * s))
                     + graded_bracket(g, graded_bracket(h, f)).scale((-1) ** (p * q))
                     + graded_bracket(h, graded_bracket(f, g)).scale((-1) ** (q * s)))
            assert total.is_zero()
            triples += 1
    assert pairs >= 100 and triples >= 100

    center = 0
    for a in algebras:
        two_pi = pi_cochain(a).scale(2)
        for _ in range(17):
            f = rand_cochain(rng, a, rng.randint(1, 3))
            assert graded_bracket(two_pi, f).is_zero()
            center += 1
    assert center >= 50
    report(7, f"graded antisymmetry + Jacobi on {triples} triples; "
              f"[[2 pi, f]] = 0 on {center} cochains")


def test_criterion_08_representation_property():
    rng = random.Random(801)
    for name in OPERATOR_SET:
        algebra, r = instance(name)
        assert mcybe_defect(r).is_zero
        for _ in range(100):
            x = rand_vector(rng, algebra.dim, span=2)
            y = rand_vector(rng, algebra.dim, span=2)
            xy_r = vadd(algebra.bracket(r.apply(x), y),
                        algebra.bracket(x, r.apply(y)))
            mx, my = rho(r, x).matrix, rho(r, y).matrix
            assert rho(r, xy_r).matrix == mx @ my - my @ mx
    report(8, "rho([x,y]_R) = [rho(x), rho(y)] on 100 random pairs per instance")


def test_criterion_09_deformation_chain():
    found_total = 0
    for name in OPERATOR_SET + ("abelian4", "affine"):
        algebra, r = instance(name)
        induced = induced_bracket(r)
        for x, verdict in nijenhuis_scan(r):
            if not verdict.is_nijenhuis_element:
                continue
            found_total += 1
            rhat, dv = trivial_deformation(r, x)
            assert dv.valid
            assert check_equivalence(r, rhat, Endo.zero(algebra), x).ok
            assert nijenhuis_operator_check(induced, algebra.ad(x)).ok
    assert found_total > 0
    report(9, f"deformation chain (validity, equivalence, Nijenhuis operator) "
              f"on {found_total} scanned Nijenhuis elements")


def test_criterion_10_graph_criterion():
    rng = random.Random(1001)
    checked = {}
    for name in ("sl2", "sl3"):
        algebra, r = instance(name)
        e0 = algebra.basis_vector(0)
        positives = [r, Endo.identity(algebra), Endo.identity(algebra).scale(-1),
                     conjugate(nilpotent_exp(algebra, e0), r)]
        if name == "sl2":
            positives.append(Endo.from_diagonal(algebra, [1, -1, 7]))
        else:
            e1 = algebra.basis_vector(1)
            positives.append(conjugate(nilpotent_exp(algebra, e1), r))
        negatives = [Endo.identity(algebra).scale(2),
                     Endo.identity(algebra).scale(-3)]
        while len(negatives) < 5:
            candidate = rand_endo(rng, algebra)
            if not mcybe_defect(candidate).is_zero:
                negatives.append(candidate)
        for r_ in positives:
            assert mcybe_defect(r_).is_zero
            assert graph_complement(r_).is_subalgebra
            assert complement_certificate(r_).ok
        for r_ in negatives:
            assert not graph_complement(r_).is_subalgebra
        checked[name] = (len(positives), len(negatives))
        assert len(positives) >= 5 and len(negatives) >= 5

    # every operator on an abelian algebra solves the equation, so negatives
    # cannot exist there; positives still exercise the certificate
    algebra, r = instance("abelian3")
    for _ in range(5):
        r_ = rand_endo(rng, algebra)
        assert graph_complement(r_).is_subalgebra
        assert complement_certificate(r_).ok
    report(10, f"graph subalgebra iff MCYBE, 5+/5- on sl(2) and sl(3) "
               f"{checked}, positives on abelian(3)")


def test_criterion_11_involutive_equivalences():
    rng = random.Random(1101)
    for name in ("sl2", "sl3", "abelian3"):
        algebra, r = instance(name)
        involutions = []
        if r.involution_defect() is None:
            involutions.append(r)
        for i in range(algebra.dim):
            x = algebra.basis_vector(i)
            if algebra.ad(x).matrix.is_zero():
                continue
            try:
                involutions.append(conjugate(nilpotent_exp(algebra, x), r))
            except ValueError:
                pass
        while len(involutions) < 20:
            involutions.append(rand_involution(rng, algebra))
        true_count = false_count = 0
        for inv in involutions[:25]:
            assert inv.involution_defect() is None
            rep = involutive_analyze(inv)
            assert rep.all_agree()
            if rep.verdict:
                true_count += 1
            else:
                false_count += 1
        assert true_count + false_count >= 20
        if name != "abelian3":
            assert true_count >= 1 and false_count >= 1
    report(11, "four involutive certificates coincide on 20+ involutions per algebra")


def test_criterion_12_kuranishi_consistency():
    _, r = instance("sl2")

    def run_once():
        kernel = coboundary_matrix(r, 1).matrix.kernel_basis()
        out = []
        for vec in kernel:
            f = Cochain.from_coeff_vector(r.algebra, 1, vec)
            rep = kuranishi(r, f)
            assert rep.is_cocycle
            out.append((tuple(vec), rep.vanishes_in_H3,
                        rep.witness.to_coeff_vector() if rep.witness else None))
        return out

    first = run_once()
    second = run_once()
    assert first == second                      # stable across runs
    assert [v for _, v, _ in first] == [True, True, True, True]

    # directions arising from trivial deformations have vanishing obstruction
    aff, raff = instance("affine")
    for x, verdict in nijenhuis_scan(raff):
        if verdict.is_nijenhuis_element:
            rhat, _ = trivial_deformation(raff, x)
            rep = kuranishi(raff, Cochain.from_endo(rhat))
            assert rep.is_cocycle and rep.vanishes_in_H3
    report(12, "Kuranishi verdicts on the sl(2) Z^2 basis are stable; "
               "trivial-deformation directions vanish in H^3")


def test_criterion_13_compatible_brackets():
    rng = random.Random(1301)
    a2, r2 = instance("sl2")
    aff, raff = instance("affine")
    d_e = d_apply(r2, Cochain.from_vector(a2, a2.basis_vector(0)),
                  check=False).to_endo()
    rhat_aff, _ = trivial_deformation(raff, aff.basis_vector(1))
    deformations = [(r2, d_e), (raff, rhat_aff)]
    for r_, rhat_ in deformations:
        assert check_linear_deformation(r_, rhat_).valid
        for _ in range(10):
            t1 = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
            t2 = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
            rep = compatible_bracket_check(r_, rhat_, t1, t2)
            assert rep.jacobi_ok and rep.midpoint_ok and rep.ok
    report(13, "bracket sums satisfy Jacobi and equal twice the midpoint "
               "bracket on 10 random (t1, t2) per deformation")
