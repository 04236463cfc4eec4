"""Graded bracket axioms, Maurer-Cartan characterizations, Kuranishi map."""

import random
from itertools import combinations
from math import comb

import pytest

from mcybe import rmatrix
from mcybe import (Cochain, Endo, InputError, Matrix, PreconditionError, cochain,
                   coboundary_matrix, cohomology, d_apply, graded_bracket,
                   is_maurer_cartan_weight0, is_rota_baxter, kuranishi,
                   mc_deformation_check, mcybe_defect, pi_cochain,
                   satisfies_mc_modified)
from mcybe.graded import as_graded, d_graded, shuffles_three, shuffles_two
from mcybe.liealg import vadd, vsub

from conftest import rand_cochain, rand_endo


def explicit_bracket_endos(a, f, g):
    """Independent oracle for arity 1 x arity 1: the expanded six-term formula
    [[f,g]](x,y) = f([gx,y]) - f([gy,x]) + g([fx,y]) - g([fy,x]) - [fx,gy] + [fy,gx]."""
    coeffs = {}
    for i in range(a.dim):
        x = a.basis_vector(i)
        for j in range(i + 1, a.dim):
            y = a.basis_vector(j)
            val = f.apply(a.bracket(g.apply(x), y))
            val = vsub(val, f.apply(a.bracket(g.apply(y), x)))
            val = vadd(val, g.apply(a.bracket(f.apply(x), y)))
            val = vsub(val, g.apply(a.bracket(f.apply(y), x)))
            val = vsub(val, a.bracket(f.apply(x), g.apply(y)))
            val = vadd(val, a.bracket(f.apply(y), g.apply(x)))
            if any(val):
                coeffs[(i, j)] = val
    return Cochain(a, 2, coeffs)


def inversion_sign(seq):
    """Oracle: the sign of seq as a permutation, by counting its inversions."""
    inversions = sum(1 for i, j in combinations(range(len(seq)), 2) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def test_shuffle_signs_match_inversion_count():
    for total in range(7):
        for p in range(total + 1):
            shuffles = list(shuffles_two(total, p))
            assert len(shuffles) == comb(total, p)
            for first, second, sign in shuffles:
                assert sorted(first + second) == list(range(total))
                assert list(second) == sorted(second)
                assert sign == inversion_sign(first + second)
        for a in range(total):
            shuffles = list(shuffles_three(total, a, total - a - 1))
            assert len(shuffles) == comb(total, a) * (total - a)
            for first, mid, last, sign in shuffles:
                assert sorted(first + (mid,) + last) == list(range(total))
                assert list(first) == sorted(first) and list(last) == sorted(last)
                assert sign == inversion_sign(first + (mid,) + last)


def test_arity_one_bracket_against_expansion(sl2, sl3, rng=random.Random(31)):
    for a, _ in (sl2, sl3):
        for _ in range(8):
            f, g = rand_endo(rng, a), rand_endo(rng, a)
            assert graded_bracket(f, g) == explicit_bracket_endos(a, f, g)


def test_identity_bracket_is_two_pi(sl2, sl3, abelian3, affine2):
    for a, _ in (sl2, sl3, abelian3, affine2):
        i = Endo.identity(a)
        assert graded_bracket(i, i) == pi_cochain(a).scale(2)


def test_rr_bracket_formula(sl2, rng=random.Random(32)):
    # [[R,R]](x,y) = 2(R([Rx,y]) - R([Ry,x]) - [Rx,Ry]) for any endomorphism
    a, _ = sl2
    for _ in range(8):
        r = rand_endo(rng, a)
        rr = graded_bracket(r, r)
        for i in range(a.dim):
            x = a.basis_vector(i)
            for j in range(i + 1, a.dim):
                y = a.basis_vector(j)
                expected = vsub(vsub(r.apply(a.bracket(r.apply(x), y)),
                                     r.apply(a.bracket(r.apply(y), x))),
                                a.bracket(r.apply(x), r.apply(y)))
                assert rr.get((i, j)) == tuple(2 * c for c in expected)


def test_graded_antisymmetry(sl2, gl2_like, affine2, rng=random.Random(33)):
    algebras = [sl2[0], gl2_like, affine2[0]]
    for a in algebras:
        for _ in range(12):
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            f = rand_cochain(rng, a, p)
            g = rand_cochain(rng, a, q)
            sign = -((-1) ** (p * q))
            assert graded_bracket(f, g) == graded_bracket(g, f).scale(sign)


def test_graded_jacobi(sl2, gl2_like, affine2, rng=random.Random(34)):
    algebras = [sl2[0], gl2_like, affine2[0]]
    for a in algebras:
        for _ in range(12):
            p, q, r = (rng.randint(1, 3) for _ in range(3))
            f = rand_cochain(rng, a, p)
            g = rand_cochain(rng, a, q)
            h = rand_cochain(rng, a, r)
            total = (graded_bracket(f, graded_bracket(g, h)).scale((-1) ** (p * r))
                     + graded_bracket(g, graded_bracket(h, f)).scale((-1) ** (p * q))
                     + graded_bracket(h, graded_bracket(f, g)).scale((-1) ** (q * r)))
            assert total.is_zero()


def test_center_property(sl2, sl3, rng=random.Random(35)):
    for a, r in (sl2, sl3):
        two_pi = pi_cochain(a).scale(2)
        rr = graded_bracket(r, r)
        assert rr == two_pi
        for k in (1, 2, 3):
            for _ in range(4):
                f = rand_cochain(rng, a, k)
                assert graded_bracket(two_pi, f).is_zero()
                assert graded_bracket(rr, f).is_zero()


def test_bridge_identity(sl2, sl3, rng=random.Random(36)):
    # coboundary = (-1)^(n-1) [[R, f]] for f of arity n-1
    for a, r in (sl2, sl3):
        for arity in (1, 2, 3):
            sign = -1 if (arity % 2) else 1     # (-1)^(n-1), n = arity + 1
            for _ in range(6):
                f = rand_cochain(rng, a, arity)
                assert d_apply(r, f, check=False) == graded_bracket(r, f).scale(sign)


def test_d_r_of_r_is_two_pi(sl2):
    a, r = sl2
    assert d_graded(r, r) == pi_cochain(a).scale(2)


def test_d_r_squares_to_zero(sl2, rng=random.Random(37)):
    a, r = sl2
    for k in (1, 2):
        for _ in range(6):
            f = rand_cochain(rng, a, k)
            assert d_graded(r, d_graded(r, f)).is_zero()


def test_maurer_cartan_weight0(sl2, rng=random.Random(38)):
    a, _ = sl2
    assert is_maurer_cartan_weight0(Endo.zero(a))
    # B(f) = e, all else 0: a weight-0 Rota-Baxter operator on sl(2)
    b = Endo(Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), a)
    assert is_rota_baxter(b, 0).ok
    assert is_maurer_cartan_weight0(b)
    borel = Endo.from_diagonal(a, [1, -1, 1])
    assert not is_maurer_cartan_weight0(borel)
    assert satisfies_mc_modified(borel)


def test_mc_equivalences_positive_and_negative(sl2, sl3, affine2, rng=random.Random(39)):
    a2, r2 = sl2
    a3, r3 = sl3
    aff, raff = affine2
    cases = [(a2, r2), (a3, r3), (aff, raff),
             (a2, Endo.identity(a2)), (a2, Endo.from_diagonal(a2, [1, -1, 2])),
             (a2, Endo.from_diagonal(a2, [1, 1, -1])),
             (a2, Endo.identity(a2).scale(2)),
             (a2, Endo(Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), a2))]
    cases += [(a2, rand_endo(rng, a2)) for _ in range(6)]
    for a, r in cases:
        assert satisfies_mc_modified(r) == mcybe_defect(r).is_zero
    for _ in range(10):
        b = rand_endo(rng, a2)
        assert is_maurer_cartan_weight0(b) == is_rota_baxter(b, 0).ok


def test_mc_deformation_check(sl2):
    a, r = sl2
    assert mc_deformation_check(r, Endo.zero(a))
    ident = Endo.identity(a)
    assert mc_deformation_check(ident, r - ident)
    assert not mc_deformation_check(r, r)      # defect of 2R is -3 pi


def test_kuranishi_on_z2_basis(sl2):
    a, r = sl2
    kernel = coboundary_matrix(r, 1).matrix.kernel_basis()
    assert len(kernel) == 4
    ff_zero = []
    vanishes = []
    for vec in kernel:
        f = Cochain.from_coeff_vector(a, 1, vec)
        rep = kuranishi(r, f)
        assert rep.is_cocycle
        ff_zero.append(rep.ff.is_zero())
        vanishes.append(rep.vanishes_in_H3)
        if rep.witness is not None:
            assert d_apply(r, rep.witness, check=False) == rep.ff
    # frozen regression fixture, deterministic across runs
    assert ff_zero == [True, True, False, True]
    assert vanishes == [True, True, True, True]


def test_kuranishi_assembles_one_coboundary_matrix(sl3, monkeypatch):
    # the two cocycle tests go through d_apply; only the preimage of
    # [[f, f]] needs the arity-1 matrix
    a, r = sl3
    f = cohomology(r, 2).degrees[2].cocycle_witnesses[0]
    arities = []
    assemble = cochain.coboundary_matrix

    def counted(P, k, *args, **kwargs):
        arities.append(k)
        return assemble(P, k, *args, **kwargs)
    monkeypatch.setattr(cochain, "coboundary_matrix", counted)
    assert kuranishi(r, f).is_cocycle
    assert arities == [1]


def test_kuranishi_evaluates_three_defects(sl3, monkeypatch):
    # S(R) once in each is_cocycle and once in coboundary_preimage;
    # kuranishi checks nothing of its own
    a, r = sl3
    f = cohomology(r, 2).degrees[2].cocycle_witnesses[0]
    seen = []
    real = rmatrix.mcybe_defect

    def counting(R):
        seen.append(R)
        return real(R)
    monkeypatch.setattr(rmatrix, "mcybe_defect", counting)
    assert kuranishi(r, f).is_cocycle
    assert seen == [r, r, r]


def test_kuranishi_needs_modified_r_matrix(sl2):
    a, r = sl2
    with pytest.raises(PreconditionError, match=r"needs a modified r-matrix, "
                                                r"but S\(R\)\(e, f\) = \(0, 0, -8\)"):
        kuranishi(r.scale(3), Cochain.zero(a, 1))
    # a malformed f is an input error before R is checked
    with pytest.raises(InputError):
        kuranishi(r.scale(3), Cochain.zero(a, 2))


def test_kuranishi_zero_cochain(sl2):
    a, r = sl2
    rep = kuranishi(r, Cochain.zero(a, 1))
    assert rep.ff.is_zero() and rep.vanishes_in_H3


def test_kuranishi_trivial_deformation_direction(affine2):
    from mcybe.deform import trivial_deformation
    aff, raff = affine2
    rhat, _ = trivial_deformation(raff, aff.basis_vector(1))
    rep = kuranishi(raff, Cochain.from_endo(rhat))
    assert rep.is_cocycle and rep.vanishes_in_H3


def test_kuranishi_rejects_non_cocycles(sl2):
    a, r = sl2
    with pytest.raises(PreconditionError):
        kuranishi(r, r)        # d(R) = -2 pi != 0


def test_graded_elements_need_arity_one(sl2):
    a, _ = sl2
    with pytest.raises(InputError):
        as_graded(Cochain.from_vector(a, a.basis_vector(0)))
    with pytest.raises(InputError):
        graded_bracket(Cochain.from_vector(a, a.basis_vector(0)),
                       Cochain.zero(a, 1))
