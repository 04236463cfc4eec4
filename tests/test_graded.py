"""Graded bracket axioms, Maurer-Cartan characterizations, Kuranishi map."""

import random
from itertools import combinations
from math import comb

import pytest

import mcybe.graded
from mcybe import liealg, rmatrix
from mcybe import (Cochain, DefectReport, Endo, InputError, InternalError, LieAlgebra, Matrix,
                   PreconditionError, cochain, coboundary_matrix, cohomology, d_apply,
                   graded_bracket, is_maurer_cartan_weight0, is_rota_baxter, kuranishi,
                   mc_deformation_check, mcybe_defect, pi_cochain, satisfies_mc_modified)
from mcybe.cli import run
from mcybe.cochain import basis_tuples, insert_sorted
from mcybe.graded import as_graded, d_graded, shuffles_three, shuffles_two
from mcybe.liealg import vadd, vneg, vsub

from conftest import full_solve, input_error, rand_cochain, rand_endo, rand_rational


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


def dense_graded_bracket(f, g):
    """Oracle: the shuffle-sum bracket term by term on dense vectors, each
    insertion f(v, e..) expanded over the basis through insert_sorted."""
    a = f.algebra
    p, q = f.arity, g.arity
    total = p + q
    sign_pq = -1 if (p * q) % 2 else 1

    def insert(outer, vec, rest):
        acc = (0,) * a.dim
        for s, c in enumerate(vec):
            ins = c and insert_sorted(rest, s)
            if ins and ins[1] in outer.coeffs:
                acc = vadd(acc, tuple(ins[0] * c * x for x in outer.coeffs[ins[1]]))
        return acc

    coeffs = {}
    for T in basis_tuples(a.dim, total):
        acc = (0,) * a.dim
        for outer, inner, sign in ((f, g, 1), (g, f, -sign_pq)):
            for first, mid, last, sgn in shuffles_three(total, inner.arity, outer.arity - 1):
                w = a.bracket(inner.get(tuple(T[i] for i in first)), a.basis_vector(T[mid]))
                term = insert(outer, w, tuple(T[i] for i in last))
                acc = vadd(acc, term if sign * sgn > 0 else vneg(term))
        for first, second, sgn in shuffles_two(total, p):
            term = a.bracket(f.get(tuple(T[i] for i in first)), g.get(tuple(T[i] for i in second)))
            acc = vadd(acc, term if sign_pq * sgn > 0 else vneg(term))
        if any(acc):
            coeffs[T] = acc
    return Cochain(a, total, coeffs)


def _fraction_cochain(rng, a, arity):
    tuples = basis_tuples(a.dim, arity)
    return Cochain(a, arity, {tup: tuple(rand_rational(rng) for _ in range(a.dim))
                              for tup in rng.sample(tuples, min(3, len(tuples)))})


@pytest.mark.parametrize("name", ["sl2", "sl3", "gl2_like", "affine2"])
def test_graded_bracket_matches_dense_oracle(name, request):
    # values and their types: an entry of denominator 1 is an int
    a = request.getfixturevalue(name)
    a = a if isinstance(a, LieAlgebra) else a[0]
    rng = random.Random(a.dim + 40)
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            if p + q > a.dim:
                continue
            f, g = _fraction_cochain(rng, a, p), _fraction_cochain(rng, a, q)
            _assert_matches_dense(f, g)
    # [[f, f]] at odd p, for f itself and for an equal copy, and the
    # polarization [[f + g, f + g]] = [[f, f]] + 2 [[f, g]] + [[g, g]]
    for p in (1, 3):
        if 2 * p > a.dim:
            continue
        f, g = _fraction_cochain(rng, a, p), _fraction_cochain(rng, a, p)
        for h in (f, Cochain(a, p, f.coeffs)):
            _assert_matches_dense(f, h)
        assert graded_bracket(f + g, f + g) == (graded_bracket(f, f) + graded_bracket(g, g)
                                                + graded_bracket(f, g).scale(2))


def _assert_matches_dense(f, g):
    got, want = graded_bracket(f, g), dense_graded_bracket(f, g)
    assert got == want
    assert got.to_json_dict() == want.to_json_dict()
    assert {T: [type(x) for x in v] for T, v in got.coeffs.items()} == \
        {T: [type(x) for x in v] for T, v in want.coeffs.items()}


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


def test_mc_deformation_check_routes_must_agree(sl2, monkeypatch):
    # the defect of R + R' says the opposite of the Maurer-Cartan route
    a, r = sl2
    true_defect = rmatrix.mcybe_defect
    monkeypatch.setattr(mcybe.graded, "mcybe_defect",
                        lambda R: DefectReport(not true_defect(R).is_zero, None, None))
    for rp in (Endo.zero(a), r):
        with pytest.raises(InternalError) as info:
            mc_deformation_check(r, rp)
        assert str(info.value) == "Maurer-Cartan and defect routes disagree"


def test_equal_operands_take_the_symmetric_branch(sl3, tmp_path, monkeypatch):
    # [[f, f]] at odd arity reads one list of insertion shuffles, where
    # unequal operands or an even arity read two
    a, r = sl3
    calls = []
    true_shuffles = mcybe.graded.shuffles_three
    monkeypatch.setattr(mcybe.graded, "shuffles_three",
                        lambda *args: calls.append(args) or true_shuffles(*args))

    def lists(call):
        calls.clear()
        call()
        return len(calls)
    rhat = d_apply(r, Cochain.from_vector(a, a.basis_vector(0)), check=False).to_endo()
    f = Cochain.from_coeff_vector(a, 1, coboundary_matrix(r, 1).matrix.kernel_basis()[0])
    pi = pi_cochain(a)
    assert lists(lambda: graded_bracket(r, r)) == 1
    assert lists(lambda: graded_bracket(f, Cochain(a, 1, f.coeffs))) == 1
    assert lists(lambda: graded_bracket(r, rhat)) == 2
    assert lists(lambda: graded_bracket(pi, pi)) == 2
    assert lists(lambda: mc_deformation_check(r, rhat)) == 3
    assert lists(lambda: kuranishi(r, f)) == 1
    files = [str(tmp_path / name) for name in ("sl3.json", "borel.json")]
    assert run(["catalog", "sl", "--n", "3", "--algebra-out", files[0],
                "--map-out", files[1]]) == 0
    assert lists(lambda: run(["graded-bracket", "--algebra", files[0], "--left", files[1],
                              "--right", files[1]])) == 1


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
    # the two cocycle tests go through d_apply; only the preimage of a
    # nonzero [[f, f]] needs the arity-1 matrix, and a zero one none
    a, r = sl3
    witnesses = cohomology(r, 2).degrees[2].cocycle_witnesses
    arities = []
    assemble = cochain.coboundary_matrix

    def counted(P, k, *args, **kwargs):
        arities.append(k)
        return assemble(P, k, *args, **kwargs)
    monkeypatch.setattr(cochain, "coboundary_matrix", counted)
    for f, expected in ((witnesses[0], []), (witnesses[10], [1])):
        rep = kuranishi(r, f)
        assert rep.is_cocycle and rep.ff.is_zero() == (not expected)
        assert arities == expected
        arities.clear()


def test_kuranishi_builds_one_image_table(sl3, monkeypatch):
    # kuranishi builds one complex, checking S(R) off its lambda, and hands
    # it to both cocycle tests and the preimage: one lambda build per call,
    # one image table when the test of f first reads mu, and no separate
    # defect table; [[f, f]] = 0 here, so no matrix either
    a, r = sl3
    f = cohomology(r, 2).degrees[2].cocycle_witnesses[0]
    assert graded_bracket(f, f).is_zero()
    seen = []

    def spy(module, name, tag):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, **kwargs: seen.append(tag) or real(*args, **kwargs))
    spy(cochain, "d_apply", "d_apply")
    spy(cochain, "coboundary_matrix", "coboundary_matrix")
    for module in (cochain, liealg):
        spy(module, "_lambdas", "lambda")
        spy(module, "_images", "table")
    for name in ("mcybe_defect", "is_rota_baxter"):
        spy(rmatrix, name, "defect")
    for _ in range(2):
        assert kuranishi(r, f).is_cocycle
        assert seen == ["lambda", "d_apply", "table", "d_apply"]
        seen.clear()


def test_kuranishi_walks_the_matrix_once_and_else_the_supports(sl3, monkeypatch):
    # the cocycle tests walk the source blocks of f and of [[f, f]] only;
    # the preimage's matrix walks every arity-1 source block, once
    a, r = sl3
    f = next(w for w in cohomology(r, 2).degrees[2].cocycle_witnesses
             if not graded_bracket(w, w).is_zero())
    walked = []
    terms = cochain._terms
    monkeypatch.setattr(cochain, "_terms", lambda side, S: walked.append(S) or terms(side, S))
    rep = kuranishi(r, f)
    assert walked == [*f.coeffs, *rep.ff.coeffs, *basis_tuples(a.dim, 1)]


def test_kuranishi_on_sums_of_witnesses_matches_the_full_matrices(sl3):
    # on every sum of two Z^2 witnesses of sl(3), the verdicts and the
    # primitive equal those read off the whole matrices of d: d on [[f, f]]
    # by the arity-2 matrix, the primitive by eliminating all of [d | [[f, f]]]
    a, r = sl3
    witnesses = cohomology(r, 2).degrees[2].cocycle_witnesses
    d1, d2 = (coboundary_matrix(r, k).matrix for k in (1, 2))
    obstructed = 0
    for f, g in combinations(witnesses, 2):
        rep = kuranishi(r, f + g)
        ff = rep.ff.to_coeff_vector()
        assert rep.ff == graded_bracket(f + g, f + g)
        assert rep.is_cocycle == (not any(d2.apply(ff)))
        x = full_solve(d1, ff)
        assert rep.witness == (None if x is None else Cochain.from_coeff_vector(a, 1, x))
        assert rep.vanishes_in_H3 == (x is not None)
        obstructed += x is None
    assert (len(witnesses), obstructed) == (15, 34)


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


def test_graded_bracket_needs_one_algebra(sl2, sl3):
    (_, r), (b, s) = sl2, sl3
    for f, g in ((r, s), (s, r), (Cochain.from_endo(r), pi_cochain(b))):
        with pytest.raises(InputError, match="cochains over the same algebra"):
            graded_bracket(f, g)


def test_graded_elements_need_arity_one(sl2):
    a, _ = sl2
    with pytest.raises(InputError):
        as_graded(Cochain.from_vector(a, a.basis_vector(0)))
    with pytest.raises(InputError):
        graded_bracket(Cochain.from_vector(a, a.basis_vector(0)),
                       Cochain.zero(a, 1))


def test_as_graded_refuses_a_non_cochain(sl2):
    a, _ = sl2
    assert input_error(lambda: as_graded(a.basis_vector(0))) == "not a graded element: tuple"
