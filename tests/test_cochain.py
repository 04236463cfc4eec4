"""Cochains, coboundary matrices, and cohomology with independent oracles."""

import functools
import hashlib
import json
import random
from fractions import Fraction
from math import comb

import pytest
import sympy

from mcybe import (Cochain, Endo, InputError, PreconditionError, catalog, cochain,
                   coboundary_matrix, coboundary_preimage, cohomology, d_apply,
                   is_cocycle, pi_cochain, rb_from_r)
from mcybe.cochain import basis_tuples, cochain_space_dim, insert_sorted
from mcybe.liealg import vadd, vscale

from conftest import conjugate, nilpotent_exp, rand_cochain, rand_endo, rand_vector


def test_eval_repeated_argument_vanishes(sl2, rng=random.Random(21)):
    a, _ = sl2
    for _ in range(10):
        f = rand_cochain(rng, a, 2)
        x = rand_vector(rng, a.dim)
        y = rand_vector(rng, a.dim)
        assert f.eval([x, x]) == a.zero()
        assert f.eval([x, y]) == tuple(-c for c in f.eval([y, x]))


def test_eval_on_sorted_basis_tuple_returns_stored(sl3, rng=random.Random(22)):
    a, _ = sl3
    f = rand_cochain(rng, a, 3, support=4)
    for tup, vec in f.coeffs.items():
        args = [a.basis_vector(t) for t in tup]
        assert f.eval(args) == vec


def test_eval_pi_cochain(sl2):
    a, _ = sl2
    pi = pi_cochain(a)
    e, f, h = a.basis()
    assert pi.eval([e, f]) == h
    assert pi.eval([h, e]) == (2, 0, 0)


def test_eval_multilinearity(sl2, rng=random.Random(23)):
    a, _ = sl2
    f = rand_cochain(rng, a, 2, support=3)
    x, y, z = (rand_vector(rng, a.dim) for _ in range(3))
    c = Fraction(3, 2)
    lhs = f.eval([vadd(x, vscale(c, z)), y])
    rhs = vadd(f.eval([x, y]), vscale(c, f.eval([z, y])))
    assert lhs == rhs


def test_eval_arity_mismatch(sl2):
    a, _ = sl2
    f = Cochain.zero(a, 2)
    with pytest.raises(InputError):
        f.eval([a.basis_vector(0)])


def test_insert_sorted_signs():
    assert insert_sorted((1, 3), 0) == (1, (0, 1, 3))
    assert insert_sorted((1, 3), 2) == (-1, (1, 2, 3))
    assert insert_sorted((1, 3), 5) == (1, (1, 3, 5))
    assert insert_sorted((1, 3), 3) is None


def test_abelian_coboundary_is_zero(abelian3):
    a, r = abelian3
    for k in range(0, 3):
        assert coboundary_matrix(r, k).matrix.is_zero()


def test_arity_zero_builds_no_pair_table(sl3, monkeypatch):
    # (d x)(y) has a single argument, so no induced bracket is needed
    calls = []
    real = cochain.induced_bracket_table
    monkeypatch.setattr(cochain, "induced_bracket_table",
                        lambda P: calls.append(P) or real(P))
    a, r = sl3
    x = Cochain.from_vector(a, a.basis_vector(0))
    for flavor, op in (("R", r), ("B", rb_from_r(r))):
        coboundary_matrix(op, 0, flavor=flavor)
        d_apply(op, x, flavor=flavor)
        assert calls == []
    coboundary_matrix(r, 1)
    assert len(calls) == 1


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


def test_coboundary_matrix_matches_d_apply(sl2, sl3, rng=random.Random(24)):
    # matrix route and direct evaluation route must agree
    for a, r in (sl2, sl3):
        for k in (0, 1, 2):
            cb = coboundary_matrix(r, k)
            for _ in range(4):
                f = rand_cochain(rng, a, k)
                via_matrix = cb.matrix.apply(f.to_coeff_vector())
                direct = d_apply(r, f, check=False)
                assert list(via_matrix) == direct.to_coeff_vector()


def test_complex_property_both_flavors(sl2, sl3, abelian3):
    from mcybe.rmatrix import rb_from_r
    for a, r in (sl2, sl3, abelian3):
        b = rb_from_r(r)
        for k in range(0, min(3, a.dim)):
            dr1 = coboundary_matrix(r, k + 1, check=False).matrix
            dr0 = coboundary_matrix(r, k, check=False).matrix
            assert (dr1 @ dr0).is_zero()
            db1 = coboundary_matrix(b, k + 1, flavor="B", check=False).matrix
            db0 = coboundary_matrix(b, k, flavor="B", check=False).matrix
            assert (db1 @ db0).is_zero()


def test_scaling_relation_r_equals_2b(sl2, sl3, abelian3):
    from mcybe.rmatrix import rb_from_r
    for a, r in (sl2, sl3, abelian3):
        b = rb_from_r(r)
        for k in range(0, min(3, a.dim) + 1):
            mr = coboundary_matrix(r, k, check=False).matrix
            mb = coboundary_matrix(b, k, flavor="B", check=False).matrix
            assert mr == mb.scale(2)


def test_coboundary_requires_valid_operator(sl2):
    a, _ = sl2
    with pytest.raises(PreconditionError):
        coboundary_matrix(Endo.from_diagonal(a, [1, 1, -1]), 1)
    with pytest.raises(PreconditionError):
        coboundary_matrix(Endo.identity(a), 1, flavor="B")


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
    diff = tuple(p - q for p, q in zip(pre.to_vector(), e))
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
    assert Cochain.from_vector(a, x).to_vector() == x
