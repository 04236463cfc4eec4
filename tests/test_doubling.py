"""Direct product, diagonal and graph subalgebras, complement certificates."""

import random
from fractions import Fraction

import pytest

from mcybe import (Endo, PreconditionError, build_double,
                   complement_certificate, deformed_complements,
                   graph_complement, mcybe_defect)
from mcybe.doubling import graph_basis

from conftest import rand_endo, rand_vector


def test_double_abelian(abelian3):
    a, _ = abelian3
    dbl = build_double(a)
    assert dbl.algebra.dim == 6 and dbl.algebra.is_abelian()
    assert dbl.diagonal_cert.is_subalgebra
    assert dbl.antidiagonal_cert.is_subalgebra


def test_double_sl2(sl2):
    a, _ = sl2
    dbl = build_double(a)
    assert dbl.algebra.dim == 6
    assert dbl.algebra.verify_jacobi().ok
    assert dbl.diagonal_cert.is_subalgebra
    assert not dbl.antidiagonal_cert.is_subalgebra
    # [(e,-e),(f,-f)] = (h, h) sits outside the antidiagonal
    e_anti = dbl.antidiagonal_basis[0]
    f_anti = dbl.antidiagonal_basis[1]
    assert dbl.algebra.bracket(e_anti, f_anti) == (0, 0, 1, 0, 0, 1)


def test_factor_embeddings_preserve_brackets(sl2, rng=random.Random(51)):
    a, _ = sl2
    dbl = build_double(a)
    pad = (0,) * a.dim

    def first(vec):
        return tuple(vec) + pad

    def second(vec):
        return pad + tuple(vec)

    for _ in range(10):
        x, y = rand_vector(rng, a.dim), rand_vector(rng, a.dim)
        br = a.bracket(x, y)
        assert dbl.algebra.bracket(first(x), first(y)) == first(br)
        assert dbl.algebra.bracket(second(x), second(y)) == second(br)
        assert dbl.algebra.bracket(first(x), second(y)) == dbl.algebra.zero()


def test_graph_identity_operator(sl2):
    # R = Id gives the graph {(0, -2x)}: the second factor, a subalgebra
    a, _ = sl2
    cert = graph_complement(Endo.identity(a))
    assert cert.is_subalgebra
    for i, v in enumerate(cert.basis):
        assert v[:3] == (0, 0, 0)
        assert v[3 + i] == -2


def test_graph_borel_positive(sl2, sl3):
    for _, r in (sl2, sl3):
        assert graph_complement(r).is_subalgebra


def test_graph_negative_with_witness(sl2):
    a, _ = sl2
    cert = graph_complement(Endo.from_diagonal(a, [1, 1, -1]))
    assert not cert.is_subalgebra
    assert cert.failing_pair is not None


def test_graph_agrees_with_defect(sl2, rng=random.Random(52)):
    a, _ = sl2
    instances = [Endo.identity(a), Endo.from_diagonal(a, [1, -1, 5]),
                 Endo.from_diagonal(a, [1, 1, -1]), Endo.identity(a).scale(2)]
    instances += [rand_endo(rng, a) for _ in range(10)]
    for r in instances:
        assert graph_complement(r).is_subalgebra == mcybe_defect(r).is_zero


def test_complement_certificate_identity(sl2):
    a, _ = sl2
    rep = complement_certificate(Endo.identity(a))
    assert rep.ok and rep.rank_total == 6 and rep.intersection_dim == 0


def test_complement_certificate_borel(sl2, sl3):
    for a, r in (sl2, sl3):
        rep = complement_certificate(r)
        assert rep.ok
        assert rep.rank_total == 2 * a.dim
        assert rep.intersection_dim == 0
        assert rep.diagonal_subalgebra_ok and rep.graph_subalgebra_ok


def test_complement_certificate_precondition(sl2):
    a, _ = sl2
    with pytest.raises(PreconditionError):
        complement_certificate(Endo.from_diagonal(a, [1, 1, -1]))


def test_deformed_complements(sl2):
    from mcybe.cochain import Cochain
    from mcybe import d_apply
    a, r = sl2
    rhat = d_apply(r, Cochain.from_vector(a, a.basis_vector(0)), check=False).to_endo()
    reports = deformed_complements(r, rhat, [0, 1, Fraction(-2, 3)])
    assert [t for t, _ in reports] == [0, 1, Fraction(-2, 3)]
    assert all(rep.ok for _, rep in reports)


def test_deformed_complements_precondition(sl2):
    a, r = sl2
    with pytest.raises(PreconditionError):
        deformed_complements(r, Endo.identity(a), [0, 1])


def test_graph_basis_shape(sl2):
    a, r = sl2
    basis = graph_basis(r)
    assert len(basis) == a.dim
    for i, v in enumerate(basis):
        ei = a.basis_vector(i)
        ri = r.apply(ei)
        assert v[:3] == tuple(x - y for x, y in zip(ei, ri))
        assert v[3:] == tuple(-x - y for x, y in zip(ei, ri))
