"""Lie algebra construction, bracket, Jacobi, adjoints, and the catalog."""

import random

import pytest

from mcybe import Endo, InputError, LieAlgebra, Matrix, catalog, rho
from mcybe.doubling import build_double
from mcybe.liealg import induced_bracket_table, subspace_closure
from mcybe.linalg import _exact

from conftest import rand_rational, rand_vector


def test_sl2_classic_brackets(sl2):
    a, _ = sl2
    e, f, h = a.basis()
    assert a.bracket(e, f) == h
    assert a.bracket(h, e) == (2, 0, 0)
    assert a.bracket(h, f) == (0, -2, 0)


def test_bracket_antisymmetry_random(sl2, rng=random.Random(7)):
    a, _ = sl2
    for _ in range(20):
        x = rand_vector(rng, a.dim)
        assert a.bracket(x, x) == a.zero()
        y = rand_vector(rng, a.dim)
        assert a.bracket(x, y) == tuple(-c for c in a.bracket(y, x))


def test_sl3_elementary_commutator(sl3):
    a, _ = sl3
    names = list(a.basis_names)
    e12 = a.basis_vector(names.index("E12"))
    e23 = a.basis_vector(names.index("E23"))
    e13 = a.basis_vector(names.index("E13"))
    # oracle: E12 E23 - E23 E12 = E13 as 3x3 matrices
    assert a.bracket(e12, e23) == e13


def test_jacobi_passes_on_catalog(sl2, sl3, abelian3):
    for a, _ in (sl2, sl3, abelian3):
        assert a.verify_jacobi().ok


def test_jacobi_fails_on_altered_sl2():
    # sl(2) with [h, e] changed from 2e to 3e; first violating triple is (e, f, h)
    structure = {(0, 1): (0, 0, 1), (0, 2): (-3, 0, 0), (1, 2): (0, 2, 0)}
    broken = LieAlgebra(3, structure, basis_names=["e", "f", "h"], check=False)
    jac = broken.verify_jacobi()
    assert not jac.ok
    assert jac.triple == (0, 1, 2)
    with pytest.raises(InputError):
        LieAlgebra(3, structure, check=True)


def test_ad_zero(sl2):
    a, _ = sl2
    assert a.ad(a.zero()).is_zero()


def test_ad_sl2_values(sl2):
    a, _ = sl2
    e, f, h = a.basis()
    ad_h = a.ad(h)
    assert ad_h.matrix == Matrix.diagonal([2, -2, 0])
    ad_e = a.ad(e)
    assert ad_e.apply(f) == h
    assert ad_e.apply(h) == (-2, 0, 0)


def test_ad_is_bracket_homomorphism(sl2, sl3, rng=random.Random(8)):
    for a, _ in (sl2, sl3):
        for _ in range(10):
            x = rand_vector(rng, a.dim)
            y = rand_vector(rng, a.dim)
            lhs = a.ad(a.bracket(x, y)).matrix
            ax, ay = a.ad(x).matrix, a.ad(y).matrix
            assert lhs == ax @ ay - ay @ ax


def test_catalog_sl2(sl2):
    a, r = sl2
    assert a.basis_names == ("e", "f", "h")
    assert r.matrix == Matrix.diagonal([1, -1, 1])


def test_catalog_abelian():
    a, r = catalog("abelian", 3)
    assert a.dim == 3 and a.is_abelian()
    assert r.matrix == Matrix.identity(3)


def test_catalog_sl3_eigenspace_dims(sl3):
    a, r = sl3
    assert a.dim == 8
    plus = (r - Endo.identity(a)).matrix.kernel_basis()
    minus = (r + Endo.identity(a)).matrix.kernel_basis()
    assert len(plus) == 5 and len(minus) == 3


def test_catalog_involution(sl2, sl3, sl4):
    for _, r in (sl2, sl3, sl4):
        assert r.involution_defect() is None


def test_catalog_errors():
    with pytest.raises(InputError):
        catalog("nope", 3)
    with pytest.raises(InputError):
        catalog("sl-borel", 1)
    with pytest.raises(InputError):
        catalog("custom", 3)


def test_structure_storage_rules():
    with pytest.raises(InputError):
        LieAlgebra(2, {(1, 0): (0, 1)})
    with pytest.raises(InputError):
        LieAlgebra(2, {(0, 0): (0, 1)})
    a = LieAlgebra(2, {(0, 1): (0, 0)})
    assert a.structure == {}


def test_json_roundtrip(sl3):
    a, _ = sl3
    data = a.to_json_dict()
    b = LieAlgebra.from_json_dict(data)
    assert a == b and b.basis_names == a.basis_names
    with pytest.raises(InputError):
        LieAlgebra.from_json_dict({"dim": 2, "brackets": [{"i": 1, "j": 0, "value": [1, 0]}]})
    with pytest.raises(InputError):
        LieAlgebra.from_json_dict({"brackets": []})


def test_endo_json_roundtrip(sl2):
    a, r = sl2
    again = Endo.from_json_dict(r.to_json_dict(), a)
    assert again == r


def test_subspace_closure(sl2):
    a, _ = sl2
    e, f, h = a.basis()
    ok, _ = subspace_closure(a, [e, h])        # borel subalgebra
    assert ok
    bad, pair = subspace_closure(a, [e, f])    # [e, f] = h escapes
    assert not bad and pair == (0, 1)
    assert subspace_closure(a, [])[0]


def test_vector_length_guard(sl2):
    a, _ = sl2
    with pytest.raises(InputError):
        a.bracket((1, 0), (0, 1, 0))
    with pytest.raises(InputError):
        a.ad((1, 0))
    with pytest.raises(InputError):
        a.ad((1, 0, 0, 0))
    with pytest.raises(InputError):
        Endo(Matrix.identity(2), a)


def test_structure_is_read_only(sl2):
    a, _ = sl2
    with pytest.raises(TypeError):
        a.structure[(0, 1)] = (0, 0, 2)
    with pytest.raises(TypeError):
        del a.structure[(0, 1)]
    assert a.bracket(a.basis_vector(0), a.basis_vector(1)) == (0, 0, 1)


def test_repeated_basis_names_rejected():
    with pytest.raises(InputError, match="repeated basis name 'a'"):
        LieAlgebra(3, {}, basis_names=["a", "b", "a"])
    with pytest.raises(InputError, match="repeated basis name 'e'"):
        LieAlgebra.from_json_dict({"dim": 2, "basis": ["e", "e"], "brackets": []})


# -- the support-indexed structure table against the all-pairs loop ----

def _oracle_bracket(a, x, y):
    """[x, y] summed over every stored pair i < j, as a dense loop."""
    acc = [0] * a.dim
    for (i, j), vec in a.structure.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            for k, v in enumerate(vec):
                if v:
                    acc[k] += c * v
    return tuple(_exact(c) for c in acc)


def _oracle_ad(a, x):
    return Matrix.from_columns([_oracle_bracket(a, x, e) for e in a.basis()], nrows=a.dim)


def _kernel_vectors(rng, n):
    """Zero, sparse and dense vectors, with int and Fraction entries."""
    out = [(0,) * n]
    for entry in (lambda: rng.randint(-3, 3), lambda: rand_rational(rng)):
        for size in (1, 2, n):
            support = set(rng.sample(range(n), min(size, n)))
            out.append(tuple(entry() if k in support else 0 for k in range(n)))
    return out


def _same_exact(u, v):
    """Equal values and equal types (int versus Fraction) entry by entry."""
    return tuple(u) == tuple(v) and [type(c) for c in u] == [type(c) for c in v]


@pytest.fixture(params=["sl2", "sl3", "sl4", "affine2", "abelian3", "double-sl2"])
def kernel_algebra(request):
    if request.param == "double-sl2":
        return build_double(request.getfixturevalue("sl2")[0]).algebra
    return request.getfixturevalue(request.param)[0]


def test_bracket_matches_all_pairs_oracle(kernel_algebra):
    a = kernel_algebra
    vecs = _kernel_vectors(random.Random(a.dim), a.dim) + a.basis()
    for x in vecs:
        for y in vecs:
            assert _same_exact(a.bracket(x, y), _oracle_bracket(a, x, y)), (x, y)


def test_ad_matches_all_pairs_oracle(kernel_algebra):
    a = kernel_algebra
    for x in _kernel_vectors(random.Random(a.dim + 1), a.dim) + a.basis():
        got, want = a.ad(x).matrix, _oracle_ad(a, x)
        assert got == want, x
        for i in range(a.dim):
            assert _same_exact(got.row(i), want.row(i)), (x, i)


def test_ad_and_rho_make_no_bracket_call(sl3, monkeypatch):
    a, r = sl3
    brackets, ads = [], []
    real_bracket, real_ad = LieAlgebra.bracket, LieAlgebra.ad
    monkeypatch.setattr(LieAlgebra, "bracket",
                        lambda self, x, y: brackets.append(x) or real_bracket(self, x, y))
    monkeypatch.setattr(LieAlgebra, "ad", lambda self, x: ads.append(x) or real_ad(self, x))
    x = tuple(range(a.dim))
    a.ad(x)
    for e in a.basis() + [x]:
        rho(r, e)
    assert brackets == []
    # the mixed terms [Pe_i, e_j] + [e_i, Pe_j] read n columns of ad, no bracket
    ads.clear()
    induced_bracket_table(r)
    assert brackets == [] and len(ads) == a.dim
