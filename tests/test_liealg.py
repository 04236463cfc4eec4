"""Lie algebra construction, bracket, Jacobi, adjoints, and the catalog."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from mcybe import (Endo, InputError, LieAlgebra, Matrix, catalog, cochain, cohomology,
                   compatible_bracket_check, induced_bracket, is_rota_baxter, liealg,
                   mcybe_defect, operator_identity, rho)
from mcybe.doubling import build_double
from mcybe.liealg import (induced_bracket_table, is_zero_vector, sl_algebra, subspace_closure,
                          vadd, vector_from_json, vsub)
from mcybe.linalg import _exact

from conftest import borel_with_cartan, input_error, rand_rational, rand_vector


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


@pytest.mark.parametrize("n", range(2, 7))
def test_sl_table_matches_matrix_commutators(n):
    # each basis element as an n x n Matrix in the documented order (upper
    # E_ij row-major, lower E_ij row-major, H_m = E_mm - E_(m+1)(m+1)); XY - YX,
    # decoded in that order, is bracket_basis on every pair
    a = sl_algebra(n)
    offdiag = ([(i, j) for i in range(n) for j in range(n) if i < j]
               + [(i, j) for i in range(n) for j in range(n) if i > j])

    def matrix(entries):
        rows = [[0] * n for _ in range(n)]
        for i, j, c in entries:
            rows[i][j] = c
        return Matrix(rows)

    basis = ([matrix([(i, j, 1)]) for i, j in offdiag]
             + [matrix([(m, m, 1), (m + 1, m + 1, -1)]) for m in range(n - 1)])
    assert a.dim == len(basis) == n * n - 1

    def decode(Z):
        # H_m's coefficient is the sum of the first m + 1 diagonal entries
        diag = [Z.entry(i, i) for i in range(n)]
        coeffs = ([Z.entry(i, j) for i, j in offdiag]
                  + [sum(diag[:m + 1]) for m in range(n - 1)])
        total = Matrix.zero(n, n)
        for c, X in zip(coeffs, basis):
            total = total + X.scale(c)
        assert total == Z                   # Z lies in sl(n) and decodes exactly
        return tuple(coeffs)

    for p, X in enumerate(basis):
        for q, Y in enumerate(basis):
            assert _same_exact(a.bracket_basis(p, q), decode(X @ Y - Y @ X)), (p, q)


def test_sl7_table_is_a_lie_algebra():
    a = sl_algebra(7)
    assert a.dim == 48 and a.verify_jacobi().ok


def test_package_tables_skip_ratio(sl2, monkeypatch):
    # sl_algebra, induced_bracket, build_double and the compatible-bracket sum
    # hand LieAlgebra values exact by construction; each table equals the one
    # LieAlgebra(...) builds through ratio, type for type
    tables = []
    real = LieAlgebra._from_exact.__func__

    def spy(cls, dim, structure, basis_names=None, check=False):
        tables.append(dict(structure))
        return real(cls, dim, structure, basis_names, check)

    a, r = sl2
    rhat = Endo(Matrix.from_sparse([{}, {}, {1: 2}], 3), a)
    monkeypatch.setattr(LieAlgebra, "_from_exact", classmethod(spy))
    monkeypatch.setattr(liealg, "ratio", lambda x: pytest.fail(f"ratio({x!r})"))
    built = [sl_algebra(3), induced_bracket(r), build_double(a).algebra]
    assert compatible_bracket_check(r, rhat, Fraction(1, 2), -3).ok
    monkeypatch.undo()
    assert len(tables) == 4
    for algebra, structure in zip(built, tables):
        checked = LieAlgebra(algebra.dim, structure, basis_names=algebra.basis_names)
        assert algebra == checked and algebra._table == checked._table
        assert all(_same_exact(algebra.structure[pair], value)
                   for pair, value in checked.structure.items())


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
    # a misspelled key would leave the algebra abelian
    with pytest.raises(InputError, match="^unknown key 'bracket' in algebra JSON$"):
        LieAlgebra.from_json_dict({"dim": 8, "bracket": data["brackets"]})
    with pytest.raises(InputError, match="^unknown key 'k' in bracket entry$"):
        LieAlgebra.from_json_dict({"dim": 8, "brackets": [{**data["brackets"][0], "k": 2}]})


def test_endo_json_roundtrip(sl2):
    a, r = sl2
    again = Endo.from_json_dict(r.to_json_dict(), a)
    assert again == r
    # the decoded entries are taken over as they are: exact, with no zero kept
    data = {"matrix": [[1, "1/2", 0], ["-3/1", 0, "2/4"], [0, 0, "0/5"]]}
    got = Endo.from_json_dict(data, a).matrix
    assert got == Matrix([[1, Fraction(1, 2), 0], [-3, 0, Fraction(1, 2)], [0, 0, 0]])
    assert [sorted((j, type(x)) for j, x in got.nonzeros(i).items()) for i in range(3)] == [
        [(0, int), (1, Fraction)], [(0, int), (2, Fraction)], []]
    with pytest.raises(InputError, match="^unknown key 'basis' in endomorphism JSON$"):
        Endo.from_json_dict({**r.to_json_dict(), "basis": ["e", "f", "h"]}, a)


def test_json_algebra_decodes_each_value_once(sl3_rescaled, monkeypatch):
    # from_json_dict builds the table from its decoded values as they are,
    # with no ratio pass, and reads the table denominator in the same pass
    a, _ = sl3_rescaled
    assert a._denominator == lcm(*[x.denominator for v in a.structure.values() for x in v])
    assert a._denominator == 360 and catalog("sl-borel", 3)[0]._denominator == 1
    monkeypatch.setattr(liealg, "ratio", lambda x: pytest.fail(f"ratio({x!r})"))
    b = LieAlgebra.from_json_dict(a.to_json_dict())
    monkeypatch.undo()
    assert b == a and b.basis_names == a.basis_names and b._denominator == a._denominator
    assert all(_same_exact(b.structure[pair], value) for pair, value in a.structure.items())
    assert b._table == a._table
    # the decoded path keeps the range, length and Jacobi checks
    data = a.to_json_dict()
    for edit, message in ((lambda d: d["brackets"][0].update(j=8), "need 0 <= i < j < dim"),
                          (lambda d: d["brackets"][0]["value"].pop(), "has length 7"),
                          (lambda d: d["brackets"][0]["value"].__setitem__(0, "1/7"),
                           "Jacobi identity fails")):
        broken = {**data, "brackets": [dict(e, value=list(e["value"])) for e in data["brackets"]]}
        edit(broken)
        assert message in input_error(lambda: LieAlgebra.from_json_dict(broken))


@pytest.mark.parametrize("call, message", [
    (lambda a, r: vector_from_json([1, 2], a.dim), "vector length 2 != dim 3"),
    (lambda a, r: LieAlgebra(-1, {}), "negative dimension"),
    (lambda a, r: LieAlgebra(2, {}, basis_names=["a"]), "1 basis names for dimension 2"),
    (lambda a, r: LieAlgebra(2, {(0, 1): (1,)}), "structure value for (0, 1) has length 1"),
    (lambda a, r: a.basis_vector(3), "basis index 3 out of range"),
    (lambda a, r: Endo.from_diagonal(a, [1, -1]), "diagonal length mismatch"),
    (lambda a, r: rho(r, (1, 0)), "vector length 2 != dim 3"),
    (lambda a, r: sl_algebra(1), "sl(n) needs n >= 2"),
    (lambda a, r: LieAlgebra.from_json_dict([1, 2]),
     "algebra JSON must be a JSON object, got [1, 2]"),
    (lambda a, r: LieAlgebra.from_json_dict({"basis": []}), "missing key 'dim' in algebra JSON"),
    (lambda a, r: LieAlgebra.from_json_dict({"dim": 2, "brackets": [[0, 1]]}),
     "bracket entry must be a JSON object, got [0, 1]"),
    (lambda a, r: LieAlgebra.from_json_dict({"dim": 2, "brackets": [{"i": 0, "j": 1}]}),
     "missing key 'value' in bracket entry"),
    (lambda a, r: LieAlgebra.from_json_dict(
        {"dim": 2, "brackets": [{"i": 0, "j": 1, "value": "1 0"}]}),
     "bracket (0, 1) value must be a JSON array, got '1 0'"),
    (lambda a, r: LieAlgebra.from_json_dict(
        {"dim": 2, "brackets": [{"i": 0, "j": 1, "value": [0, True]}]}),
     "not a rational: True"),
    (lambda a, r: LieAlgebra.from_json_dict(
        {"dim": 2, "brackets": [{"i": 0, "j": 1, "value": [0, 0]}] * 2}),
     "duplicate bracket entry for (0, 1)"),
    (lambda a, r: Endo.from_json_dict("1 0 0 1", a),
     "endomorphism JSON must be a JSON object, got '1 0 0 1'"),
    (lambda a, r: Endo.from_json_dict({"matrix": [[1, 0, 0], [0, 1], [0, 0, 1]]}, a),
     "ragged rows in matrix"),
    (lambda a, r: Endo.from_json_dict({"matrix": [[1, 0], [0, "1/2"]]}, a),
     "endomorphism matrix (2, 2) does not fit dim 3"),
    (lambda a, r: Endo.from_json_dict({"matrix": []}, a),
     "endomorphism matrix (0, 0) does not fit dim 3"),
], ids=["vector-length", "negative-dim", "basis-name-count", "structure-value-length",
        "basis-vector-range", "diagonal-length", "rho-length", "sl1", "algebra-not-object",
        "algebra-no-dim", "bracket-not-object", "bracket-no-value", "bracket-value-not-array",
        "bracket-value-boolean", "bracket-duplicate", "endo-not-object",
        "endo-ragged", "endo-shape", "endo-empty"])
def test_input_errors(sl2, call, message):
    assert input_error(lambda: call(*sl2)) == message


@pytest.mark.parametrize("bad", [True, 2.0], ids=["bool", "float"])
def test_a_non_int_dimension_is_refused(bad):
    assert input_error(lambda: LieAlgebra(bad, {})) == f"bad algebra dim {bad!r}"
    assert input_error(lambda: sl_algebra(bad)) == f"sl(n) needs an integer n, got {bad!r}"
    for name in ("sl-borel", "abelian"):
        assert input_error(lambda: catalog(name, bad)) == \
            f"catalog needs an integer n, got {bad!r}"


def test_subspace_closure(sl2):
    a, _ = sl2
    e, f, h = a.basis()
    ok, _ = subspace_closure(a, [e, h])        # borel subalgebra
    assert ok
    bad, pair = subspace_closure(a, [e, f])    # [e, f] = h escapes
    assert not bad and pair == (0, 1)
    assert subspace_closure(a, [])[0]


def _closure_by_solve(algebra, vecs):
    """subspace_closure by one exact solve against the spanning matrix per pair."""
    span = Matrix.from_columns(vecs) if vecs else None
    for i, j in combinations(range(len(vecs)), 2):
        w = algebra.bracket(vecs[i], vecs[j])
        if not is_zero_vector(w) and span.solve(w) is None:
            return False, (i, j)
    return True, None


def test_subspace_closure_matches_solve_route(sl3, rng=random.Random(13)):
    # seeded spans of basis vectors and their combinations, with repeated,
    # zero and dependent spanning vectors; closed and not closed both occur
    a, _ = sl3
    verdicts = []
    for _ in range(120):
        vecs = [a.basis_vector(i) for i in rng.sample(range(a.dim), rng.randint(0, 4))]
        if vecs and rng.random() < 0.5:
            vecs.append(vadd(rng.choice(vecs), rng.choice(vecs)))
        if vecs and rng.random() < 0.3:
            vecs.insert(rng.randrange(len(vecs) + 1), a.zero())
        if rng.random() < 0.3:
            vecs = [tuple(rand_rational(rng) * x for x in v) for v in vecs]
        got = subspace_closure(a, vecs)
        assert got == _closure_by_solve(a, vecs), vecs
        verdicts.append(got[0])
    borel = [a.basis_vector(i) for i in (0, 1, 2, 6, 7)]
    dependent = borel + [vadd(borel[0], borel[3]), borel[1]]
    assert subspace_closure(a, dependent) == _closure_by_solve(a, dependent) == (True, None)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


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
    with pytest.raises(InputError):
        a.bracket_basis(-1, 0)
    with pytest.raises(InputError):
        a.bracket_basis(0, 99)


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


@pytest.mark.parametrize("names, first", [(["a", "b", "b", "a"], "b"), (["a", "b", "a", "b"], "a"),
                                          ([str(i) for i in range(20000)] + ["7"], "7")])
def test_first_repeated_basis_name_reported(names, first):
    # the first name that occurs earlier, as a scan of every prefix finds it
    assert input_error(lambda: LieAlgebra(len(names), {}, basis_names=names)) == \
        f"repeated basis name {first!r}"


def test_dimension_only_algebra_costs_no_square_table():
    # every row of the structure table without a bracket is the one shared
    # immutable empty row: naming a dimension costs memory linear in it
    tracemalloc.start()
    try:
        a = LieAlgebra(3000, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert a.bracket_basis(0, 2999) == a.zero() and a.verify_jacobi().ok
    b = LieAlgebra(4, {(1, 2): (0, 0, 0, 1)})
    assert b.bracket_basis(2, 1) == (0, 0, 0, -1) and b.bracket_basis(0, 3) == b.zero()
    assert b._table[0] is b._table[3] and b._table[1] is not b._table[0]


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
    return Matrix.from_columns([_oracle_bracket(a, x, e) for e in a.basis()])


def _oracle_jacobi(a):
    """(triple, jacobiator) of the first failing i < j < k, or None, by dense brackets."""
    basis = a.basis()
    for i, j, k in combinations(range(a.dim), 3):
        terms = [_oracle_bracket(a, _oracle_bracket(a, basis[p], basis[q]), basis[r])
                 for p, q, r in ((i, j, k), (j, k, i), (k, i, j))]
        jac = tuple(_exact(sum(c)) for c in zip(*terms))
        if any(jac):
            return (i, j, k), jac
    return None


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


def _random_table(rng, dim):
    """A seeded structure table with int or Fraction entries, mostly not Lie."""
    integral = rng.random() < 0.5

    def entry():
        return rng.randint(-3, 3) if integral else rand_rational(rng)

    pairs = list(combinations(range(dim), 2))
    return {pair: tuple(entry() if rng.random() < 0.4 else 0 for _ in range(dim))
            for pair in rng.sample(pairs, rng.randint(1, len(pairs)))}


def _assert_jacobi_matches_oracle(a):
    got, want = a.verify_jacobi(), _oracle_jacobi(a)
    assert got.ok == (want is None)
    if want is not None:
        assert got.triple == want[0]
        assert _same_exact(got.value, want[1])
    return got.ok


def test_jacobi_matches_dense_triple_oracle(kernel_algebra):
    assert _assert_jacobi_matches_oracle(kernel_algebra)


def test_jacobi_matches_oracle_on_random_tables():
    rng = random.Random(11)
    verdicts = [_assert_jacobi_matches_oracle(
        LieAlgebra(dim, _random_table(rng, dim), check=False))
        for dim in (3, 4, 5) for _ in range(60)]
    assert 0 < verdicts.count(True) < verdicts.count(False)


def _sparse_table(rng, dim):
    """A seeded table with a few nonzero pairs scattered over a larger basis,
    so most triples hold no nonzero pair."""
    pairs = list(combinations(range(dim), 2))
    pairs = rng.sample(pairs, rng.randint(1, min(4, len(pairs))))
    return {pair: tuple(rng.choice((0, 0, 0, 1, -1, Fraction(1, 2))) for _ in range(dim))
            for pair in pairs}


def test_jacobi_matches_full_walk_on_sparse_tables():
    # the first failing triple and its jacobiator, as the walk over every
    # triple finds them, on tables where the visited triples are few
    rng = random.Random(19)
    verdicts = [_assert_jacobi_matches_oracle(
        LieAlgebra(dim, _sparse_table(rng, dim), check=False))
        for dim in (3, 6, 9, 12) for _ in range(40)]
    assert 0 < verdicts.count(True) < verdicts.count(False)


def test_ad_and_rho_make_no_bracket_call(sl3, monkeypatch):
    a, r = sl3
    ops = [r, r.scale(3)]
    ss = [None, Endo.identity(a), r.scale(-1), r.compose(r)]
    calls = []
    for cls, name in ((LieAlgebra, "bracket"), (LieAlgebra, "bracket_basis"),
                      (LieAlgebra, "ad"), (Matrix, "apply"), (Matrix, "__matmul__")):
        monkeypatch.setattr(cls, name, lambda *args, real=getattr(cls, name), name=name:
                            calls.append(name) or real(*args))
    x = tuple(range(a.dim))
    a.ad(x)
    # ad and the Jacobi check sum structure-table entries
    assert a.verify_jacobi().ok and calls == ["ad"]
    calls.clear()
    # the kernel reads the columns of P and S and the structure table only
    for P in ops:
        for S in ss:
            list(operator_identity(P, S))
            list(operator_identity(P, S, algebra=a))
        induced_bracket_table(P)
    assert calls == []
    # rho is ad(Px) - P o ad(x): ad, apply and @, but still no bracket call
    for P in ops:
        for e in a.basis() + [x]:
            rho(P, e)
    assert calls and not {"bracket", "bracket_basis"} & set(calls)


# -- the operator-identity kernel against a dense route ------------------

def _dense_mixed_terms(a, P):
    """(i, j, Pe_i, Pe_j, [Pe_i, e_j] + [e_i, Pe_j]) off dense columns of ad(Pe_i)."""
    images = [P.apply(e) for e in a.basis()]
    ad_cols = [a.ad(p).matrix.transpose() for p in images]    # row j = column j
    for i, pi in enumerate(images):
        for j in range(i + 1, a.dim):
            yield i, j, pi, images[j], vsub(ad_cols[i].row(j), ad_cols[j].row(i))


def _dense_operator_identity(P, S=None, algebra=None):
    """The identity by dense bracket, apply and vsub; entries made exact by _exact."""
    a = P.algebra if algebra is None else algebra
    for i, j, pi, pj, mixed in _dense_mixed_terms(a, P):
        value = vsub(a.bracket(pi, pj), P.apply(mixed))
        if S is not None:
            value = vadd(value, S.apply(a.bracket_basis(i, j)))
        if not is_zero_vector(value):
            yield (i, j), tuple(_exact(c) for c in value)


def _dense_induced_table(P):
    return {(i, j): tuple(_exact(c) for c in mixed)
            for i, j, _, _, mixed in _dense_mixed_terms(P.algebra, P)
            if not is_zero_vector(mixed)}


def _dense_rho(P, x):
    a = P.algebra
    return a.ad(P.apply(x)) - P.compose(a.ad(x))


def _kernel_operators(rng, a):
    """Id, then signed permutations and unstructured maps, with int and Fraction
    entries; an unstructured map has about four nonzeros per row, all of them
    below dimension 5."""
    n = a.dim
    ops = [Endo.identity(a)]
    for entry in (lambda: rng.choice((-1, 1)), lambda: rand_rational(rng) or 1):
        perm = rng.sample(range(n), n)
        ops.append(Endo(Matrix([[entry() if perm[i] == j else 0 for j in range(n)]
                                for i in range(n)]), a))
        ops.append(Endo(Matrix([[entry() if rng.random() * n < 4 else 0 for _ in range(n)]
                                for _ in range(n)]), a))
    return ops


def _assert_kernel_matches_dense(rng, a, other):
    """operator_identity, its first failing pair, induced_bracket_table, rho
    and the coboundary's lambda columns equal the dense route in value, type
    and order, with brackets in a and, for operator_identity, in the other
    table of the same dimension."""
    failing = 0
    for P in _kernel_operators(rng, a):
        for S, algebra in ((None, None), (Endo.identity(a), None),
                           (P.scale(-(rand_rational(rng) or 1)), None), (P.compose(P), None),
                           (None, other), (P.compose(P), other)):
            got = list(operator_identity(P, S, algebra=algebra))
            want = list(_dense_operator_identity(P, S, algebra=algebra))
            assert [pair for pair, _ in got] == [pair for pair, _ in want]
            for (pair, u), (_, v) in zip(got, want):
                assert _same_exact(u, v), pair
            first = next(operator_identity(P, S, algebra=algebra), None)
            assert first == next(iter(want), None)
            failing += first is not None
        got = induced_bracket_table(P)
        want = _dense_induced_table(P)
        assert list(got) == list(want)
        assert all(_same_exact(got[pair], want[pair]) for pair in want)
        for x in _kernel_vectors(rng, a.dim) + a.basis():
            got, want = rho(P, x).matrix, _dense_rho(P, x).matrix
            assert got == want, x
            assert all(_same_exact(got.row(i), want.row(i)) for i in range(a.dim)), x
        # the coboundary's lambdas[u] holds the nonzero rows m of rho(t P, e_u)
        # in ints, t the lcm of P's denominators times the table's, and scale
        # = 1/t: every dense nonzero row, and no other, is scale times one
        side = cochain._Complex(P, cochain.FLAVOR_R, check=False)
        t = lcm(*[x.denominator for row in P.matrix.rows_list() for x in row]) * lcm(
            *[x.denominator for value in a.structure.values() for x in value])
        assert _same_exact([side.scale], [_exact(Fraction(1, t))])
        for u, e in enumerate(a.basis()):
            want = _dense_rho(P, e).matrix
            lam = side.lambdas[u]
            assert sorted(lam) == [m for m in range(a.dim) if want.nonzeros(m)], u
            for m, row in lam.items():
                dense = want.nonzeros(m)
                assert sorted(row) == sorted(dense), (u, m)
                assert all(type(x) is int for x in row.values()), (u, m)
                assert _same_exact([_exact(side.scale * row[j]) for j in dense],
                                   dense.values()), (u, m)
        # the B-complex stores the int lambdas of the R-complex of Id + 2P,
        # entry for entry, and half its scale
        halved = cochain._Complex(P, cochain.FLAVOR_B, check=False)
        doubled = cochain._Complex(Endo.identity(a) + P.scale(2), cochain.FLAVOR_R,
                                   check=False)
        assert halved.scale == doubled.scale / 2
        for u in range(a.dim):
            assert sorted(halved.lambdas[u]) == sorted(doubled.lambdas[u]), u
            for m, row in doubled.lambdas[u].items():
                assert sorted(halved.lambdas[u][m]) == sorted(row), (u, m)
                assert _same_exact([halved.lambdas[u][m][j] for j in row], row.values()), (u, m)
    return failing


def test_operator_identity_matches_dense_route(kernel_algebra):
    a = kernel_algebra
    rng = random.Random(100 + a.dim)
    other = LieAlgebra(a.dim, _random_table(rng, a.dim), check=False)
    failing = _assert_kernel_matches_dense(rng, a, other)
    assert failing > 0 or a.is_abelian()


def test_operator_identity_matches_dense_route_on_non_lie_tables():
    rng = random.Random(12)
    lie = []
    for dim in (3, 4, 5, 3, 4, 5):
        a = LieAlgebra(dim, _random_table(rng, dim), check=False)
        other = LieAlgebra(dim, _random_table(rng, dim), check=False)
        lie.append(a.verify_jacobi().ok)
        assert _assert_kernel_matches_dense(rng, a, other) > 0
    assert lie.count(False) >= 3


def _defect_operators(rng, a, modified):
    """Modified r-matrices, +-Id and those given; each one moved by a seeded
    rational entry and rescaled by a seeded rational c != +-1, so that
    (Id - R^2) != 0; then the maps of _kernel_operators."""
    ident = Endo.identity(a)
    ops = [ident, ident.scale(-1), *modified]
    for R in list(ops):
        i, j, x = rng.randrange(a.dim), rng.randrange(a.dim), rand_rational(rng) or 1
        bump = Matrix([[x if (p, q) == (i, j) else 0 for q in range(a.dim)]
                       for p in range(a.dim)])
        c = rng.choice((2, -3, Fraction(1, 2), Fraction(-2, 3)))
        ops += [R + Endo(bump, a), R.scale(c)]
    return ops + _kernel_operators(rng, a)


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl3_conjugate", "affine2", "double-sl2",
                                  "non-lie"])
def test_lambda_route_to_the_defect_matches_operator_identity(name, request):
    # S(R)(e_i, .) = lambda_i o R + lambda_(Re_i) + ad((Id - R^2) e_i), read
    # off the lambdas, gives the first failing pair of operator_identity(R,
    # Id) and its value, entry by entry and type by type; modified r-matrices,
    # with R^2 = Id or not, give None on both routes
    rng = random.Random(f"defect/{name}")
    if name == "non-lie":
        algebras = [LieAlgebra(dim, _random_table(rng, dim), check=False) for dim in (3, 4, 5)]
        assert not all(a.verify_jacobi().ok for a in algebras)
        cases = [(a, []) for a in algebras]
    elif name == "double-sl2":
        cases = [(build_double(request.getfixturevalue("sl2")[0]).algebra, [])]
    else:
        a, r = request.getfixturevalue(name)
        cases = [(a, [r])]
        if name in ("sl2", "sl3"):
            n = int(name[-1])
            cases[0][1].append(borel_with_cartan(n, [[Fraction(p + 2, q + 3) for q in range(n - 1)]
                                                     for p in range(n - 1)])[1])
    for a, modified in cases:
        verdicts = []
        for R in _defect_operators(rng, a, modified):
            want = next(operator_identity(R, Endo.identity(a)), None)
            got = liealg._modified_defect(R, liealg._lambdas(a, R))
            if want is None:
                assert got is None
            else:
                assert got[0] == want[0] and _same_exact(got[1], want[1]), want[0]
            verdicts.append(want is None)
        assert all(verdicts[:len(modified) + 2]) and not all(verdicts)
    assert any(R.involution_defect() is not None for _, modified in cases for R in modified) \
        == (name in ("sl2", "sl3"))


@pytest.mark.parametrize("dim", [0, 1])
def test_kernel_on_edge_dimensions(dim):
    a = LieAlgebra(dim, {})
    ident, zero = Endo.identity(a), Endo.zero(a)
    for P in (ident, zero, ident.scale(-3)):
        report = mcybe_defect(P)
        assert report.is_zero and report.worst_pair is None
        assert report.defect_cochain.is_zero()
        assert is_rota_baxter(P, 1).ok and is_rota_baxter(P, 0).ok
        assert list(operator_identity(P, P.compose(P))) == []
        assert induced_bracket_table(P) == {}
        for x in a.basis() + [a.zero()]:
            assert rho(P, x) == zero
    # the arity-0 cochains are g itself, and no arity-2 cochain exists below dimension 2
    want = {0: [(0, 0, 0, 0)] * 3, 1: [(1, 1, 0, 1), (1, 1, 0, 1), (0, 0, 0, 0)]}[dim]
    for flavor, P in (("R", ident), ("R", ident.scale(-1)), ("B", zero)):
        report = cohomology(P, max_degree=3, flavor=flavor)
        assert [(d.dim_cochains, d.dim_cocycles, d.dim_coboundaries, d.dim_cohomology)
                for d in report.degrees.values()] == want
        assert [len(d.cocycle_witnesses) for d in report.degrees.values()] == [w[1] for w in want]
