"""Invariants of the coboundary complexes, checked metamorphically.

The Euler characteristic of a finite complex equals that of its
cohomology; cohomology dimensions do not change when the operator is
moved by a Lie algebra automorphism (an inner one, exp(ad x), or a Weyl
group element permuting the root vectors).  Nor do they change under a
change of basis that is no automorphism: rescaling the basis by a
diagonal D moves the structure constants to s_i s_j c_ij^k / s_k and the
operator to D^-1 P D together.  Each check runs in both flavors, on full
complexes or on sl(3) up to degree 3, and the sl(4) frontier up to
degree 3 is pinned on the Borel operator and a conjugate.  The Borel
operators with another Cartan block are pinned too: they are the modified
r-matrices with R^2 != Id, where S(R) has its ad((Id - R^2) x) term.
"""

from fractions import Fraction

import pytest

from mcybe import Endo, LieAlgebra, Matrix, catalog, cohomology, rb_from_r

from conftest import borel_with_cartan, conjugate, nilpotent_exp

# dim H^1.. of the Borel r-matrix on the full complex of sl(3)
SL3_FULL = (2, 9, 16, 14, 6, 1, 0, 0, 0)


def flavored(R, flavor):
    return R if flavor == "R" else rb_from_r(R)


def dims(P, max_degree, flavor):
    rep = cohomology(P, max_degree, flavor=flavor, witnesses=False)
    return tuple(rep.dim_h(d) for d in range(1, max_degree + 1)), rep


def weyl_automorphism(algebra, n, perm):
    """X -> Q X Q^-1 on the sl(n) basis, Q the permutation matrix of perm.

    The basis is the catalog's: upper E_ij row-major, lower E_ij row-major,
    then H_i = E_ii - E_(i+1)(i+1).
    """
    offdiag = ([(i, j) for i in range(n) for j in range(n) if i < j]
               + [(i, j) for i in range(n) for j in range(n) if i > j])
    index = {p: k for k, p in enumerate(offdiag)}
    cols = []
    for i, j in offdiag:
        col = [0] * algebra.dim
        col[index[(perm[i], perm[j])]] = 1
        cols.append(col)
    for i in range(n - 1):
        diag = [0] * n
        diag[perm[i]] += 1
        diag[perm[i + 1]] -= 1
        # the H coordinates of diag(d) are its running sums
        col = [0] * algebra.dim
        for k in range(n - 1):
            col[len(offdiag) + k] = sum(diag[:k + 1])
        cols.append(col)
    A = Endo(Matrix.from_columns(cols), algebra)
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            assert A.apply(algebra.bracket_basis(i, j)) == algebra.bracket(
                A.apply(algebra.basis_vector(i)), A.apply(algebra.basis_vector(j)))
    return A


@pytest.mark.parametrize("flavor", ["R", "B"])
@pytest.mark.parametrize("n", [2, 3])
def test_euler_characteristic_of_full_complex(n, flavor):
    algebra, R = catalog("sl-borel", n)
    top = algebra.dim + 1
    h, rep = dims(flavored(R, flavor), top, flavor)
    chi_h = sum((-1) ** d * h[d - 1] for d in range(1, top + 1))
    chi_c = sum((-1) ** d * rep.degrees[d].dim_cochains for d in range(1, top + 1))
    assert chi_h == chi_c
    assert rep.degrees[top].dim_cochains == algebra.dim     # wedge^dim g (x) g
    if n == 3:
        assert h == SL3_FULL


@pytest.mark.parametrize("flavor", ["R", "B"])
def test_sl3_dims_invariant_under_automorphisms(flavor):
    algebra, R = catalog("sl-borel", 3)
    x = [0] * algebra.dim
    x[0], x[1], x[2] = 1, 2, -1                 # E12 + 2 E13 - E23
    movers = [nilpotent_exp(algebra, tuple(x)),
              weyl_automorphism(algebra, 3, (2, 0, 1)),
              weyl_automorphism(algebra, 3, (1, 0, 2))]
    expected, _ = dims(flavored(R, flavor), 3, flavor)
    assert expected == SL3_FULL[:3]
    for A in movers:
        moved = conjugate(A, R)
        assert moved != R
        assert dims(flavored(moved, flavor), 3, flavor)[0] == expected


def rescaled(algebra, P, s):
    """The algebra and P written in the basis e'_i = s_i e_i.

    [e'_i, e'_j] = sum_k s_i s_j c_ij^k / s_k e'_k and P' = D^-1 P D with
    D = diag(s); Jacobi is verified again on the new constants.
    """
    structure = {(i, j): tuple(s[i] * s[j] * c / s[k] for k, c in enumerate(vec))
                 for (i, j), vec in algebra.structure.items()}
    moved = LieAlgebra(algebra.dim, structure, basis_names=algebra.basis_names)
    D, D_inv = Matrix.diagonal(s), Matrix.diagonal([1 / x for x in s])
    return moved, Endo(D_inv @ P.matrix @ D, moved)


@pytest.mark.parametrize("flavor", ["R", "B"])
def test_sl3_dims_invariant_under_basis_rescaling(flavor):
    algebra, R = catalog("sl-borel", 3)
    s = [Fraction(i + 2, 2 if i % 2 else 1) for i in range(algebra.dim)]  # 2, 3/2, 4, 5/2, ...
    x = [0] * algebra.dim
    x[0], x[1], x[2] = 1, 2, -1                 # E12 + 2 E13 - E23
    conjugated = conjugate(nilpotent_exp(algebra, tuple(x)), R)
    for P, max_degree in ((R, 3), (conjugated, 2)):
        moved_algebra, moved = rescaled(algebra, P, s)
        assert moved_algebra.structure != algebra.structure
        expected, _ = dims(flavored(P, flavor), max_degree, flavor)
        assert expected == SL3_FULL[:max_degree]
        assert dims(flavored(moved, flavor), max_degree, flavor)[0] == expected


@pytest.mark.parametrize("flavor", ["R", "B"])
def test_sl4_frontier_to_degree_3(flavor):
    algebra, R = catalog("sl-borel", 4)
    x = algebra.basis_vector(0)                 # E12
    for P in (R, conjugate(nilpotent_exp(algebra, x), R)):
        assert dims(flavored(P, flavor), 3, flavor)[0] == (3, 20, 60)


@pytest.mark.parametrize("n, C, expected", [
    (2, [[0]], (1, 1, 0)),
    (2, [[Fraction(1, 2)]], (1, 1, 0)),
    (2, [[1]], (1, 2, 1)),
    (2, [[3]], (1, 1, 1)),
    (3, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]], (2, 4, 2)),
    (3, [[3, 0], [0, Fraction(-1, 3)]], (2, 4, 2)),
    (3, [[0, 0], [0, 0]], (2, 4, 2)),
    (3, [[1, 5], [0, -2]], (2, 4, 2)),
], ids=["sl2-0", "sl2-half", "sl2-1", "sl2-3", "sl3-half", "sl3-3-third", "sl3-0", "sl3-upper"])
def test_borel_with_other_cartan_block(n, C, expected):
    # every Cartan block C keeps R a modified r-matrix, and C != 1 makes
    # R^2 != Id; H^1..H^3 are pinned, in both flavors for the
    # non-diagonal block
    algebra, R = borel_with_cartan(n, C)
    assert (R.involution_defect() is None) == (C == [[1]])
    assert dims(R, 3, "R")[0] == expected
    if C == [[1, 5], [0, -2]]:
        assert dims(flavored(R, "B"), 3, "B")[0] == expected
