"""The direct product g (+) g, its diagonal, and graph complements.

The graph G = {(x - Rx, -x - Rx)} of an operator R is a subalgebra of the
product exactly when R solves the modified Yang-Baxter equation, and then
it is a complement of the diagonal, giving the matched-pair decomposition
g (+) g = g_diag (+) G.  Each entry point runs only the closures it reads:
build_double the diagonal's and antidiagonal's, graph_complement the
graph's, checked against the defect S(R), and complement_certificate the
diagonal's and graph's plus the certified_rank of both spanning sets.  For
a modified r-matrix R each complement verdict is a theorem (diagonal +
graph is direct for every R: (x, x) + (y - Ry, -y - Ry) = 0 forces y = 0,
then x = 0), so each is certified: a failure is an InternalError.
"""

from dataclasses import dataclass

from .errors import certify
from .liealg import Endo, LieAlgebra, subspace_closure, vadd, vneg, vsub
from .linalg import Matrix, certified_rank
from .deform import require_deformation
from .rmatrix import mcybe_defect, require_modified


@dataclass
class SubspaceCert:
    """A spanning set in the doubled algebra plus its closure verdict."""
    basis: tuple
    is_subalgebra: bool
    failing_pair: tuple | None = None

    def __bool__(self):
        return self.is_subalgebra


@dataclass
class DoubledAlgebra:
    algebra: LieAlgebra
    diagonal_basis: tuple
    antidiagonal_basis: tuple
    diagonal_cert: SubspaceCert
    antidiagonal_cert: SubspaceCert


def _double(a: LieAlgebra):
    """g (+) g with the blockwise bracket, and its diagonal basis (e_i, e_i)."""
    n = a.dim
    structure = {}
    for (i, j), vec in a.structure.items():
        structure[(i, j)] = tuple(vec) + (0,) * n
        structure[(n + i, n + j)] = (0,) * n + tuple(vec)
    names = [f"{s}|0" for s in a.basis_names] + [f"0|{s}" for s in a.basis_names]
    return LieAlgebra._from_exact(2 * n, structure, names), tuple(e + e for e in a.basis())


def build_double(a: LieAlgebra) -> DoubledAlgebra:
    """g (+) g with the blockwise bracket and named sub(spaces).

    The diagonal {(x, x)} is always certified a subalgebra; the
    antidiagonal {(x, -x)} is one exactly when a is abelian.
    """
    double, diag = _double(a)
    anti = tuple(e + vneg(e) for e in a.basis())
    diag_ok, diag_pair = subspace_closure(double, diag)
    anti_ok, anti_pair = subspace_closure(double, anti)
    certify(diag_ok, "the diagonal of g (+) g is not closed under the bracket")
    certify(anti_ok == a.is_abelian(), "antidiagonal closure disagrees with abelianness")
    return DoubledAlgebra(double, diag, anti,
                          SubspaceCert(diag, diag_ok, diag_pair),
                          SubspaceCert(anti, anti_ok, anti_pair))


def graph_basis(R: Endo):
    """Basis (e_i - R e_i, -e_i - R e_i) of the graph complement of R, with
    R e_i read as row i of R's transpose."""
    a, columns = R.algebra, R.matrix.transpose()
    return tuple(vsub(e, r) + vneg(vadd(e, r))
                 for e, r in zip(a.basis(), map(columns.row, range(a.dim))))


def graph_complement(R: Endo) -> SubspaceCert:
    """Closure certificate for the graph of R inside g (+) g.

    The subalgebra verdict and the Yang-Baxter defect of R are computed
    independently and must agree.
    """
    basis = graph_basis(R)
    ok, pair = subspace_closure(_double(R.algebra)[0], basis)
    certify(ok == mcybe_defect(R).is_zero, "graph closure and defect verdicts disagree")
    return SubspaceCert(basis, ok, pair)


@dataclass
class ComplementReport:
    """Direct-sum decomposition g (+) g = diagonal (+) graph; every verdict is certified."""
    dim_diagonal: int
    dim_graph: int
    rank_total: int
    intersection_dim: int
    direct_sum_ok: bool
    diagonal_subalgebra_ok: bool
    graph_subalgebra_ok: bool
    ok: bool

    def __bool__(self):
        return self.ok


def complement_certificate(R: Endo) -> ComplementReport:
    """Certify that the graph of a modified r-matrix complements the diagonal."""
    require_modified(R, "complement_certificate")
    n = R.algebra.dim
    double, diag = _double(R.algebra)
    gbasis = graph_basis(R)
    certify(subspace_closure(double, diag)[0], "the diagonal of g (+) g is not a subalgebra")
    certify(subspace_closure(double, gbasis)[0], "the graph of modified R is not a subalgebra")
    certify(certified_rank(Matrix._exact_rows(diag + gbasis)) == 2 * n,  # exact rows
            "the diagonal and the graph of R do not sum directly to g (+) g")
    return ComplementReport(n, n, 2 * n, 0, True, True, True, True)


def deformed_complements(R: Endo, Rhat: Endo, t_values):
    """Complement certificates along the family R + t Rhat; all must pass."""
    require_deformation(R, Rhat, "deformed_complements")
    return [(t, complement_certificate(R + Rhat.scale(t))) for t in t_values]
