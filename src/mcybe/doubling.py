"""The direct product g (+) g, its diagonal, and graph complements.

The graph G = {(x - Rx, -x - Rx)} of an operator R is a subalgebra of the
product exactly when R solves the modified Yang-Baxter equation, and then
it is a complement of the diagonal, giving the matched-pair decomposition
g (+) g = g_diag (+) G.  The certificate attests exactly that: two
subalgebras forming a direct-sum complement, the rank of the two spanning
sets together read off certified_rank.
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


def build_double(a: LieAlgebra) -> DoubledAlgebra:
    """g (+) g with the blockwise bracket and named sub(spaces).

    The diagonal {(x, x)} is always certified a subalgebra; the
    antidiagonal {(x, -x)} is one exactly when a is abelian.
    """
    n = a.dim
    structure = {}
    for (i, j), vec in a.structure.items():
        structure[(i, j)] = tuple(vec) + (0,) * n
        structure[(n + i, n + j)] = (0,) * n + tuple(vec)
    names = [f"{s}|0" for s in a.basis_names] + [f"0|{s}" for s in a.basis_names]
    double = LieAlgebra._from_exact(2 * n, structure, names)

    diag = tuple(tuple(1 if k in (i, n + i) else 0 for k in range(2 * n))
                 for i in range(n))
    anti = tuple(tuple(1 if k == i else (-1 if k == n + i else 0)
                       for k in range(2 * n)) for i in range(n))
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
    double = build_double(R.algebra)
    basis = graph_basis(R)
    ok, pair = subspace_closure(double.algebra, basis)
    certify(ok == mcybe_defect(R).is_zero, "graph closure and defect verdicts disagree")
    return SubspaceCert(basis, ok, pair)


@dataclass
class ComplementReport:
    """Direct-sum decomposition g (+) g = diagonal (+) graph, certified."""
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
    double = build_double(R.algebra)
    n = R.algebra.dim
    gbasis = graph_basis(R)
    rank = certified_rank(Matrix._exact_rows(double.diagonal_basis + gbasis))  # exact rows
    graph_ok, _ = subspace_closure(double.algebra, gbasis)
    intersection = 2 * n - rank
    ok = rank == 2 * n and double.diagonal_cert.is_subalgebra and graph_ok
    return ComplementReport(n, n, rank, intersection, rank == 2 * n,
                            double.diagonal_cert.is_subalgebra, graph_ok, ok)


def deformed_complements(R: Endo, Rhat: Endo, t_values):
    """Complement certificates along the family R + t Rhat; all must pass."""
    require_deformation(R, Rhat, "deformed_complements")
    return [(t, complement_certificate(R + Rhat.scale(t))) for t in t_values]
