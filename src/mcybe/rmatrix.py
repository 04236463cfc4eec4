"""Modified r-matrices and Rota-Baxter operators.

The central object is the defect

    S(R)(x, y) = [Rx, Ry] - R([Rx, y] + [x, Ry]) + [x, y],

which vanishes exactly when R solves the modified classical Yang-Baxter
equation.  It, the weight-lambda Rota-Baxter axiom and the Nijenhuis
torsion are all evaluated by the one kernel liealg.operator_identity, and
the induced bracket [x, y]_R and the representation rho come from the same
module.  Here also: the correspondence R = Id + 2B and the involutive-case
equivalence analyzer.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import InputError, PreconditionError, certify
from .liealg import (Endo, LieAlgebra, Vector, induced_bracket_table, operator_identity,
                     subspace_closure, vector_str)
from .liealg import rho  # noqa: F401  (re-exported next to the induced bracket)
from .cochain import Cochain


@dataclass
class DefectReport:
    """Defect of the modified Yang-Baxter equation on all basis pairs."""
    is_zero: bool
    worst_pair: tuple | None
    defect_cochain: Cochain

    def __bool__(self):
        return self.is_zero


def mcybe_defect(R: Endo) -> DefectReport:
    """Evaluate S(R) on every basis pair; zero iff R is a modified r-matrix."""
    coeffs = dict(operator_identity(R, Endo.identity(R.algebra)))
    worst = next(iter(coeffs), None)
    return DefectReport(worst is None, worst, Cochain(R.algebra, 2, coeffs))


def require_modified(R: Endo, what="this operation"):
    report = mcybe_defect(R)
    if not report.is_zero:
        i, j = report.worst_pair
        names = R.algebra.basis_names
        raise PreconditionError(
            f"{what} needs a modified r-matrix, but S(R)({names[i]}, {names[j]}) = "
            f"{vector_str(report.defect_cochain.get(report.worst_pair))}")
    return report


@dataclass
class RotaBaxterReport:
    ok: bool
    weight: object
    failing_pair: tuple | None = None
    value: Vector | None = None

    def __bool__(self):
        return self.ok


def is_rota_baxter(B: Endo, weight) -> RotaBaxterReport:
    """Check [Bx, By] = B([Bx, y] + [x, By] + weight [x, y]) on basis pairs."""
    failing = next(operator_identity(B, B.scale(-weight)), None)
    return RotaBaxterReport(failing is None, weight, *(failing or ()))


def rb_from_r(R: Endo) -> Endo:
    """B = (R - Id)/2; weight-1 Rota-Baxter iff R is a modified r-matrix."""
    return (R - Endo.identity(R.algebra)).scale(Fraction(1, 2))


def r_from_rb(B: Endo) -> Endo:
    """R = Id + 2B; exact inverse of rb_from_r."""
    return Endo.identity(B.algebra) + B.scale(2)


def induced_bracket(R: Endo, force=False) -> LieAlgebra:
    """The Lie algebra (g, [.,.]_R).

    Refuses operators that are not modified r-matrices, since the induced
    bracket need not satisfy Jacobi then; force=True returns the raw table
    unchecked (run verify_jacobi on the result to see its status).
    """
    if not force:
        require_modified(R, "induced_bracket")
    return LieAlgebra(R.algebra.dim, induced_bracket_table(R),
                      basis_names=R.algebra.basis_names, check=False)


@dataclass
class InvolutiveReport:
    """Four equivalent certificates for an involution R (R^2 = Id).

    One consistency cross-check, not four features: the verdicts are
    computed along independent routes and must coincide.
    """
    mcybe_ok: bool
    nijenhuis_operator_ok: bool
    eigensplit_ok: bool
    product_structure_ok: bool
    plus_basis: tuple
    minus_basis: tuple
    failing_pair: tuple | None = None

    @property
    def verdict(self) -> bool:
        return self.mcybe_ok

    def all_agree(self) -> bool:
        return (self.mcybe_ok == self.nijenhuis_operator_ok
                == self.eigensplit_ok == self.product_structure_ok)

    def __bool__(self):
        return self.verdict


def involutive_analyze(R: Endo) -> InvolutiveReport:
    """For R with R^2 = Id, decide the four equivalent structures together.

    Routes: (1) MCYBE defect on basis pairs; (2) vanishing Nijenhuis
    torsion; (3) both eigenspaces of R closed under the bracket; (4) the
    projector identities P[Px, Py] = [Px, Py] for P = (Id +- R)/2.
    """
    a = R.algebra
    bad = R.involution_defect()
    if bad is not None:
        raise InputError(
            f"involutive_analyze needs R^2 = Id; fails on basis vector "
            f"{a.basis_names[bad]}")

    defect = mcybe_defect(R)
    mcybe_ok = defect.is_zero

    nij_pair = next((pair for pair, _ in operator_identity(R, R.compose(R))), None)
    nij_ok = nij_pair is None

    ident = Endo.identity(a)
    plus_basis = tuple((R - ident).matrix.kernel_basis())
    minus_basis = tuple((R + ident).matrix.kernel_basis())
    certify(len(plus_basis) + len(minus_basis) == a.dim,
            "the eigenspaces of an involution do not span the algebra")
    plus_closed, _ = subspace_closure(a, plus_basis)
    minus_closed, _ = subspace_closure(a, minus_basis)
    eigensplit_ok = plus_closed and minus_closed

    def projector_ok(sign):
        """P[Px, Py] = [Px, Py] on basis pairs, for P = (Id + sign R)/2."""
        proj = (ident + R.scale(sign)).scale(Fraction(1, 2))
        images = [proj.apply(e) for e in a.basis()]
        return all(proj.apply(w) == w for w in (a.bracket(images[i], images[j])
                                                for i, j in combinations(range(a.dim), 2)))

    product_ok = projector_ok(1) and projector_ok(-1)

    report = InvolutiveReport(mcybe_ok, nij_ok, eigensplit_ok, product_ok,
                              plus_basis, minus_basis,
                              failing_pair=defect.worst_pair or nij_pair)
    certify(report.all_agree(), f"involutive certificates disagree: {report}")
    return report
