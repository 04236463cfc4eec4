"""Modified r-matrices and Rota-Baxter operators.

The central object is the defect

    S(R)(x, y) = [Rx, Ry] - R([Rx, y] + [x, Ry]) + [x, y],

which vanishes exactly when R solves the modified classical Yang-Baxter
equation.  It and the weight-lambda Rota-Baxter axiom are evaluated by the
one kernel liealg.operator_identity, and the induced bracket [x, y]_R comes
from the same module, all off one image table [Re_i, e_j] per call.  The
involutive analyzer reads its MCYBE and Nijenhuis verdicts off one defect,
S(R) being the torsion of an involution.  Under R = Id + 2B, S(R) is 4 times
the weight-1 Rota-Baxter defect of B, so the coboundaries of cochain check
either flavor's precondition as t^2 S(R) off their lambda rows
(liealg._modified_defect), calling nothing here.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import InputError, certify
from .liealg import (Endo, LieAlgebra, Vector, induced_bracket_table, operator_identity,
                     subspace_closure)
from .cochain import Cochain, _not_modified


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
    return DefectReport(worst is None, worst, Cochain._trusted(R.algebra, 2, coeffs))


def require_modified(R: Endo, what="this operation"):
    report = mcybe_defect(R)
    if not report.is_zero:
        raise _not_modified(R.algebra, report.worst_pair,
                            report.defect_cochain.get(report.worst_pair), what)
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
    return LieAlgebra._from_exact(R.algebra.dim, induced_bracket_table(R), R.algebra.basis_names)


@dataclass
class InvolutiveReport:
    """Four equivalent certificates for an involution R (R^2 = Id).

    One consistency cross-check, not four features: the first two are read
    off S(R), the torsion of an involution, the last two along other routes.
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

    Routes: (1) MCYBE defect on basis pairs, also the Nijenhuis torsion;
    (2) both eigenspaces of R closed under the bracket; (3) the projector
    identities P[Px, Py] = [Px, Py] for P = (Id +- R)/2, tested as
    (Q - 2 Id)[Qx, Qy] = 0 for Q = 2P, which halves nothing.
    """
    a = R.algebra
    if (bad := R.involution_defect()) is not None:
        raise InputError(
            f"involutive_analyze needs R^2 = Id; fails on basis vector {a.basis_names[bad]}")

    defect = mcybe_defect(R)
    ident = Endo.identity(a)
    plus_basis = tuple((R - ident).matrix.kernel_basis())
    minus_basis = tuple((R + ident).matrix.kernel_basis())
    certify(len(plus_basis) + len(minus_basis) == a.dim,
            "the eigenspaces of an involution do not span the algebra")
    plus_closed, _ = subspace_closure(a, plus_basis)
    minus_closed, _ = subspace_closure(a, minus_basis)
    eigensplit_ok = plus_closed and minus_closed

    def projector_ok(sign):
        """(Q - 2 Id)[Qx, Qy] = 0 on basis pairs, Q = Id + sign R = 2P."""
        q = ident + R.scale(sign)
        images = q.matrix.transpose().rows_list()   # the columns Qe_i
        excess = q - ident.scale(2)
        return not any(any(excess.apply(a.bracket(images[i], images[j])))
                       for i, j in combinations(range(a.dim), 2))

    product_ok = projector_ok(1) and projector_ok(-1)

    report = InvolutiveReport(defect.is_zero, defect.is_zero, eigensplit_ok, product_ok,
                              plus_basis, minus_basis, failing_pair=defect.worst_pair)
    certify(report.all_agree(), f"involutive certificates disagree: {report}")
    return report
