"""Linear deformations R + t Rhat of a modified r-matrix.

All conditions "for all t" are polynomial identities in an indeterminate
t of degree at most 2, so each holds for every t exactly when it holds at
the three points t = 0, 1 and -1, where it is evaluated exactly.  The
defect of R + t Rhat is quadratic in t:

    S(R + t Rhat) = S(R) + t d_R(Rhat) + t^2 S2(Rhat)

where S2 is the weight-0 Rota-Baxter defect of Rhat, so a deformation is
valid exactly when Rhat is a 2-cocycle (t coefficient) and a weight-0
Rota-Baxter operator (t^2 coefficient).  The interpolation cross-check
compares plus - minus with 2 S1 and plus + minus with 2 (S0 + S2), plus
and minus the defects at t = 1 and -1, and compatible_bracket_check
compares the sum of two deformed brackets with the bracket of
2R + (t1 + t2) Rhat, so on integral inputs neither halves a value.  S2,
the Nijenhuis torsion and the deformation omega of the induced bracket
all come from the kernel liealg.operator_identity and its
induced_bracket_table.  The Nijenhuis
element equations make no dense bracket call and build ad_x once:
[[x, e_j], [x, e_k]] is liealg._sparse_bracket of its columns j and k, and
[x, [x, Re_j]] - [x, R[x, e_j]] is column j of A(AR - RA) for A = ad_x.
nijenhuis_check, trivial_deformation and check_equivalence refuse a
non-rational entry of x first.

Each public entry point checks once that R is a modified r-matrix:
nijenhuis_scan before all its candidates, and trivial_deformation through
check_linear_deformation, whose three defects certify its d x with ad_x d x = 0.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, PreconditionError, certify
from .linalg import ratio
from .liealg import (Endo, LieAlgebra, Vector, _columns, _sparse_bracket,
                     induced_bracket_table, operator_identity, vadd)
from .cochain import Cochain, d_apply
from .rmatrix import induced_bracket, mcybe_defect, require_modified


def weight0_defect_cochain(B: Endo) -> Cochain:
    """[Bx, By] - B([Bx, y] + [x, By]) on basis pairs, as an arity-2 cochain."""
    return Cochain._trusted(B.algebra, 2, dict(operator_identity(B)))


def defect_polynomial(R: Endo, Rhat: Endo, s0: Cochain):
    """Coefficient cochains (S0, S1, S2) of S(R + t Rhat) in t.

    s0 is the defect of R, the value at t = 0.  S1 is the coboundary of
    Rhat in the R-complex and S2 the weight-0 defect of Rhat; both are
    cross-checked against an independent exact interpolation of the
    defect at t = 0, 1, -1: with plus and minus the defects at t = 1 and
    -1, plus - minus = 2 S1 and plus + minus = 2 (S0 + S2), so integral
    operators need no fraction.
    """
    s1 = d_apply(R, Cochain.from_endo(Rhat), check=False)
    s2 = weight0_defect_cochain(Rhat)
    plus = mcybe_defect(R + Rhat).defect_cochain
    minus = mcybe_defect(R - Rhat).defect_cochain
    certify(plus - minus == s1.scale(2) and plus + minus == (s0 + s2).scale(2),
            "polynomial defect coefficients disagree with interpolated defect values")
    return s0, s1, s2


@dataclass
class DeformationVerdict:
    """Coefficientwise validity of R + t Rhat as a family of r-matrices."""
    cocycle_ok: bool
    weight0_ok: bool
    valid: bool
    failing_pair: tuple | None = None

    def __bool__(self):
        return self.valid


def check_linear_deformation(R: Endo, Rhat: Endo) -> DeformationVerdict:
    """Rhat generates a linear deformation iff both t-coefficients vanish."""
    s0 = require_modified(R, "check_linear_deformation").defect_cochain
    _, s1, s2 = defect_polynomial(R, Rhat, s0)
    cocycle_ok = s1.is_zero()
    weight0_ok = s2.is_zero()
    failing = None
    if not cocycle_ok:
        failing = min(s1.coeffs)
    elif not weight0_ok:
        failing = min(s2.coeffs)
    return DeformationVerdict(cocycle_ok, weight0_ok, cocycle_ok and weight0_ok,
                              failing)


def require_deformation(R: Endo, Rhat: Endo, what):
    """Raise PreconditionError unless Rhat generates a linear deformation of R."""
    dv = check_linear_deformation(R, Rhat)
    if not dv.valid:
        raise PreconditionError(
            f"{what} needs a valid deformation; failing pair {dv.failing_pair}")


@dataclass
class EquivalenceVerdict:
    """phi_t = Id + t ad_x as an equivalence of two linear deformations.

    homomorphism_ok is the t^2 bracket condition [[x,y],[x,z]] = 0 (the t
    coefficient is the Jacobi identity and holds automatically);
    intertwine_linear_ok is Rhat1 - Rhat2 = d x; intertwine_quadratic_ok is
    the t^2 coefficient Rhat2 ad_x = ad_x Rhat1.
    """
    homomorphism_ok: bool
    intertwine_linear_ok: bool
    intertwine_quadratic_ok: bool
    ok: bool
    failing_pair: tuple | None = None

    def __bool__(self):
        return self.ok


def _commutator_witness(ad_x: Endo):
    """First basis pair (j, k), j < k, with [[x, e_j], [x, e_k]] != 0, or None;
    [x, e_j] is column j of ad_x."""
    images = [list(col.items()) for col in _columns(ad_x)]
    return next(((j, k) for j, k in combinations(range(len(images)), 2)
                 if any(_sparse_bracket(ad_x.algebra, images[j], images[k]).values())), None)


def check_equivalence(R: Endo, Rhat1: Endo, Rhat2: Endo, x) -> EquivalenceVerdict:
    """Decide whether Id + t ad_x intertwines R + t Rhat1 with R + t Rhat2.

    Both defining conditions are polynomial identities in t and are checked
    coefficient by coefficient.
    """
    x = tuple(map(ratio, x))
    require_modified(R, "check_equivalence")
    a = R.algebra
    if len(x) != a.dim:
        raise InputError(f"element length {len(x)} != dim {a.dim}")

    ad_x = a.ad(x)
    failing = _commutator_witness(ad_x)
    hom_ok = failing is None

    dx = d_apply(R, Cochain.from_vector(a, x), check=False).to_endo()
    linear_ok = (Rhat1 - Rhat2) == dx

    quadratic_ok = Rhat2.compose(ad_x) == ad_x.compose(Rhat1)

    ok = hom_ok and linear_ok and quadratic_ok
    return EquivalenceVerdict(hom_ok, linear_ok, quadratic_ok, ok, failing)


@dataclass
class NijenhuisVerdict:
    """Exact verdict of the two Nijenhuis-element equations for x.

    eq1: [[x, y], [x, z]] = 0 for all basis y, z;
    eq2: [x, [x, Ry]] = [x, R([x, y])] for all basis y.
    """
    eq1_ok: bool
    eq2_ok: bool
    is_nijenhuis_element: bool
    eq1_witness: tuple | None = None
    eq2_witness: int | None = None

    def __bool__(self):
        return self.is_nijenhuis_element


def nijenhuis_check(R: Endo, x) -> NijenhuisVerdict:
    x = tuple(map(ratio, x))
    require_modified(R, "nijenhuis_check")
    return _nijenhuis_verdict(R, x)


def _nijenhuis_verdict(R: Endo, x) -> NijenhuisVerdict:
    """The Nijenhuis equations for an exact tuple x, R not checked."""
    a = R.algebra
    if len(x) != a.dim:
        raise InputError(f"element length {len(x)} != dim {a.dim}")
    ad_x = a.ad(x)
    eq1_witness = _commutator_witness(ad_x)
    eq1_ok = eq1_witness is None
    # [x, [x, Re_j]] - [x, R[x, e_j]] is column j of A(AR - RA), A = ad_x
    gap = ad_x.compose(ad_x.compose(R) - R.compose(ad_x)).matrix
    eq2_witness = min((j for i in range(a.dim) for j in gap.nonzeros(i)), default=None)
    eq2_ok = eq2_witness is None
    return NijenhuisVerdict(eq1_ok, eq2_ok, eq1_ok and eq2_ok,
                            eq1_witness, eq2_witness)


def nijenhuis_scan(R: Endo):
    """Check all basis vectors, then all pairwise sums e_i + e_j; a heuristic
    search, not a classification (the defining equations are quadratic in x).
    """
    require_modified(R, "nijenhuis_scan")
    a = R.algebra
    basis = a.basis()
    candidates = basis + [vadd(basis[i], basis[j]) for i, j in combinations(range(a.dim), 2)]
    return [(x, _nijenhuis_verdict(R, x)) for x in candidates]


def trivial_deformation(R: Endo, x):
    """Rhat = d x for a Nijenhuis element x, certified trivial.

    Returns (Rhat, DeformationVerdict), valid by check_linear_deformation's
    three defects.  Id + t ad_x intertwines R + t Rhat with R by eq1 (bracket)
    and Rhat = d x (t); its t^2 condition ad_x d x = -ad_x(ad_x R - R ad_x) = 0
    is certified, eq2 again, off the coboundary's lambdas, not matrix products.
    """
    x = tuple(map(ratio, x))
    verdict = _nijenhuis_verdict(R, x)
    if not verdict:
        a = R.algebra
        if not verdict.eq1_ok:
            j, k = verdict.eq1_witness
            raise PreconditionError(
                f"x is not a Nijenhuis element: [[x, {a.basis_names[j]}], "
                f"[x, {a.basis_names[k]}]] != 0")
        raise PreconditionError(
            f"x is not a Nijenhuis element: [x, [x, R "
            f"{a.basis_names[verdict.eq2_witness]}]] != [x, R([x, "
            f"{a.basis_names[verdict.eq2_witness]}])]")
    # check_linear_deformation checks R, so d_apply need not
    rhat = d_apply(R, Cochain.from_vector(R.algebra, x), check=False).to_endo()
    dv = check_linear_deformation(R, rhat)
    certify(dv.valid, "trivial deformation failed the validity check")
    certify(R.algebra.ad(x).compose(rhat).is_zero(),
            "trivial deformation failed the equivalence certificate")
    return rhat, dv


@dataclass
class NijenhuisOperatorReport:
    ok: bool
    failing_pair: tuple | None = None
    value: Vector | None = None

    def __bool__(self):
        return self.ok


def nijenhuis_operator_check(a: LieAlgebra, N: Endo) -> NijenhuisOperatorReport:
    """[Nx, Ny] = N([Nx, y] + [x, Ny]) - N^2([x, y]) on all basis pairs of a.

    The brackets are taken in a (typically an induced algebra (g, [.,.]_R));
    only the matrix of N is used.
    """
    if N.matrix.nrows != a.dim:
        raise InputError("operator does not fit the algebra")
    failing = next(operator_identity(N, N.compose(N), algebra=a), None)
    return NijenhuisOperatorReport(failing is None, *(failing or ()))


@dataclass
class InducedDeformationReport:
    """omega(x,y) = [Rhat x, y] + [x, Rhat y] deforming the induced bracket."""
    omega: Cochain
    jacobi_ok: bool
    failing_triple: tuple | None = None

    def __bool__(self):
        return self.jacobi_ok


def induced_bracket_deformation(R: Endo, Rhat: Endo) -> InducedDeformationReport:
    """omega for a valid deformation, with the polynomial Jacobi family check.

    [.,.]_R + t omega is the induced bracket of R + t Rhat, and its
    Jacobiator is quadratic in t, so it vanishes for every t exactly when it
    vanishes at t = 0, 1 and -1.  failing_triple is the least basis triple
    failing at any of them: the first one, in lexicographic order, on which
    some t-coefficient of the Jacobiator is nonzero.
    """
    require_deformation(R, Rhat, "induced_bracket_deformation")
    omega = Cochain._trusted(R.algebra, 2, induced_bracket_table(Rhat))
    jacobi = [induced_bracket(R + Rhat.scale(t), force=True).verify_jacobi()
              for t in (0, 1, -1)]
    failing = [jac.triple for jac in jacobi if not jac.ok]
    return InducedDeformationReport(omega, not failing, min(failing, default=None))


@dataclass
class CompatibleBracketReport:
    """Sum of two deformed brackets: Jacobi plus the midpoint identity."""
    jacobi_ok: bool
    midpoint_ok: bool
    ok: bool
    failing: tuple | None = None

    def __bool__(self):
        return self.ok


def compatible_bracket_check(R: Endo, Rhat: Endo, t1, t2) -> CompatibleBracketReport:
    """[.,.]_{R_{t1}} + [.,.]_{R_{t2}} is a Lie bracket equal to twice the
    bracket of the midpoint operator R + ((t1+t2)/2) Rhat.

    The induced bracket is linear in the operator, so twice the midpoint's
    bracket is the bracket of 2R + (t1 + t2) Rhat, which is compared with
    the sum: integral R, Rhat, t1 and t2 need no fraction.
    """
    require_deformation(R, Rhat, "compatible_bracket_check")
    a = R.algebra

    def bracket_cochain(P):
        return Cochain._trusted(a, 2, induced_bracket_table(P))

    summed = bracket_cochain(R + Rhat.scale(t1)) + bracket_cochain(R + Rhat.scale(t2))
    candidate = LieAlgebra._from_exact(a.dim, summed.coeffs, a.basis_names)
    jac = candidate.verify_jacobi()

    midpoint_ok = bracket_cochain(R.scale(2) + Rhat.scale(t1 + t2)) == summed

    ok = jac.ok and midpoint_ok
    return CompatibleBracketReport(jac.ok, midpoint_ok, ok,
                                   None if jac.ok else jac.triple)
