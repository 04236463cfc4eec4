"""The graded Lie bracket on alternating cochains and what it governs.

On C* = (+)_{k>=1} Hom(wedge^k g, g) the bracket of f (arity p) and g
(arity q) is the three-sum shuffle formula

    [[f,g]](x_1..x_{p+q}) =
        sum_{S(q,1,p-1)} (-1)^s f([g(x..), x_.], x..)
      - (-1)^{pq} sum_{S(p,1,q-1)} (-1)^s g([f(x..), x_.], x..)
      + (-1)^{pq} sum_{S(p,q)} (-1)^s [f(x..), g(x..)]

with order-preserving block shuffles S(...) and their permutation signs.
Modified r-matrices are exactly the degree-1 solutions of [[R,R]] = 2 pi,
weight-0 Rota-Baxter operators exactly the Maurer-Cartan elements
[[B,B]] = 0, and d_R = [[R, .]] squares to zero.

Sign conventions, validated by the test suite and printed in reports:
graded antisymmetry [[f,g]] = -(-1)^{pq} [[g,f]] and graded Jacobi
(-1)^{pr} [[f,[[g,h]]]] + (-1)^{pq} [[g,[[h,f]]]] + (-1)^{qr} [[h,[[f,g]]]] = 0.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

from .errors import InputError, PreconditionError, certify
from .liealg import Endo, is_zero_vector, vadd, vneg
from .cochain import (Cochain, basis_tuples, coboundary_preimage, is_cocycle,
                      pi_cochain)
from .rmatrix import mcybe_defect, require_modified

GRADED_SIGN_CONVENTION = (
    "[[f,g]] = -(-1)^(pq) [[g,f]];  "
    "(-1)^(pr) [[f,[[g,h]]]] + (-1)^(pq) [[g,[[h,f]]]] + (-1)^(qr) [[h,[[f,g]]]] = 0")


def shuffles_two(total, p):
    """(p, total-p)-shuffles as (first_block, second_block, sign) over positions."""
    positions = range(total)
    for first in combinations(positions, p):
        second = tuple(i for i in positions if i not in first)
        # moving the increasing block first to the front: sum(first) - p(p-1)/2 swaps
        yield first, second, -1 if (sum(first) - p * (p - 1) // 2) % 2 else 1


def shuffles_three(total, a, c):
    """(a, 1, c)-shuffles as (first_block, middle, last_block, sign)."""
    for first, rest, sign in shuffles_two(total, a):
        for idx, mid in enumerate(rest):
            # mid moves from index idx of the second block to its front in idx swaps
            yield first, mid, rest[:idx] + rest[idx + 1:], -sign if idx % 2 else sign


def as_graded(x) -> Cochain:
    """Coerce an Endo or Cochain into a graded element (arity >= 1)."""
    if isinstance(x, Endo):
        return Cochain.from_endo(x)
    if isinstance(x, Cochain):
        if x.arity < 1:
            raise InputError("graded elements have arity >= 1 (C^1 = g is degree 1, "
                             "arity 0, and is not part of the graded algebra)")
        return x
    raise InputError(f"not a graded element: {type(x).__name__}")


def graded_bracket(f, g) -> Cochain:
    """The shuffle-sum bracket; arity p x arity q -> arity p+q."""
    f = as_graded(f)
    g = as_graded(g)
    if f.algebra != g.algebra:
        raise InputError("graded bracket needs cochains over the same algebra")
    a = f.algebra
    n = a.dim
    p, q = f.arity, g.arity
    total = p + q
    sign_pq = -1 if (p * q) % 2 else 1

    def insertions(T, outer, inner, sign):
        """The nonzero terms sign (-1)^s outer([inner(x..), x_mid], x..) of
        the insertion sum over the (arity inner, 1, arity outer - 1)-shuffles s."""
        for first, mid, last, sgn in shuffles_three(total, inner.arity, outer.arity - 1):
            iv = inner.coeffs.get(tuple(T[i] for i in first))
            if iv is None:
                continue
            w = a.bracket(iv, a.basis_vector(T[mid]))
            term = outer.eval_insert(w, tuple(T[i] for i in last))
            if not is_zero_vector(term):
                yield term if sign * sgn > 0 else vneg(term)

    coeffs = {}
    for T in basis_tuples(n, total):
        acc = None
        for term in chain(insertions(T, f, g, 1), insertions(T, g, f, -sign_pq)):
            acc = term if acc is None else vadd(acc, term)
        for first, second, sgn in shuffles_two(total, p):
            fv = f.coeffs.get(tuple(T[i] for i in first))
            if fv is None:
                continue
            gv = g.coeffs.get(tuple(T[i] for i in second))
            if gv is None:
                continue
            term = a.bracket(fv, gv)
            if is_zero_vector(term):
                continue
            s = sign_pq * sgn
            if s < 0:
                term = tuple(-x for x in term)
            acc = term if acc is None else vadd(acc, term)
        if acc is not None and not is_zero_vector(acc):
            coeffs[T] = acc
    return Cochain(a, total, coeffs)


def d_graded(R, f) -> Cochain:
    """d_R f = [[R, f]], the differential of the deformation complex."""
    return graded_bracket(as_graded(R), as_graded(f))


def is_maurer_cartan_weight0(f) -> bool:
    """[[f, f]] = 0, i.e. f is a weight-0 Rota-Baxter operator."""
    f = as_graded(f)
    return graded_bracket(f, f).is_zero()


def satisfies_mc_modified(R) -> bool:
    """[[R, R]] = 2 pi, i.e. R is a modified r-matrix."""
    R = as_graded(R)
    return graded_bracket(R, R) == pi_cochain(R.algebra).scale(2)


def mc_deformation_check(R: Endo, Rp: Endo) -> bool:
    """Whether R + Rp is again a modified r-matrix, as a Maurer-Cartan test.

    Tests d_R Rp + (1/2)[[Rp, Rp]] = 0 and cross-validates against the
    direct defect of R + Rp; the two routes must agree.
    """
    require_modified(R, "mc_deformation_check")
    rp = as_graded(Rp)
    mc = graded_bracket(as_graded(R), rp) + graded_bracket(rp, rp).scale(Fraction(1, 2))
    via_mc = mc.is_zero()
    via_defect = mcybe_defect(R + Rp).is_zero
    certify(via_mc == via_defect, "Maurer-Cartan and defect routes disagree")
    return via_mc


@dataclass
class KuranishiReport:
    """[[f, f]] for a 2-cocycle f, with its class in degree-3 cohomology.

    vanishes_in_H3 says whether [[f, f]] is a coboundary; witness is an
    explicit primitive g with d g = [[f, f]] when one exists, making the
    vanishing certificate independently checkable.
    """
    ff: Cochain
    is_cocycle: bool
    vanishes_in_H3: bool
    witness: Cochain | None

    def __bool__(self):
        return self.vanishes_in_H3


def kuranishi(R: Endo, f) -> KuranishiReport:
    """Obstruction class of a 2-cocycle f: the class of [[f, f]] in H^3."""
    fc = as_graded(f)
    if fc.arity != 1:
        raise InputError("kuranishi expects a degree-2 cochain (arity 1)")
    # is_cocycle also requires R to be a modified r-matrix
    if not is_cocycle(R, fc):
        raise PreconditionError("kuranishi needs f in Z^2: d f != 0")
    ff = graded_bracket(fc, fc)
    closed = is_cocycle(R, ff)
    witness = coboundary_preimage(R, ff)
    return KuranishiReport(ff, closed, witness is not None, witness)
