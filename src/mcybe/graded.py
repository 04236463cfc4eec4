"""The graded Lie bracket on alternating cochains and what it governs.

On C* = (+)_{k>=1} Hom(wedge^k g, g) the bracket of f (arity p) and g
(arity q) is the three-sum shuffle formula

    [[f,g]](x_1..x_{p+q}) =
        sum_{S(q,1,p-1)} (-1)^s f([g(x..), x_.], x..)
      - (-1)^{pq} sum_{S(p,1,q-1)} (-1)^s g([f(x..), x_.], x..)
      + (-1)^{pq} sum_{S(p,q)} (-1)^s [f(x..), g(x..)]

with order-preserving block shuffles S(...) and their permutation signs.
It is evaluated on each basis tuple x_1 < .. < x_{p+q} in turn, with the
shuffles enumerated once per call.  Each value of f and g is read once as
its nonzero (index, value) pairs, the brackets [g(e..), e_m] and
[f(e..), g(e..)] come from liealg._sparse_bracket off the structure table,
an inserted vector is expanded over its support only, and every term of
one tuple is summed into one dense list that Cochain._trusted makes exact.
For equal operands at odd arity p, graded antisymmetry makes the two
insertion sums of [[f, f]] one, and a product shuffle and its swap give one
term, so one insertion list and the product shuffles whose first block
holds position 0 are read, each term twice; at even p the general path
runs.  kuranishi, mc_deformation_check and the graded-bracket command with
one file twice all read [[f, f]] so.

Modified r-matrices are exactly the degree-1 solutions of [[R,R]] = 2 pi,
weight-0 Rota-Baxter operators exactly the Maurer-Cartan elements
[[B,B]] = 0, and d_R = [[R, .]] squares to zero.  R + R' is again a
modified r-matrix exactly when 2 [[R, R']] + [[R', R']] = 0, which
mc_deformation_check tests with no halving.

Sign conventions, validated by the test suite and printed in reports:
graded antisymmetry [[f,g]] = -(-1)^{pq} [[g,f]] and graded Jacobi
(-1)^{pr} [[f,[[g,h]]]] + (-1)^{pq} [[g,[[h,f]]]] + (-1)^{qr} [[h,[[f,g]]]] = 0.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, PreconditionError, certify
from .liealg import Endo, _sparse_bracket
from .cochain import (FLAVOR_R, Cochain, _complex, basis_tuples, coboundary_preimage,
                      insert_sorted, is_cocycle, pi_cochain)
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
    p, q = f.arity, g.arity
    total = p + q
    sign_pq = -1 if (p * q) % 2 else 1
    # each value read once, as its nonzero (index, value) pairs
    fs, gs = ({key: tuple((k, x) for k, x in enumerate(vec) if x)
               for key, vec in h.coeffs.items()} for h in (f, g))
    if p % 2 and p == q and f.coeffs == g.coeffs:
        # [[f, f]] at odd p: its two insertion sums are one, and a product
        # shuffle and its swap give one term, so each is taken twice
        insertions = [(fs, fs, 2, list(shuffles_three(total, p, p - 1)))]
        products = [(first, second, -2 * sgn)
                    for first, second, sgn in shuffles_two(total, p) if first[0] == 0]
    else:
        # outer([inner(x..), x_mid], x..) over the (arity inner, 1, arity outer - 1)-shuffles
        insertions = [(fs, gs, 1, list(shuffles_three(total, q, p - 1))),
                      (gs, fs, -sign_pq, list(shuffles_three(total, p, q - 1)))]
        products = [(first, second, sign_pq * sgn)
                    for first, second, sgn in shuffles_two(total, p)]

    coeffs = {}
    for T in basis_tuples(a.dim, total):
        acc = [0] * a.dim
        for outer, inner, sign, shuffles in insertions:
            for first, mid, last, sgn in shuffles:
                iv = inner.get(tuple([T[i] for i in first]))
                if iv is None:
                    continue
                rest = tuple([T[i] for i in last])
                # outer(w, x..) for w = [iv, e_mid], with w expanded over the basis
                for s, w in _sparse_bracket(a, iv, ((T[mid], 1),)).items():
                    if w and (ins := insert_sorted(rest, s)) and (ov := outer.get(ins[1])):
                        c = sign * sgn * ins[0] * w
                        for k, v in ov:
                            acc[k] += c * v
        for first, second, sign in products:
            fv = fs.get(tuple([T[i] for i in first]))
            gv = fv and gs.get(tuple([T[i] for i in second]))
            if gv:
                for k, v in _sparse_bracket(a, fv, gv).items():
                    acc[k] += sign * v
        if any(acc):
            coeffs[T] = acc
    # the trusted path makes each entry exact, once, and checks nothing
    return Cochain._trusted(a, total, coeffs)


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

    Tests 2 d_R Rp + [[Rp, Rp]] = 0, twice d_R Rp + (1/2)[[Rp, Rp]] = 0, so
    an integral Rp needs no fraction, and cross-validates against the direct
    defect of R + Rp; the two routes must agree.
    """
    require_modified(R, "mc_deformation_check")
    rp = as_graded(Rp)
    via_mc = (graded_bracket(as_graded(R), rp).scale(2) + graded_bracket(rp, rp)).is_zero()
    via_defect = mcybe_defect(R + Rp).is_zero
    certify(via_mc == via_defect, "Maurer-Cartan and defect routes disagree")
    return via_mc


@dataclass
class KuranishiReport:
    """[[f, f]] for a 2-cocycle f, with its class in degree-3 cohomology.

    is_cocycle is certified, so always True; vanishes_in_H3 says whether
    [[f, f]] is a coboundary; witness is an explicit primitive g with
    d g = [[f, f]] when one exists, making the vanishing certificate
    independently checkable.
    """
    ff: Cochain
    is_cocycle: bool
    vanishes_in_H3: bool
    witness: Cochain | None

    def __bool__(self):
        return self.vanishes_in_H3


def kuranishi(R: Endo, f) -> KuranishiReport:
    """Obstruction class of a 2-cocycle f: the class of [[f, f]] in H^3.

    [[f, f]] is closed for every f in Z^2, since d_R = [[R, .]] is a
    derivation by graded Jacobi: d_R [[f, f]] = 0 checks graded_bracket
    against d_apply, and is certified.
    """
    fc = as_graded(f)
    if fc.arity != 1:
        raise InputError("kuranishi expects a degree-2 cochain (arity 1)")
    # one complex, which refuses an R that is not a modified r-matrix,
    # serves both cocycle tests and the preimage
    side = _complex(R, FLAVOR_R, fc.arity)
    if not is_cocycle(side, fc):
        raise PreconditionError("kuranishi needs f in Z^2: d f != 0")
    ff = graded_bracket(fc, fc)
    certify(is_cocycle(side, ff), "[[f, f]] of a 2-cocycle is not a cocycle")
    witness = coboundary_preimage(side, ff)
    return KuranishiReport(ff, True, witness is not None, witness)
