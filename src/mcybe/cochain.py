"""Alternating cochains and the coboundary complexes of an r-matrix.

Indexing convention, printed in every report: a cochain of arity k is an
alternating map wedge^k g -> g and sits in cohomological degree k + 1.
The complex has C^0 = 0 and C^1 = g, so B^1 = 0 by convention.

Two flavors of coboundary are assembled from one shared sign routine:
the R-complex of a modified r-matrix, built from

    lambda_u(v) = [Ru, v] - R([u, v])        (single-argument terms, rho(R, u))
    mu(u, w)    = [Ru, w] + [u, Rw]          (pair terms, the bracket [.,.]_R)

and the B-complex of a weight-1 Rota-Baxter operator, built from the same
shapes with B in place of R and [u, w] added to the pair term.  The
R-complex matrix is exactly twice the B-complex matrix when R = Id + 2B.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb

from .errors import InputError, PreconditionError, certify
from .liealg import (Endo, LieAlgebra, Vector, induced_bracket_table, is_zero_vector,
                     rho, vadd, vector_from_json, vector_to_json, vzero)
from .linalg import Matrix, _exact, json_array, rank_mod_p, ratio

FLAVOR_R = "R-complex"
FLAVOR_B = "B-complex"


def _canon_flavor(flavor) -> str:
    if flavor in ("R", FLAVOR_R):
        return FLAVOR_R
    if flavor in ("B", FLAVOR_B):
        return FLAVOR_B
    raise InputError(f"unknown flavor {flavor!r}; use 'R' or 'B'")


@cache
def basis_tuples(n, k) -> tuple:
    """Sorted k-tuples of basis indices, in lexicographic order."""
    return tuple(combinations(range(n), k))


def cochain_space_dim(n, arity) -> int:
    return comb(n, arity) * n


def insert_sorted(tup, s):
    """Sort s into a strictly increasing tuple.

    Returns (sign, new_tuple) where sign counts the transpositions moving
    s from the front into place, or None when s already occurs.
    """
    pos = bisect_left(tup, s)
    if pos < len(tup) and tup[pos] == s:
        return None
    return (-1 if pos % 2 else 1, tup[:pos] + (s,) + tup[pos:])


class Cochain:
    """Alternating multilinear map wedge^arity g -> g on sorted basis tuples.

    coeffs maps each strictly increasing index tuple to the value vector;
    omitted tuples mean zero.  Arity 0 is a single vector (key ()), arity 1
    is an endomorphism.
    """

    __slots__ = ("algebra", "arity", "coeffs")

    def __init__(self, algebra: LieAlgebra, arity: int, coeffs=None):
        if arity < 0:
            raise InputError("negative cochain arity")
        self.algebra = algebra
        self.arity = arity
        table = {}
        n = algebra.dim
        for key, value in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != arity:
                raise InputError(f"tuple {key} has length != arity {arity}")
            if any(not 0 <= t < n for t in key) or any(
                    key[i] >= key[i + 1] for i in range(len(key) - 1)):
                raise InputError(f"tuple {key} is not strictly increasing in range")
            vec = tuple(ratio(x) for x in value)
            if len(vec) != n:
                raise InputError(f"value for {key} has length {len(vec)} != dim {n}")
            if not is_zero_vector(vec):
                table[key] = vec
        self.coeffs = table

    # -- constructors / converters -------------------------------------

    @classmethod
    def zero(cls, algebra, arity):
        return cls(algebra, arity, {})

    @classmethod
    def from_vector(cls, algebra, vec):
        return cls(algebra, 0, {(): tuple(vec)})

    def to_vector(self) -> Vector:
        if self.arity != 0:
            raise InputError(f"arity-{self.arity} cochain is not a vector")
        return self.coeffs.get((), vzero(self.algebra.dim))

    @classmethod
    def from_endo(cls, endo: Endo):
        columns = endo.matrix.transpose()
        return cls(endo.algebra, 1, {(j,): columns.row(j) for j in range(columns.nrows)})

    def to_endo(self) -> Endo:
        if self.arity != 1:
            raise InputError(f"arity-{self.arity} cochain is not an endomorphism")
        n = self.algebra.dim
        cols = [self.coeffs.get((j,), vzero(n)) for j in range(n)]
        return Endo(Matrix.from_columns(cols, nrows=n), self.algebra)

    # -- basic structure -------------------------------------------------

    def get(self, tup) -> Vector:
        return self.coeffs.get(tuple(tup), vzero(self.algebra.dim))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.arity == other.arity and self.algebra == other.algebra
                and self.coeffs == other.coeffs)

    __hash__ = None

    def __repr__(self):
        return f"Cochain(arity={self.arity}, support={len(self.coeffs)})"

    def __add__(self, other):
        self._conform(other)
        keys = set(self.coeffs) | set(other.coeffs)
        return Cochain(self.algebra, self.arity,
                       {k: vadd(self.get(k), other.get(k)) for k in keys})

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = ratio(c)
        return Cochain(self.algebra, self.arity,
                       {k: tuple(c * x for x in v) for k, v in self.coeffs.items()})

    def _conform(self, other):
        if not isinstance(other, Cochain) or other.arity != self.arity \
                or other.algebra != self.algebra:
            raise InputError("cochain mismatch (arity or algebra)")

    # -- evaluation --------------------------------------------------------

    def eval(self, args) -> Vector:
        """Alternating multilinear extension on arbitrary vectors.

        The coefficient of f(e_T) is the minor det(args_i[T_j]).
        """
        args = [tuple(x) for x in args]
        if len(args) != self.arity:
            raise InputError(f"eval needs {self.arity} arguments, got {len(args)}")
        n = self.algebra.dim
        for x in args:
            if len(x) != n:
                raise InputError("eval argument has wrong length")
        if self.arity == 0:
            return self.get(())
        acc = [0] * n
        for tup, vec in self.coeffs.items():
            minor = Matrix([[x[t] for t in tup] for x in args]).det()
            if minor:
                for m, v in enumerate(vec):
                    if v:
                        acc[m] += minor * v
        return tuple(_exact(x) for x in acc)

    def eval_insert(self, vec, rest) -> Vector:
        """f(v, e_{rest_1}, ..., e_{rest_(k-1)}) with v expanded over the basis."""
        rest = tuple(rest)
        n = self.algebra.dim
        acc = None
        for s, c in enumerate(vec):
            if not c:
                continue
            ins = insert_sorted(rest, s)
            if ins is None:
                continue
            sign, key = ins
            stored = self.coeffs.get(key)
            if stored is None:
                continue
            term = tuple(sign * c * x for x in stored)
            acc = term if acc is None else vadd(acc, term)
        return acc if acc is not None else vzero(n)

    # -- coefficient vectors (basis: tuples lex, then target index) --------

    def to_coeff_vector(self):
        tuples = basis_tuples(self.algebra.dim, self.arity)
        return [x for tup in tuples for x in self.get(tup)]

    @classmethod
    def from_sparse(cls, algebra, arity, entries):
        """The cochain with coefficient x at each index i of {i: x}: entry
        i % n of its value on basis_tuples(n, arity)[i // n]; others are 0."""
        n = algebra.dim
        tuples = basis_tuples(n, arity)
        blocks = {}
        for i, x in entries.items():
            if not 0 <= i < len(tuples) * n:
                raise InputError(f"coefficient index {i} out of range")
            blocks.setdefault(tuples[i // n], [0] * n)[i % n] = x
        return cls(algebra, arity, blocks)

    @classmethod
    def from_coeff_vector(cls, algebra, arity, values):
        values = list(values)
        size = cochain_space_dim(algebra.dim, arity)
        if len(values) != size:
            raise InputError(f"coefficient vector length {len(values)} != {size}")
        # int zeros are skipped; every other entry meets ratio(), which refuses 0.0
        return cls.from_sparse(algebra, arity, {i: x for i, x in enumerate(values)
                                                if x or type(x) is not int})

    # -- JSON ----------------------------------------------------------------

    def to_json_dict(self):
        return {
            "degree": self.arity,
            "entries": [
                {"tuple": list(tup), "value": vector_to_json(vec)}
                for tup, vec in sorted(self.coeffs.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data, algebra):
        try:
            arity = data["degree"]
            entries = data.get("entries", [])
        except (TypeError, KeyError) as exc:
            raise InputError(f"bad cochain JSON: {exc}") from exc
        if type(arity) is not int:
            raise InputError(f"cochain degree must be an integer, got {arity!r}")
        coeffs = {}
        for entry in json_array(entries, "cochain entries"):
            try:
                tup = tuple(json_array(entry["tuple"], "cochain tuple"))
                value = entry["value"]
            except (TypeError, KeyError) as exc:
                raise InputError(f"bad cochain entry {entry!r}") from exc
            if not all(type(t) is int for t in tup):
                raise InputError(f"cochain tuple {list(tup)} needs integer indices")
            if tup in coeffs:
                raise InputError(f"duplicate cochain entry for {tup}")
            coeffs[tup] = vector_from_json(value, algebra.dim)
        return cls(algebra, arity, coeffs)


def pi_cochain(algebra: LieAlgebra) -> Cochain:
    """The Lie bracket of the algebra as an arity-2 cochain."""
    return Cochain(algebra, 2, dict(algebra.structure))


# -- coboundary operators ----------------------------------------------------


def _pair_brackets(P: Endo, flavor):
    """mu(a, b) = [Pa, b] + [a, Pb], plus [a, b] in the B-complex.

    By linearity the B-complex term is half the induced table of
    Id + 2P, which keeps the brackets integral for B = (R - Id)/2 with R
    integral; P + Id/2 would put fractions into every one of them.
    """
    if flavor == FLAVOR_R:
        return induced_bracket_table(P)
    doubled = induced_bracket_table(Endo.identity(P.algebra) + P.scale(2))
    return {key: tuple(ratio(Fraction(x, 2)) for x in w) for key, w in doubled.items()}


def _check_flavor_axiom(P: Endo, flavor):
    from . import rmatrix   # here, not at the top: rmatrix imports this module
    if flavor == FLAVOR_R:
        rmatrix.require_modified(P, "the R-complex coboundary")
    else:
        report = rmatrix.is_rota_baxter(P, 1)
        if not report.ok:
            i, j = report.failing_pair
            names = P.algebra.basis_names
            raise PreconditionError(
                f"the B-complex coboundary needs a weight-1 Rota-Baxter operator; "
                f"axiom fails on ({names[i]}, {names[j]})")


@dataclass
class CoboundaryMatrix:
    """Matrix of the coboundary from cohomological degree k+1 to k+2.

    Rows and columns run over pairs (sorted tuple, target index), tuples in
    lexicographic order, target index fastest.
    """
    from_degree: int
    to_degree: int
    matrix: Matrix
    flavor: str


def coboundary_matrix(P: Endo, k: int, flavor="R", check=True) -> CoboundaryMatrix:
    """Matrix of the coboundary on arity-k cochains (degree k+1 -> k+2).

    For k = 0 the domain is g itself and (d x)(y) = [Ry, x] - R([y, x]).
    Rows are assembled as sparse dicts, block by block of n rows per
    (k+1)-tuple; no dense rows x cols table is built.
    """
    flavor = _canon_flavor(flavor)
    a = P.algebra
    n = a.dim
    if not 0 <= k <= n:
        raise InputError(f"arity k={k} out of range 0..{n}")
    if check:
        _check_flavor_axiom(P, flavor)

    col_base = {tup: i * n for i, tup in enumerate(basis_tuples(n, k))}
    lambdas = [[m.nonzeros(i).items() for i in range(n)]
               for m in (rho(P, e).matrix for e in a.basis())]
    mus = _pair_brackets(P, flavor) if k else {}    # no pair terms at k = 0

    rows = []
    for T in basis_tuples(n, k + 1):
        block = [{} for _ in range(n)]
        for pos in range(k + 1):
            sgn = -1 if pos % 2 else 1
            base = col_base[T[:pos] + T[pos + 1:]]
            for out, lrow in zip(block, lambdas[T[pos]]):
                for c, v in lrow:
                    out[base + c] = out.get(base + c, 0) + sgn * v
        for p1 in range(k + 1):
            for p2 in range(p1 + 1, k + 1):
                w = mus.get((T[p1], T[p2]))
                if w is None:
                    continue
                sgn2 = -1 if (p1 + p2) % 2 else 1
                rest = tuple(t for idx, t in enumerate(T) if idx not in (p1, p2))
                for s, ws in enumerate(w):
                    if not ws:
                        continue
                    ins = insert_sorted(rest, s)
                    if ins is None:
                        continue
                    isgn, key = ins
                    base = col_base[key]
                    coeff = sgn2 * isgn * ws
                    for m, out in enumerate(block):
                        out[base + m] = out.get(base + m, 0) + coeff
        rows.extend({j: ratio(x) for j, x in out.items() if x} for out in block)
    return CoboundaryMatrix(k + 1, k + 2, Matrix.from_sparse(rows, len(col_base) * n),
                            flavor)


def d_apply(P: Endo, f: Cochain, flavor="R", check=True) -> Cochain:
    """Apply the coboundary to a single cochain without assembling the matrix."""
    flavor = _canon_flavor(flavor)
    a = P.algebra
    n = a.dim
    k = f.arity
    if check:
        _check_flavor_axiom(P, flavor)

    lambdas = [rho(P, e) for e in a.basis()]
    mus = _pair_brackets(P, flavor) if k else {}    # no pair terms at k = 0

    coeffs = {}
    for T in basis_tuples(n, k + 1):
        acc = None
        for pos in range(k + 1):
            sub = T[:pos] + T[pos + 1:]
            fv = f.coeffs.get(sub)
            if fv is None:
                continue
            term = lambdas[T[pos]].apply(fv)
            if pos % 2:
                term = tuple(-x for x in term)
            acc = term if acc is None else vadd(acc, term)
        for p1 in range(k + 1):
            for p2 in range(p1 + 1, k + 1):
                w = mus.get((T[p1], T[p2]))
                if w is None:
                    continue
                rest = tuple(t for idx, t in enumerate(T) if idx not in (p1, p2))
                term = f.eval_insert(w, rest)
                if is_zero_vector(term):
                    continue
                if (p1 + p2) % 2:
                    term = tuple(-x for x in term)
                acc = term if acc is None else vadd(acc, term)
        if acc is not None and not is_zero_vector(acc):
            coeffs[T] = acc
    return Cochain(a, k + 1, coeffs)


def is_cocycle(P: Endo, f: Cochain, flavor="R") -> bool:
    """d f = 0, by d_apply on f alone: no coboundary matrix is assembled."""
    if f.arity > P.algebra.dim:     # as coboundary_matrix would refuse it
        raise InputError(f"arity k={f.arity} out of range 0..{P.algebra.dim}")
    return d_apply(P, f, flavor=flavor).is_zero()


def coboundary_preimage(P: Endo, f: Cochain, flavor="R"):
    """Some g with d g = f, or None when f is not a coboundary."""
    if f.arity == 0:
        raise InputError("degree-1 cochains have no preimage space (C^0 = 0)")
    cb = coboundary_matrix(P, f.arity - 1, flavor=flavor)
    x = cb.matrix.solve(f.to_coeff_vector())
    if x is None:
        return None
    return Cochain.from_coeff_vector(P.algebra, f.arity - 1, x)


# -- cohomology ----------------------------------------------------------------

CONVENTIONS = (
    "cochain arity k = cohomological degree k+1; C^0 = 0 and C^1 = g, so B^1 = 0; "
    "cochain bases ordered by (sorted tuple lex, target index)")


@dataclass
class DegreeReport:
    degree: int
    arity: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_cohomology: int
    cocycle_witnesses: list = field(default_factory=list)
    coboundary_witnesses: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "degree": self.degree,
            "arity": self.arity,
            "dim_cochains": self.dim_cochains,
            "dim_cocycles": self.dim_cocycles,
            "dim_coboundaries": self.dim_coboundaries,
            "dim_cohomology": self.dim_cohomology,
            "cocycle_witnesses": [w.to_json_dict() for w in self.cocycle_witnesses],
            "coboundary_witnesses": [
                {"image": img.to_json_dict(), "preimage": pre.to_json_dict()}
                for pre, img in self.coboundary_witnesses
            ],
        }


@dataclass
class CohomologyReport:
    flavor: str
    max_degree: int
    degrees: dict
    conventions: str = CONVENTIONS

    def dim_h(self, degree) -> int:
        return self.degrees[degree].dim_cohomology

    def to_json_dict(self):
        return {
            "flavor": self.flavor,
            "max_degree": self.max_degree,
            "conventions": self.conventions,
            "degrees": {str(d): r.to_json_dict() for d, r in sorted(self.degrees.items())},
        }


def cohomology(P: Endo, max_degree=3, flavor="R", witnesses=True) -> CohomologyReport:
    """Per-degree dimensions of cochains, cocycles, coboundaries, cohomology.

    Witness bases: cocycle witnesses are an echelon-normalized kernel basis;
    each coboundary witness carries an explicit preimage basis cochain.
    Degrees whose cochain space vanishes (arity > dim) are reported as zero.
    """
    flavor = _canon_flavor(flavor)
    if max_degree < 1:
        raise InputError("max_degree must be >= 1")
    _check_flavor_axiom(P, flavor)
    a = P.algebra
    n = a.dim

    # one walk over the degrees: the outgoing matrix of degree m (arity m-1)
    # is eliminated once (Matrix caches it); its kernel gives the cocycles
    # at degree m, and as the incoming matrix of degree m+1 its pivots give
    # the coboundaries there.  The certificate, independent of witnesses:
    # rank mod p plus the nullity of the exactly verified kernel is dim C,
    # so both ranks are exact
    degrees = {}
    inc = inc_rank_p = None
    for degree in range(1, max_degree + 1):
        arity = degree - 1
        dim_c = cochain_space_dim(n, arity) if arity <= n else 0
        if dim_c == 0:
            degrees[degree] = DegreeReport(degree, arity, 0, 0, 0, 0)
            continue
        out = coboundary_matrix(P, arity, flavor=flavor, check=False).matrix
        kernel = out.null_space()
        dim_z = kernel.nrows
        certify(out.rank() + dim_z == dim_c, "rank + nullity != cochain dimension")
        # integral copies vanish together with out @ kernel^T, in int arithmetic
        certify((out.clear_denominators() @ kernel.clear_denominators().transpose())
                .is_zero(), "kernel vector is not a cocycle")
        rank_p = rank_mod_p(out)
        certify(rank_p + dim_z == dim_c, "rank mod p + nullity != cochain dimension")
        z_witnesses = []
        if witnesses:
            z_witnesses = [Cochain.from_sparse(a, arity, kernel.nonzeros(i))
                           for i in range(dim_z)]
        b_witnesses = []
        if degree == 1:
            dim_b = 0
        else:
            pivots = inc.pivot_columns()
            dim_b = len(pivots)
            certify(dim_b == inc_rank_p, "echelon pivots and rank mod p disagree")
            if witnesses:
                images = inc.transpose()    # its row col is d of basis cochain col
                b_witnesses = [(Cochain.from_sparse(a, arity - 1, {col: 1}),
                                Cochain.from_sparse(a, arity, images.nonzeros(col)))
                               for col in pivots]
        dim_h = dim_z - dim_b
        certify(dim_h >= 0, "more coboundaries than cocycles")
        degrees[degree] = DegreeReport(degree, arity, dim_c, dim_z, dim_b, dim_h,
                                       z_witnesses, b_witnesses)
        inc, inc_rank_p = out, rank_p
    return CohomologyReport(flavor, max_degree, degrees)
