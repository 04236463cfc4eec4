"""Alternating cochains and the coboundary complexes of an r-matrix.

Indexing convention, printed in every report: a cochain of arity k is an
alternating map wedge^k g -> g and sits in cohomological degree k + 1.
The complex has C^0 = 0 and C^1 = g, so B^1 = 0 by convention.

Both flavors of coboundary come from one operator side.  The R-complex
of a modified r-matrix R is built from

    lambda_u(v) = [Ru, v] - R([u, v])        (single-argument terms, rho(R, u))
    mu(u, w)    = [Ru, w] + [u, Rw]          (pair terms, the bracket [.,.]_R)

lambda by liealg from R alone, mu off the image table [Re_i, e_j].  The
B-complex of a weight-1 Rota-Baxter operator B is half the R-complex of
Id + 2B (its terms put B for R and add [u, w] to mu).

Both are linear in R, so t d is the coboundary built from t R, with d's
ranks, kernels and pivots.  The complex is built from t R, t the lcm of
R's denominators times the algebra's table denominator, so lambda, mu and
the matrix hold ints, and the matrix is eliminated as it is assembled.
scale = 1/t, or 1/(2t) in the B-complex, makes the true values only where
they leave a call: CoboundaryMatrix.matrix, d_apply's output and the
coboundary witness images.

lambda_u is stored as the nonzero rows of rho(t R, e_u).  The coboundary
is walked by source: one sorted k-tuple S at a time, it yields every term
of d that reads f(e_S).  A face term sends f(e_S) through lambda_u to
T = S + {u}, one T per u, so in the matrix the rows of T on S's column
block are a copy of lambda_u's nonzero rows (at arity 0, those rows
themselves); a mu term reaches each T = (S - {s}) + {u, w} where mu(u, w)
has a nonzero e_s component, and these are summed per T and added once
on the diagonal of that block.  d_apply walks only the support of its
cochain, coboundary_matrix every source block.

The precondition is read off lambda, as t^2 S(R): S(R), the modified
Yang-Baxter defect, must vanish on every basis pair.  For R = Id + 2B,
S(R) is 4 times the weight-1 Rota-Baxter defect of B, so both flavors
refuse the first pair where their own axiom fails.

Values are checked once, where they enter: Cochain(...) (so from_json_dict)
checks every key and entry, from_sparse every index.  What the package
computes itself (d_apply, graded_bracket, scale, +, from_endo, the defect
and bracket tables) takes Cochain._trusted, which only makes entries
exact; all three drop zero values in one place.  A zero f has the zero
preimage once the arity and precondition are checked, with no matrix.

A private complex object holds this side for one library call.  As it is
made, it builds every lambda_u and checks the precondition off them; the
image table and mu, indexed by the basis vector e_s it reaches, are built
only when a source of arity >= 1 first reads mu, so an arity-0 coboundary
builds no image table.  cohomology and graded.kuranishi each make one and
pass it to coboundary_matrix, d_apply, is_cocycle and coboundary_preimage
in place of P, so one call builds one side.  Nothing of it outlives the
call: no operator, algebra or matrix keeps a reference to it.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from math import comb, lcm

from .errors import InputError, PreconditionError, certify
from .liealg import (Endo, LieAlgebra, Vector, _images, _induced, _lambdas,
                     _modified_defect, vadd, vector_from_json, vector_str,
                     vector_to_json, vzero)
from .linalg import (Matrix, _exact, _quotient, certified_rank, json_array, json_object,
                     ratio)

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
    if type(arity) is not int:
        raise InputError(f"cochain arity must be an integer, got {arity!r}")
    if arity < 0:
        raise InputError("negative cochain arity")
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
        cochain_space_dim(algebra.dim, arity)    # refuses a bad arity
        checked = {}
        n = algebra.dim
        for key, value in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != arity:
                raise InputError(f"tuple {key} has length != arity {arity}")
            if any(not 0 <= t < n for t in key) or any(
                    key[i] >= key[i + 1] for i in range(len(key) - 1)):
                raise InputError(f"tuple {key} is not strictly increasing in range")
            checked[key] = vec = tuple(map(ratio, value))
            if len(vec) != n:
                raise InputError(f"value for {key} has length {len(vec)} != dim {n}")
        self._fill(algebra, arity, checked)

    def _fill(self, algebra, arity, coeffs):
        """self with the exact values coeffs, each as a tuple; zero ones are dropped."""
        self.algebra, self.arity = algebra, arity
        self.coeffs = {key: tuple(vec) for key, vec in coeffs.items() if any(vec)}
        return self

    @classmethod
    def _trusted(cls, algebra, arity, coeffs):
        """coeffs unchecked: keys sorted arity-tuples in range, values dim rationals."""
        return cls.__new__(cls)._fill(algebra, arity, {key: tuple(map(_exact, value))
                                                       for key, value in coeffs.items()})

    # -- constructors / converters -------------------------------------

    @classmethod
    def zero(cls, algebra, arity):
        return cls(algebra, arity, {})

    @classmethod
    def from_vector(cls, algebra, vec):
        return cls(algebra, 0, {(): tuple(vec)})

    @classmethod
    def from_endo(cls, endo: Endo):
        columns = endo.matrix.transpose()
        return cls._trusted(endo.algebra, 1, {(j,): columns.row(j) for j in range(columns.nrows)})

    def to_endo(self) -> Endo:
        if self.arity != 1:
            raise InputError(f"arity-{self.arity} cochain is not an endomorphism")
        # the values are exact, so the value at (j,) is taken as column j as it is
        columns = [self.get((j,)) for j in range(self.algebra.dim)]
        return Endo(Matrix._exact_rows(columns).transpose(), self.algebra)

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
        return Cochain._trusted(self.algebra, self.arity,
                                {k: vadd(self.get(k), other.get(k)) for k in keys})

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = ratio(c)
        return Cochain._trusted(self.algebra, self.arity,
                                {k: [c * x for x in v] for k, v in self.coeffs.items()})

    def _conform(self, other):
        if not isinstance(other, Cochain) or other.arity != self.arity \
                or other.algebra != self.algebra:
            raise InputError("cochain mismatch (arity or algebra)")

    # -- coefficient vectors (basis: tuples lex, then target index) --------

    def to_coeff_vector(self):
        tuples = basis_tuples(self.algebra.dim, self.arity)
        return [x for tup in tuples for x in self.get(tup)]

    @classmethod
    def from_sparse(cls, algebra, arity, entries):
        """The cochain with coefficient x at each index i of {i: x}: entry
        i % n of its value on basis_tuples(n, arity)[i // n]; others are 0.

        Each index is range-checked and each entry passed through ratio; the
        keys come from basis_tuples, so __init__'s checks of them are skipped.
        """
        n = algebra.dim
        size = cochain_space_dim(n, arity)
        tuples = basis_tuples(n, arity)
        blocks = {}
        for i, x in entries.items():
            if not 0 <= i < size:
                raise InputError(f"coefficient index {i} out of range")
            blocks.setdefault(tuples[i // n], [0] * n)[i % n] = ratio(x)
        return cls.__new__(cls)._fill(algebra, arity, blocks)

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
        arity, entries = json_object(data, "cochain JSON", ("degree",), {"entries": []})
        if type(arity) is not int:
            raise InputError(f"cochain degree must be an integer, got {arity!r}")
        coeffs = {}
        for entry in json_array(entries, "cochain entries"):
            tup, value = json_object(entry, "cochain entry", ("tuple", "value"))
            tup = tuple(json_array(tup, "cochain tuple"))
            if not all(type(t) is int for t in tup):
                raise InputError(f"cochain tuple {list(tup)} needs integer indices")
            if tup in coeffs:
                raise InputError(f"duplicate cochain entry for {tup}")
            coeffs[tup] = vector_from_json(value, algebra.dim)
        return cls(algebra, arity, coeffs)


def pi_cochain(algebra: LieAlgebra) -> Cochain:
    """The Lie bracket of the algebra as an arity-2 cochain."""
    return Cochain._trusted(algebra, 2, algebra.structure)


# -- coboundary operators ----------------------------------------------------


def _not_modified(a: LieAlgebra, pair, value, what) -> PreconditionError:
    """The error for an operator R with S(R) = value != 0 on the basis pair."""
    x, y = (a.basis_names[i] for i in pair)
    return PreconditionError(
        f"{what} needs a modified r-matrix, but S(R)({x}, {y}) = {vector_str(value)}")


class _Complex(Endo):
    """P with the operator side of its coboundary complex, built for one
    library call and dropped with it.

    It holds operator = t R, for R = P, or Id + 2P in the B-complex, and t
    the lcm of R's denominators times the table denominator of the algebra,
    so that every entry of lambda and mu is an int; scale is 1/t, or 1/(2t)
    in the B-complex, and the coboundary of P is scale times the one built
    off them.  lambdas[u] holds the nonzero rows of rho(t R, e_u) as {m: {j:
    nonzero int}}.  mu_index, mu_index[s] = [(u, w, x)] over the pairs u < w
    whose [e_u, e_w]_(t R) has e_s component x != 0, is made off the image
    table of t R the first time it is read, which no arity-0 coboundary
    does.  With check set, the first basis pair where S(R) != 0, read off
    the lambdas as t^2 S(R), is refused as the complex is built.  As an Endo
    it is P itself, so it stands wherever P does.
    """

    __slots__ = ("flavor", "operator", "scale", "lambdas", "_mu_index")

    def __init__(self, P: Endo, flavor, check):
        super().__init__(P.matrix, P.algebra)
        a = P.algebra
        self.flavor = flavor
        R = Endo.identity(a) + P.scale(2) if flavor == FLAVOR_B else P
        t = a._denominator * lcm(*{x.denominator for i in range(a.dim)
                                   for x in R.matrix.nonzeros(i).values()})
        self.operator = R = R.scale(t) if t != 1 else R
        self.scale = _exact(Fraction(1, 2 * t if flavor == FLAVOR_B else t))
        self.lambdas = _lambdas(a, R)
        if check and (failing := _modified_defect(R, self.lambdas, t)):
            if flavor == FLAVOR_R:
                raise _not_modified(a, *failing, "the R-complex coboundary")
            x, y = (a.basis_names[i] for i in failing[0])
            raise PreconditionError(f"the B-complex coboundary needs a weight-1 Rota-Baxter "
                                    f"operator; axiom fails on ({x}, {y})")
        self._mu_index = None

    @property
    def mu_index(self):
        if self._mu_index is None:
            index = {}
            for (u, w), mu in _induced(_images(self.operator, self.algebra)[1]).items():
                for s, x in mu.items():
                    index.setdefault(s, []).append((u, w, x))
            self._mu_index = index
        return self._mu_index


def _complex(P, flavor, k, check=True) -> _Complex:
    """The complex of P for arity-k cochains: P itself when it is a complex,
    whose flavor is certified to be flavor, else a new one.  An arity out of
    range is refused before anything is built."""
    flavor = _canon_flavor(flavor)
    if type(k) is not int:
        raise InputError(f"arity k must be an integer, got {k!r}")
    if not 0 <= k <= P.algebra.dim:
        raise InputError(f"arity k={k} out of range 0..{P.algebra.dim}")
    if isinstance(P, _Complex):
        certify(P.flavor == flavor, f"the {P.flavor} of P passed as its {flavor}")
        return P
    return _Complex(P, flavor, check)


def _terms(side: _Complex, S):
    """(faces, diagonal): the terms of d f that read f(e_S), S a sorted tuple.

    faces lists (sign, u, T) for each u outside S: sign * lambda_u(f(e_S))
    is a term of (d f)(e_T), T = S + {u} sorted.  The terms sign *
    f(mu(e_u, e_w), e_rest) of (d f)(e_T) that read f(e_S), one for each s
    in S and each pair u < w outside rest = S - {s} with mu(e_u, e_w)_s != 0,
    where T = rest + {u, w}, are summed per T: diagonal maps each T to the
    nonzero int c of its term c f(e_S), off the int mu of the complex.
    """
    faces = []
    pos = 0                     # the place of u in T, (-1)^pos the sign of its face
    for u in range(side.algebra.dim):
        if pos < len(S) and S[pos] == u:
            pos += 1
        else:
            faces.append((-1 if pos % 2 else 1, u, S[:pos] + (u,) + S[pos:]))
    index = side.mu_index if S else {}
    sums = {}
    for i, s in enumerate(S):
        rest = S[:i] + S[i + 1:]
        for u, w, x in index.get(s, ()):
            if u in rest or w in rest:
                continue
            # u and w sit at p and q + 1 of T; the sign of the pair times
            # that of s in S is (-1)^(p + q + 1 + i)
            p, q = bisect_left(rest, u), bisect_left(rest, w)
            T = rest[:p] + (u,) + rest[p:q] + (w,) + rest[q:]
            sums[T] = sums.get(T, 0) + (x if (p + q + i) % 2 else -x)
    return faces, {T: c for T, c in sums.items() if c}


@dataclass
class CoboundaryMatrix:
    """Matrix of the coboundary from cohomological degree k+1 to k+2.

    Rows and columns run over pairs (sorted tuple, target index), tuples in
    lexicographic order, target index fastest.  It is assembled as integral,
    a matrix of ints; matrix, the coboundary, is scale times it, built on
    its first read, and integral itself when scale is 1.
    """
    integral: Matrix
    scale: int | Fraction = 1

    @cached_property
    def matrix(self) -> Matrix:
        return self.integral if self.scale == 1 else self.integral.scale(self.scale)


def coboundary_matrix(P: Endo, k: int, flavor="R") -> CoboundaryMatrix:
    """Matrix of the coboundary on arity-k cochains (degree k+1 -> k+2).

    For k = 0 the domain is g itself and (d x)(y) = [Ry, x] - R([y, x]).
    Rows are assembled as sparse dicts of ints off the complex's lambda and
    mu, one column block of n columns per source k-tuple at a time; no
    dense rows x cols table is built.  At k = 0 the rows are lambda's own
    row dicts.  P may be a complex built earlier in the same call, which is
    then checked already.
    """
    side = _complex(P, flavor, k)
    lambdas = side.lambdas
    n = P.algebra.dim
    sources = basis_tuples(n, k)
    if not k:
        rows = [lam.get(m, {}) for lam in lambdas for m in range(n)]
        return CoboundaryMatrix(Matrix._int_rows(rows, n), side.scale)
    row_base = {T: i * n for i, T in enumerate(basis_tuples(n, k + 1))}
    rows = [{} for _ in range(len(row_base) * n)]
    for i, S in enumerate(sources):
        base = i * n
        faces, diagonal = _terms(side, S)
        # S reaches each T through one face, so its lambda copies never overlap
        for sgn, u, T in faces:
            start = row_base[T]
            for m, lam in lambdas[u].items():
                out = rows[start + m]
                for j, x in lam.items():
                    out[base + j] = sgn * x
        for T, c in diagonal.items():
            start = row_base[T]
            for j, out in enumerate(rows[start:start + n], base):
                x = out.get(j, 0) + c
                if x:
                    out[j] = x
                else:
                    del out[j]
    return CoboundaryMatrix(Matrix._int_rows(rows, len(sources) * n), side.scale)


def d_apply(P: Endo, f: Cochain, flavor="R", check=True) -> Cochain:
    """Apply the coboundary to a single cochain without assembling the
    matrix, walking only the terms that read a nonzero value of f; the sums
    are taken off the int lambda and mu and times the complex's scale."""
    if f.algebra != P.algebra:
        raise InputError("the coboundary needs a cochain over the operator's algebra")
    side = _complex(P, flavor, f.arity, check)
    lambdas = side.lambdas
    n = P.algebra.dim
    coeffs = {}
    for S, value in f.coeffs.items():
        faces, diagonal = _terms(side, S)
        for sgn, u, T in faces:
            acc = coeffs.get(T) or coeffs.setdefault(T, [0] * n)
            for m, lam in lambdas[u].items():
                for j, x in lam.items():
                    if value[j]:
                        acc[m] += sgn * x * value[j]
        for T, c in diagonal.items():
            acc = coeffs.get(T) or coeffs.setdefault(T, [0] * n)
            for m, x in enumerate(value):
                if x:
                    acc[m] += c * x
    if (den := side.scale.denominator) != 1:          # scale is 1/den
        coeffs = {T: [_quotient(x, den) for x in acc] for T, acc in coeffs.items()}
    return Cochain._trusted(P.algebra, f.arity + 1, coeffs)


def is_cocycle(P: Endo, f: Cochain, flavor="R") -> bool:
    """d f = 0, by d_apply on f alone: no coboundary matrix is assembled."""
    return d_apply(P, f, flavor=flavor).is_zero()


def coboundary_preimage(P: Endo, f: Cochain, flavor="R"):
    """Some g with d g = f, or None when f is not a coboundary."""
    if f.algebra != P.algebra:
        raise InputError("the coboundary needs a cochain over the operator's algebra")
    if f.arity == 0:
        raise InputError("degree-1 cochains have no preimage space (C^0 = 0)")
    side = _complex(P, flavor, f.arity - 1)
    if f.is_zero():
        return Cochain.zero(P.algebra, f.arity - 1)
    # the int matrix times the complex's scale, 1/den, is d: solve it for den f
    den = side.scale.denominator
    b = [den * x for x in f.to_coeff_vector()]
    x = coboundary_matrix(side, f.arity - 1, flavor=flavor).integral.solve(b)
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
    if type(max_degree) is not int:
        raise InputError(f"max_degree must be an integer, got {max_degree!r}")
    if max_degree < 1:
        raise InputError("max_degree must be >= 1")
    a = P.algebra
    n = a.dim

    # one complex, checked as it is built, serves every degree; one walk
    # over the degrees: the outgoing matrix d_m of degree m (arity m-1), as
    # assembled in ints, 1/scale times d with the same ranks, kernels and
    # pivots, is eliminated once (Matrix caches it) and its rank certified:
    # dim Z^m = dim C^m - rank d_m, dim B^m = rank d_(m-1).  Only witnesses
    # read its kernel, the cocycles, and keep it for its pivots in degree m+1
    side = _complex(P, flavor, 0)
    den = side.scale.denominator        # scale is 1/den
    degrees = {}
    dim_b, inc = 0, None                # d_0, from C^0 = 0, has rank 0
    for degree in range(1, max_degree + 1):
        arity = degree - 1
        dim_c = cochain_space_dim(n, arity)
        if dim_c == 0:
            degrees[degree] = DegreeReport(degree, arity, 0, 0, 0, 0)
            continue
        out = coboundary_matrix(side, arity, flavor=flavor).integral
        rank = certified_rank(out)
        z_witnesses, b_witnesses = [], []
        if witnesses:
            kernel = out.null_space()
            z_witnesses = [Cochain.from_sparse(a, arity, kernel.nonzeros(i))
                           for i in range(kernel.nrows)]
            if inc is not None:
                images = inc.transpose()    # its row col is den times d of basis cochain col
                b_witnesses = [(Cochain.from_sparse(a, arity - 1, {col: 1}), Cochain.from_sparse(
                    a, arity, {i: _quotient(x, den) for i, x in images.nonzeros(col).items()}))
                    for col in inc.pivot_columns()]
            inc = out
        dim_h = dim_c - rank - dim_b
        certify(dim_h >= 0, "more coboundaries than cocycles")
        degrees[degree] = DegreeReport(degree, arity, dim_c, dim_c - rank, dim_b, dim_h,
                                       z_witnesses, b_witnesses)
        dim_b = rank
    return CohomologyReport(flavor, max_degree, degrees)
