"""Lie algebras over Q by structure constants, plus endomorphisms of them.

A LieAlgebra is given only the brackets [e_i, e_j] for i < j; antisymmetry
and vanishing diagonal brackets are structural, so inconsistent tables
cannot be represented.  The Jacobi identity is verified eagerly on
construction unless explicitly deferred.

Every bracket, the Jacobi check included, is read off the structure table
_table[i][j], the nonzero (k, c) of [e_i, e_j] in both orders, filled in
the pass that decodes each structure value; rows without a bracket share one.
The same pass reads _denominator, the lcm of the structure constants'
denominators.  LieAlgebra(...) passes every value through ratio;
_from_exact takes values exact as they are: from_json_dict's decoded ones
and the tables the package computes (sl_algebra, induced_bracket,
build_double, the compatible-bracket sum).  LieAlgebra(...) refuses a
structure key that is not a pair of ints and a basis name that is not a
str; from_json_dict's decoder refuses them before a key is hashed.
_sparse_bracket sums [x, y] over the nonzero (index, value) pairs of x and
y; bracket reads a dense vector off it, and the graded bracket and the
Nijenhuis witnesses use it as it is.  The read-only mapping structure keeps
the validated input for equality, is_abelian, JSON, pi_cochain and
build_double.

The operator-identity kernel (operator_identity, induced_bracket_table and
mu of the coboundary) reads off one sparse image table [Pe_i, e_j] per
call.  _lambdas builds rho(P, e_u) with no such table, from P's columns and
_table, as its nonzero rows {m: {j: exact value}}: the coboundary copies
them and _modified_defect reads t^2 S(R) off t R's.  rho(P, x) itself is
ad(Px) - P o ad(x), built from ad, apply and compose with no kernel call.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from types import MappingProxyType

from .errors import InputError
from .linalg import (Matrix, Rational, _exact, _nonzero, json_array, json_object, ratio,
                     rational_str, rational_to_json, rationals_from_json)

Vector = tuple  # tuple of Rational, length = algebra dimension


# -- small exact vector helpers ---------------------------------------

def vzero(n) -> Vector:
    return (0,) * n


def vadd(u, v) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vneg(u) -> Vector:
    return tuple(-a for a in u)


def is_zero_vector(u) -> bool:
    return all(not a for a in u)


def vector_from_json(data, dim) -> Vector:
    vec = tuple(rationals_from_json(data, "vector"))
    if len(vec) != dim:
        raise InputError(f"vector length {len(vec)} != dim {dim}")
    return vec


def vector_to_json(u):
    return [rational_to_json(a) for a in u]


def vector_str(u) -> str:
    return "(" + ", ".join(rational_str(a) for a in u) + ")"


@dataclass(frozen=True)
class JacobiResult:
    ok: bool
    triple: tuple | None = None
    value: Vector | None = None

    def __bool__(self):
        return self.ok


class LieAlgebra:
    """Finite-dimensional Lie algebra given by rational structure constants."""

    def __init__(self, dim, structure, basis_names=None, check=True):
        if basis_names is not None:
            basis_names = list(basis_names)
            if not all(type(s) is str for s in basis_names):
                raise InputError(f"algebra basis names must be strings, got {basis_names!r}")
        for key in structure:
            if not (type(key) is tuple and len(key) == 2
                    and type(key[0]) is int and type(key[1]) is int):
                raise InputError(f"structure key {key!r} needs two integer indices")
        self._fill(dim, structure, basis_names, check, lambda value: tuple(map(ratio, value)))

    def _fill(self, dim, structure, basis_names, check, vector):
        """self as __init__ makes it; vector(value) is the exact tuple of a
        structure value, through ratio or as it is once decoded."""
        if type(dim) is not int:
            raise InputError(f"bad algebra dim {dim!r}")
        if dim < 0:
            raise InputError("negative dimension")
        self.dim = dim
        if basis_names is None:
            basis_names = [f"x{i + 1}" for i in range(dim)]
        if len(basis_names) != dim:
            raise InputError(f"{len(basis_names)} basis names for dimension {dim}")
        seen = set()
        for name in basis_names:
            if name in seen:
                raise InputError(f"repeated basis name {name!r}")
            seen.add(name)
        self.basis_names = tuple(basis_names)
        # rows of _table without a bracket share one immutable empty row
        empty = ((),) * dim
        rows = [empty] * dim
        table = {}
        den = 1
        for key, value in structure.items():
            i, j = key
            if not (0 <= i < j < dim):
                raise InputError(f"structure key {key}: need 0 <= i < j < dim")
            vec = vector(value)
            if len(vec) != dim:
                raise InputError(f"structure value for {key} has length {len(vec)}")
            if terms := [(k, c) for k, c in enumerate(vec) if c]:
                den = lcm(den, *[c.denominator for _, c in terms])
                table[(i, j)] = vec
                for r in (i, j):
                    if rows[r] is empty:
                        rows[r] = list(empty)
                rows[i][j] = tuple(terms)
                rows[j][i] = tuple([(k, -c) for k, c in terms])
        # read-only, so the table above can never drift from it
        self.structure = MappingProxyType(table)
        self._table, self._denominator = rows, den
        if check:
            jac = self.verify_jacobi()
            if not jac.ok:
                i, j, k = jac.triple
                names = self.basis_names
                raise InputError(
                    f"Jacobi identity fails on ({names[i]}, {names[j]}, {names[k]}): "
                    f"jacobiator = {vector_str(jac.value)}")
        return self

    # -- basics -------------------------------------------------------

    def zero(self) -> Vector:
        return vzero(self.dim)

    def basis_vector(self, i) -> Vector:
        if type(i) is not int:
            raise InputError(f"basis index {i!r} is not an integer")
        if not 0 <= i < self.dim:
            raise InputError(f"basis index {i} out of range")
        return tuple(1 if k == i else 0 for k in range(self.dim))

    def basis(self):
        return [self.basis_vector(i) for i in range(self.dim)]

    def is_abelian(self) -> bool:
        return not self.structure

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.dim == other.dim and self.structure == other.structure

    __hash__ = None

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, names={list(self.basis_names)})"

    # -- bracket ------------------------------------------------------

    def bracket_basis(self, i, j) -> Vector:
        """[e_i, e_j] as a dense vector."""
        if type(i) is not int or type(j) is not int:
            raise InputError(f"basis index pair ({i!r}, {j!r}) needs integer indices")
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise InputError(f"basis index pair ({i}, {j}) out of range")
        vec = [0] * self.dim
        for k, c in self._table[i][j]:
            vec[k] = c
        return tuple(vec)

    def bracket(self, x, y) -> Vector:
        """[x, y] as a dense vector, read off _sparse_bracket over the nonzeros of x and y."""
        if len(x) != self.dim or len(y) != self.dim:
            raise InputError(f"bracket arguments must have length {self.dim}")
        vec = [0] * self.dim
        for k, c in _sparse_bracket(self, [(i, a) for i, a in enumerate(x) if a],
                                    [(j, b) for j, b in enumerate(y) if b]).items():
            vec[k] = _exact(c)
        return tuple(vec)

    def verify_jacobi(self) -> JacobiResult:
        """Check [[e_i,e_j],e_k] + cyclic = 0 on all i<j<k; first violation wins.

        A triple holding a central basis vector, or whose three pairs all
        bracket to zero, has a zero jacobiator, so only the other triples
        are visited, still in lexicographic order.
        """
        table, dim = self._table, self.dim
        live = sorted({i for pair in self.structure for i in pair})     # not central
        for p, i in enumerate(live):
            ti = table[i]
            for q in range(p + 1, len(live)):
                j = live[q]
                tij, tj = ti[j], table[j]
                ks = live[q + 1:] if tij else [k for k in live[q + 1:] if ti[k] or tj[k]]
                for k in ks:
                    # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j], each
                    # as -[e_r, [e_p, e_q]] = -sum c v e_m over (l, c) in [e_p, e_q]
                    # and (m, v) in [e_r, e_l]
                    tk = table[k]
                    acc = [0] * dim
                    for l, c in tij:
                        for m, v in tk[l]:
                            acc[m] -= c * v
                    for l, c in tj[k]:
                        for m, v in ti[l]:
                            acc[m] -= c * v
                    for l, c in tk[i]:
                        for m, v in tj[l]:
                            acc[m] -= c * v
                    if any(acc):
                        return JacobiResult(False, (i, j, k), tuple(_exact(a) for a in acc))
        return JacobiResult(True)

    def ad(self, x) -> "Endo":
        """Matrix of y -> [x, y] in the chosen basis: entry (k, j) is sum_i x_i c_ij^k."""
        if len(x) != self.dim:
            raise InputError(f"vector length {len(x)} != dim {self.dim}")
        xs = [(i, a) for i, a in enumerate(x) if a]
        rows = [{} for _ in range(self.dim)]
        for j in range(self.dim):
            for i, a in xs:
                for k, v in self._table[i][j]:
                    rows[k][j] = rows[k].get(j, 0) + a * v
        return Endo(Matrix.from_sparse([_nonzero(r) for r in rows], self.dim), self)

    # -- JSON ---------------------------------------------------------

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "basis": list(self.basis_names),
            "brackets": [
                {"i": i, "j": j, "value": vector_to_json(vec)}
                for (i, j), vec in sorted(self.structure.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data, check=True):
        dim, names, entries = json_object(data, "algebra JSON", ("dim",),
                                          {"basis": None, "brackets": []})
        if type(dim) is not int or dim < 0:
            raise InputError(f"bad algebra dim {dim!r}")
        if names is not None and not all(type(s) is str
                                         for s in json_array(names, "algebra basis")):
            raise InputError(f"algebra basis names must be strings, got {names!r}")
        structure = {}
        for entry in json_array(entries, "algebra brackets"):
            i, j, value = json_object(entry, "bracket entry", ("i", "j", "value"))
            if not (type(i) is int and type(j) is int and i < j):
                raise InputError(f"bracket entry needs integer i < j, got i={i!r} j={j!r}")
            if (i, j) in structure:
                raise InputError(f"duplicate bracket entry for ({i}, {j})")
            if not isinstance(value, list):     # the label is formatted only to raise
                json_array(value, f"bracket ({i}, {j}) value")
            structure[(i, j)] = rationals_from_json(value, "bracket value")
        # the values are exact as decoded, so they skip ratio
        return cls._from_exact(dim, structure, names, check)

    @classmethod
    def _from_exact(cls, dim, structure, basis_names=None, check=False):
        """LieAlgebra(...) for a structure whose values are exact as they are:
        decoded JSON, or a table the package computed itself."""
        return cls.__new__(cls)._fill(dim, structure, basis_names, check, tuple)


class Endo:
    """Linear endomorphism of a Lie algebra, stored as a square matrix.

    Columns are images of basis vectors: (E x)_i = sum_j M[i][j] x_j.
    """

    __slots__ = ("matrix", "algebra")

    def __init__(self, matrix: Matrix, algebra: LieAlgebra):
        if matrix.nrows != algebra.dim or matrix.ncols != algebra.dim:
            raise InputError(
                f"endomorphism matrix {matrix.shape} does not fit dim {algebra.dim}")
        self.matrix = matrix
        self.algebra = algebra

    @classmethod
    def identity(cls, algebra):
        return cls(Matrix.identity(algebra.dim), algebra)

    @classmethod
    def zero(cls, algebra):
        return cls(Matrix.zero(algebra.dim, algebra.dim), algebra)

    @classmethod
    def from_diagonal(cls, algebra, entries):
        entries = list(entries)
        if len(entries) != algebra.dim:
            raise InputError("diagonal length mismatch")
        return cls(Matrix.diagonal(entries), algebra)

    def apply(self, vec) -> Vector:
        return self.matrix.apply(vec)

    def compose(self, other: "Endo") -> "Endo":
        """self after other."""
        return Endo(self.matrix @ other.matrix, self.algebra)

    def __add__(self, other):
        return Endo(self.matrix + other.matrix, self.algebra)

    def __sub__(self, other):
        return Endo(self.matrix - other.matrix, self.algebra)

    def scale(self, c: Rational) -> "Endo":
        return Endo(self.matrix.scale(c), self.algebra)

    def __eq__(self, other):
        if not isinstance(other, Endo):
            return NotImplemented
        return self.algebra == other.algebra and self.matrix == other.matrix

    __hash__ = None

    def __repr__(self):
        return f"Endo({self.matrix!r})"

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def involution_defect(self):
        """None when E^2 = Id, else the first basis index j with E^2 e_j != e_j."""
        diff = self.matrix @ self.matrix - Matrix.identity(self.algebra.dim)
        return min((j for i in range(diff.nrows) for j in diff.nonzeros(i)), default=None)

    def to_json_dict(self):
        return {"matrix": [[rational_to_json(x) for x in self.matrix.row(i)]
                           for i in range(self.matrix.nrows)]}

    @classmethod
    def from_json_dict(cls, data, algebra):
        rows, = json_object(data, "endomorphism JSON", ("matrix",))
        return cls(Matrix._exact_rows([rationals_from_json(row, "matrix row")
                                       for row in json_array(rows, "matrix")]), algebra)


def subspace_closure(algebra: LieAlgebra, basis_vectors):
    """Whether span(basis_vectors) is closed under the bracket.

    The span is eliminated once: w lies in it exactly when the null space
    of the matrix with the basis vectors as rows annihilates w.  Returns
    (is_closed, failing_pair_or_None); the empty subspace is closed.
    """
    vecs = [tuple(v) for v in basis_vectors]
    for v in vecs:
        if len(v) != algebra.dim:
            raise InputError(f"vector length {len(v)} != dim {algebra.dim}")
    annihilator = Matrix(vecs).null_space()
    for i, j in combinations(range(len(vecs)), 2):
        if any(annihilator.apply(algebra.bracket(vecs[i], vecs[j]))):
            return False, (i, j)
    return True, None


def _sparse_bracket(a: LieAlgebra, xs, ys) -> dict:
    """[x, y] as {k: coefficient} off a's structure table, for x and y given
    by their nonzero (index, value) pairs; entries are not made exact, and
    one may be zero where terms cancel."""
    acc = {}
    table = a._table
    for i, x in xs:
        row = table[i]
        for j, y in ys:
            c = x * y
            for k, v in row[j]:
                acc[k] = acc.get(k, 0) + c * v
    return acc


# -- the operator-identity kernel: sparse dicts {index: coefficient} ------

def _columns(P: Endo):
    t = P.matrix.transpose()
    return [t.nonzeros(j) for j in range(t.nrows)]


def _images(P: Endo, a: LieAlgebra):
    """(cols, images): cols[i] is the column Pe_i and images[i][j] = [Pe_i, e_j],
    summed off a's structure table, the one place where P meets it."""
    cols = _columns(P)
    images = []
    for col in cols:
        row = [{} for _ in range(a.dim)]
        for k, c in col.items():
            for out, terms in zip(row, a._table[k]):
                for m, w in terms:
                    out[m] = out.get(m, 0) + c * w
        images.append(row)
    return cols, images


def _induced(images):
    """{(i, j): [e_i, e_j]_P = images[i][j] - images[j][i]} over the pairs i < j
    with a nonzero value, lex order, each value a dict of its nonzeros."""
    table = {}
    for i, j in combinations(range(len(images)), 2):
        mixed = dict(images[i][j])
        for m, w in images[j][i].items():
            mixed[m] = mixed.get(m, 0) - w
        if mixed := _nonzero(mixed):
            table[(i, j)] = mixed
    return table


def _lambdas(a: LieAlgebra, P: Endo):
    """For each index u, the nonzero rows of rho(P, e_u) as {m: {j: nonzero
    exact value}}: column j is [Pe_u, e_j] - P([e_u, e_j]), summed off P's
    columns and the nonzero brackets of a's structure table."""
    n, cols, table = a.dim, _columns(P), a._table
    lambdas = []
    for u in range(n):
        acc = {}                                    # {m * n + j: entry}
        get = acc.get
        for k, c in cols[u].items():                # [Pe_u, e_j]
            for j, terms in enumerate(table[k]):
                for m, w in terms:
                    acc[m * n + j] = get(m * n + j, 0) + c * w
        for j, terms in enumerate(table[u]):        # - P([e_u, e_j])
            for k, c in terms:
                for m, w in cols[k].items():
                    acc[m * n + j] = get(m * n + j, 0) - c * w
        rows = {}
        for key, x in acc.items():
            if x:
                m, j = divmod(key, n)
                rows.setdefault(m, {})[j] = x if type(x) is int else _exact(x)
        lambdas.append(rows)
    return lambdas


def _modified_defect(R: Endo, lambdas, t=1):
    """next(operator_identity(R / t, Id), None) read off lambdas = _lambdas(a, R)
    for an int t != 0: t^2 S(R / t)(e_i, .) = lambda_i o R + lambda_(Re_i) +
    ad((t^2 - R^2) e_i), summed over nonzeros for j > i, one i at a time; the
    first pair (i, j) where it is nonzero, with the value of S(R / t) there
    as a dense exact tuple, or None."""
    n, table, cols = R.algebra.dim, R.algebra._table, _columns(R)
    rows = [R.matrix.nonzeros(k) for k in range(n)]
    for i in range(n):
        acc = {}                                    # {j * n + m: S(R)(e_i, e_j)_m}
        get = acc.get
        for m, row in lambdas[i].items():           # lambda_i o R
            for k, x in row.items():
                for j, r in rows[k].items():
                    if j > i:
                        acc[j * n + m] = get(j * n + m, 0) + x * r
        square = {i: t * t}                         # (t^2 - R^2) e_i
        for k, c in cols[i].items():
            for p, w in cols[k].items():
                square[p] = square.get(p, 0) - c * w
            for m, row in lambdas[k].items():       # lambda_(Re_i)
                for j, x in row.items():
                    if j > i:
                        acc[j * n + m] = get(j * n + m, 0) + c * x
        for k, c in square.items():                 # ad((t^2 - R^2) e_i)
            if c:
                for j in range(i + 1, n):
                    for m, w in table[k][j]:
                        acc[j * n + m] = get(j * n + m, 0) + c * w
        first = min((key for key, x in acc.items() if x), default=None)
        if first is not None:
            j = first // n
            return (i, j), tuple(_exact(Fraction(get(j * n + m, 0), t * t)) for m in range(n))
    return None


def operator_identity(P: Endo, S: Endo | None = None, algebra: LieAlgebra | None = None):
    """Nonzero ((i, j), [Pe_i, Pe_j] - P([Pe_i, e_j] + [e_i, Pe_j]) + S([e_i, e_j])).

    Pairs i < j come in lexicographic order, so next(...) is the first
    failing pair and dict(...) the full table; S = None is the zero map.
    The brackets are taken in algebra (default P.algebra).  S = Id gives
    the modified Yang-Baxter defect, S = -lambda P the weight-lambda
    Rota-Baxter defect, S = None its weight-0 case and S = P o P the
    Nijenhuis torsion of P.
    """
    a = P.algebra if algebra is None else algebra
    cols, images = _images(P, a)
    scols = None if S is None else _columns(S)
    for i, j in combinations(range(a.dim), 2):
        # [Pe_i, Pe_j] = sum_k (Pe_j)_k [Pe_i, e_k]; P is applied once to
        # [Pe_i, e_j] + [e_i, Pe_j] = images[i][j] - images[j][i]
        value = {}
        image = images[i]
        for k, c in cols[j].items():
            for m, w in image[k].items():
                value[m] = value.get(m, 0) + c * w
        mixed = dict(image[j])
        for k, c in images[j][i].items():
            mixed[k] = mixed.get(k, 0) - c
        for k, c in mixed.items():
            if c:
                for m, w in cols[k].items():
                    value[m] = value.get(m, 0) - c * w
        if scols is not None:
            for k, c in a._table[i][j]:
                for m, w in scols[k].items():
                    value[m] = value.get(m, 0) + c * w
        if any(value.values()):
            yield (i, j), tuple(_exact(value.get(k, 0)) for k in range(a.dim))


def induced_bracket_table(P: Endo):
    """Structure table of [x, y]_P = [Px, y] + [x, Py] on basis pairs."""
    n = P.algebra.dim
    return {pair: tuple(mixed.get(k, 0) for k in range(n))
            for pair, mixed in _induced(_images(P, P.algebra)[1]).items()}


def rho(P: Endo, x) -> Endo:
    """Matrix of y -> [Px, y] - P([x, y]); column j is [Px, e_j] - P([x, e_j]).

    For a modified r-matrix this is a representation of (g, [.,.]_P) on g;
    the formula itself is evaluated for any conforming P.
    """
    x = tuple(map(ratio, x))
    ad_x = P.algebra.ad(x)         # before apply: ad's length check names dim
    return P.algebra.ad(P.apply(x)) - P.compose(ad_x)


# -- catalog ----------------------------------------------------------

def _sl_offdiag(n):
    """Basis order: upper E_ij row-major, lower E_ij row-major, then Cartan H_i."""
    return ([(i, j) for i in range(n) for j in range(n) if i < j]
            + [(i, j) for i in range(n) for j in range(n) if i > j])


def _sl_names(n):
    if n == 2:
        return ["e", "f", "h"]
    return [f"E{i + 1}{j + 1}" for i, j in _sl_offdiag(n)] + [f"H{i + 1}" for i in range(n - 1)]


def _sl_structure(n):
    """(dim, the nonzero brackets of sl(n) as dense int tuples in lexicographic
    order of the pairs), by [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    offdiag = _sl_offdiag(n)
    dim, h = n * n - 1, len(offdiag)
    index = {e: a for a, e in enumerate(offdiag)}
    sparse = {}
    for a, (i, j) in enumerate(offdiag):
        for b in range(a + 1, h):
            k, l = offdiag[b]
            if j == k and l == i:       # i < j as a < b: E_ii - E_jj = sum of H_m, i <= m < j
                sparse[a, b] = dict.fromkeys(range(h + i, h + j), 1)
            elif j == k:                # E_il
                sparse[a, b] = {index[i, l]: 1}
            elif l == i:                # -E_kj
                sparse[a, b] = {index[k, j]: -1}
        for m in range(n - 1):          # [E_ij, H_m] = (d_mj - d_(m+1)j - d_mi + d_(m+1)i) E_ij
            if c := (m == j) - (m + 1 == j) - (m == i) + (m + 1 == i):
                sparse[a, h + m] = {a: c}
    return dim, {pair: tuple(terms.get(k, 0) for k in range(dim))
                 for pair, terms in sparse.items()}


def sl_algebra(n) -> LieAlgebra:
    """sl(n, Q) with basis: upper E_ij, lower E_ij, Cartan H_i = E_ii - E_(i+1)(i+1)."""
    if type(n) is not int:
        raise InputError(f"sl(n) needs an integer n, got {n!r}")
    if n < 2:
        raise InputError("sl(n) needs n >= 2")
    dim, structure = _sl_structure(n)
    return LieAlgebra._from_exact(dim, structure, _sl_names(n))


def borel_r_matrix(algebra: LieAlgebra, n) -> Endo:
    """+1 on the Borel part (upper + Cartan), -1 on the strictly lower part."""
    k = n * (n - 1) // 2
    diag = [1] * k + [-1] * k + [1] * (n - 1)
    return Endo.from_diagonal(algebra, diag)


CATALOG_NAMES = ("sl-borel", "abelian")


def catalog(name, n):
    """Named example algebras with a distinguished operator.

    sl-borel: sl(n, Q) with the involutive Borel r-matrix, its table built
    from the matrix-unit brackets with no matrix product; abelian: the
    n-dimensional abelian algebra with the identity operator.
    """
    if type(n) is not int:
        raise InputError(f"catalog needs an integer n, got {n!r}")
    if n < 2:
        raise InputError(f"catalog needs n >= 2, got {n}")
    if name == "sl-borel":
        algebra = sl_algebra(n)
        return algebra, borel_r_matrix(algebra, n)
    if name == "abelian":
        algebra = LieAlgebra(n, {}, basis_names=[f"a{i + 1}" for i in range(n)])
        return algebra, Endo.identity(algebra)
    raise InputError(f"unknown catalog name {name!r}; known: {', '.join(CATALOG_NAMES)}")
