"""Lie algebras over Q by structure constants, plus endomorphisms of them.

A LieAlgebra stores only the brackets [e_i, e_j] for i < j; antisymmetry
and vanishing diagonal brackets are structural, so inconsistent tables
cannot be represented.  The Jacobi identity is verified eagerly on
construction unless explicitly deferred.
"""

from dataclasses import dataclass
from types import MappingProxyType

from .errors import InputError
from .linalg import (Matrix, Rational, _exact, _nonzero, json_array, ratio, rational_str,
                     rational_to_json, rationals_from_json)

Vector = tuple  # tuple of Rational, length = algebra dimension


# -- small exact vector helpers ---------------------------------------

def vzero(n) -> Vector:
    return (0,) * n


def vadd(u, v) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u) -> Vector:
    return tuple(c * a for a in u)


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
        if dim < 0:
            raise InputError("negative dimension")
        self.dim = dim
        if basis_names is None:
            basis_names = [f"x{i + 1}" for i in range(dim)]
        basis_names = [str(s) for s in basis_names]
        if len(basis_names) != dim:
            raise InputError(f"{len(basis_names)} basis names for dimension {dim}")
        repeated = next((s for i, s in enumerate(basis_names) if s in basis_names[:i]), None)
        if repeated is not None:
            raise InputError(f"repeated basis name {repeated!r}")
        self.basis_names = tuple(basis_names)
        table = {}
        for key, value in structure.items():
            i, j = key
            if not (0 <= i < j < dim):
                raise InputError(f"structure key {key}: need 0 <= i < j < dim")
            vec = tuple(ratio(x) for x in value)
            if len(vec) != dim:
                raise InputError(f"structure value for {key} has length {len(vec)}")
            if not is_zero_vector(vec):
                table[(i, j)] = vec
        # read-only, so the support table below can never drift from it
        self.structure = MappingProxyType(table)
        # _table[i][j]: the nonzero (k, c) of [e_i, e_j] = sum_k c e_k, both orders
        self._table = [[()] * dim for _ in range(dim)]
        for (i, j), vec in table.items():
            terms = tuple((k, c) for k, c in enumerate(vec) if c)
            self._table[i][j] = terms
            self._table[j][i] = tuple((k, -c) for k, c in terms)
        if check:
            jac = self.verify_jacobi()
            if not jac.ok:
                i, j, k = jac.triple
                names = self.basis_names
                raise InputError(
                    f"Jacobi identity fails on ({names[i]}, {names[j]}, {names[k]}): "
                    f"jacobiator = {vector_str(jac.value)}")

    # -- basics -------------------------------------------------------

    def zero(self) -> Vector:
        return vzero(self.dim)

    def basis_vector(self, i) -> Vector:
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
        """[e_i, e_j]; antisymmetry comes from the i<j storage."""
        if i == j:
            return self.zero()
        if i < j:
            return self.structure.get((i, j), self.zero())
        vec = self.structure.get((j, i))
        return vneg(vec) if vec is not None else self.zero()

    def bracket(self, x, y) -> Vector:
        """Bilinear extension of the structure table over supp(x) x supp(y)."""
        if len(x) != self.dim or len(y) != self.dim:
            raise InputError(f"bracket arguments must have length {self.dim}")
        acc = [0] * self.dim
        ys = [(j, b) for j, b in enumerate(y) if b]
        for i, a in enumerate(x):
            if a:
                row = self._table[i]
                for j, b in ys:
                    c = a * b
                    for k, v in row[j]:
                        acc[k] += c * v
        return tuple(_exact(a) for a in acc)

    def verify_jacobi(self) -> JacobiResult:
        """Check [[e_i,e_j],e_k] + cyclic = 0 on all i<j<k; first violation wins."""
        n = self.dim
        for i in range(n):
            ei = self.basis_vector(i)
            for j in range(i + 1, n):
                ej = self.basis_vector(j)
                bij = self.bracket_basis(i, j)
                for k in range(j + 1, n):
                    ek = self.basis_vector(k)
                    jac = vadd(vadd(self.bracket(bij, ek),
                                    self.bracket(self.bracket_basis(j, k), ei)),
                               self.bracket(self.bracket_basis(k, i), ej))
                    if not is_zero_vector(jac):
                        return JacobiResult(False, (i, j, k), jac)
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
        try:
            dim = data["dim"]
            names = data.get("basis")
            entries = data.get("brackets", [])
        except (TypeError, KeyError) as exc:
            raise InputError(f"bad algebra JSON: {exc}") from exc
        if type(dim) is not int or dim < 0:
            raise InputError(f"bad algebra dim {dim!r}")
        if names is not None and not all(type(s) is str
                                         for s in json_array(names, "algebra basis")):
            raise InputError(f"algebra basis names must be strings, got {names!r}")
        structure = {}
        for entry in json_array(entries, "algebra brackets"):
            try:
                i, j = entry["i"], entry["j"]
                value = entry["value"]
            except (TypeError, KeyError) as exc:
                raise InputError(f"bad bracket entry {entry!r}") from exc
            if not (type(i) is int and type(j) is int and i < j):
                raise InputError(f"bracket entry needs integer i < j, got i={i!r} j={j!r}")
            if (i, j) in structure:
                raise InputError(f"duplicate bracket entry for ({i}, {j})")
            structure[(i, j)] = rationals_from_json(value, f"bracket ({i}, {j}) value")
        return cls(dim, structure, basis_names=names, check=check)


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
        try:
            rows = data["matrix"]
        except (TypeError, KeyError) as exc:
            raise InputError(f"bad endomorphism JSON: {exc}") from exc
        return cls(Matrix([rationals_from_json(row, "matrix row")
                           for row in json_array(rows, "matrix")]), algebra)


def subspace_closure(algebra: LieAlgebra, basis_vectors):
    """Whether span(basis_vectors) is closed under the bracket.

    Membership is decided by an exact linear solve against the spanning
    matrix.  Returns (is_closed, failing_pair_or_None); the empty subspace
    is closed.
    """
    vecs = [tuple(v) for v in basis_vectors]
    if not vecs:
        return True, None
    span = Matrix.from_columns(vecs, nrows=algebra.dim)
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            w = algebra.bracket(vecs[i], vecs[j])
            if not is_zero_vector(w) and span.solve(w) is None:
                return False, (i, j)
    return True, None


# -- the operator-identity kernel ---------------------------------------

def _mixed_terms(a: LieAlgebra, P: Endo):
    """(i, j, Pe_i, Pe_j, [Pe_i, e_j] + [e_i, Pe_j]) for basis pairs i < j, lex order.

    [Pe_i, e_j] is column j of ad(Pe_i), and [e_i, Pe_j] = -[Pe_j, e_i].
    """
    images = [P.apply(e) for e in a.basis()]
    ad_cols = [a.ad(p).matrix.transpose() for p in images]    # row j = column j
    for i, pi in enumerate(images):
        for j in range(i + 1, a.dim):
            yield i, j, pi, images[j], vsub(ad_cols[i].row(j), ad_cols[j].row(i))


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
    for i, j, pi, pj, mixed in _mixed_terms(a, P):
        value = vsub(a.bracket(pi, pj), P.apply(mixed))
        if S is not None:
            value = vadd(value, S.apply(a.bracket_basis(i, j)))
        if not is_zero_vector(value):
            yield (i, j), value


def induced_bracket_table(P: Endo):
    """Structure table of [x, y]_P = [Px, y] + [x, Py] on basis pairs."""
    return {(i, j): mixed for i, j, _, _, mixed in _mixed_terms(P.algebra, P)
            if not is_zero_vector(mixed)}


def rho(P: Endo, x) -> Endo:
    """Matrix of y -> [Px, y] - P([x, y]).

    For a modified r-matrix this is a representation of (g, [.,.]_P) on g;
    the formula itself is evaluated for any conforming P.
    """
    a = P.algebra
    if len(x) != a.dim:
        raise InputError(f"vector length {len(x)} != dim {a.dim}")
    return a.ad(P.apply(x)) - P.compose(a.ad(x))


# -- catalog ----------------------------------------------------------

def _sl_basis(n):
    """Basis order: upper E_ij row-major, lower E_ij row-major, Cartan H_i."""
    upper = [(i, j) for i in range(n) for j in range(n) if i < j]
    lower = [(i, j) for i in range(n) for j in range(n) if i > j]
    return upper, lower


def _sl_names(n):
    if n == 2:
        return ["e", "f", "h"]
    upper, lower = _sl_basis(n)
    names = [f"E{i + 1}{j + 1}" for i, j in upper]
    names += [f"E{i + 1}{j + 1}" for i, j in lower]
    names += [f"H{i + 1}" for i in range(n - 1)]
    return names


def _sl_structure(n):
    upper, lower = _sl_basis(n)
    offdiag = upper + lower
    dim = n * n - 1

    def elementary(i, j):
        m = [[0] * n for _ in range(n)]
        m[i][j] = 1
        return m

    def cartan(i):
        m = [[0] * n for _ in range(n)]
        m[i][i] = 1
        m[i + 1][i + 1] = -1
        return m

    mats = [elementary(i, j) for i, j in offdiag] + [cartan(i) for i in range(n - 1)]

    def commutator(a, b):
        return [[sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]

    def decompose(m):
        coeffs = [0] * dim
        for idx, (i, j) in enumerate(offdiag):
            coeffs[idx] = m[i][j]
        diag = [m[i][i] for i in range(n)]
        running = 0
        for i in range(n - 1):
            running += diag[i]
            coeffs[len(offdiag) + i] = running
        return tuple(coeffs)

    structure = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            structure[(a, b)] = decompose(commutator(mats[a], mats[b]))
    return dim, structure


def sl_algebra(n) -> LieAlgebra:
    """sl(n, Q) with basis: upper E_ij, lower E_ij, Cartan H_i = E_ii - E_(i+1)(i+1)."""
    if n < 2:
        raise InputError("sl(n) needs n >= 2")
    dim, structure = _sl_structure(n)
    return LieAlgebra(dim, structure, basis_names=_sl_names(n), check=False)


def borel_r_matrix(algebra: LieAlgebra, n) -> Endo:
    """+1 on the Borel part (upper + Cartan), -1 on the strictly lower part."""
    k = n * (n - 1) // 2
    diag = [1] * k + [-1] * k + [1] * (n - 1)
    return Endo.from_diagonal(algebra, diag)


CATALOG_NAMES = ("sl-borel", "abelian")


def catalog(name, n):
    """Named example algebras with a distinguished operator.

    sl-borel: sl(n, Q) with the involutive Borel r-matrix; abelian: the
    n-dimensional abelian algebra with the identity operator.
    """
    if n < 2:
        raise InputError(f"catalog needs n >= 2, got {n}")
    if name == "sl-borel":
        algebra = sl_algebra(n)
        return algebra, borel_r_matrix(algebra, n)
    if name == "abelian":
        algebra = LieAlgebra(n, {}, basis_names=[f"a{i + 1}" for i in range(n)])
        return algebra, Endo.identity(algebra)
    raise InputError(f"unknown catalog name {name!r}; known: {', '.join(CATALOG_NAMES)}")
