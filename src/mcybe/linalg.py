"""Dense exact-rational matrices: rank, kernels, solving.

Entries are Python ints or fractions.Fraction, never floats, so every
comparison in the package is exact equality.  Rank goes through
fraction-free (Bareiss) elimination with full pivoting to bound the
growth of intermediate entries; kernels and solving go through a
reduced-row-echelon pass over Fractions so that reported bases are
normalized and deterministic.
"""

from fractions import Fraction
from math import lcm

from .errors import InputError, certify

# Exact scalar: int or Fraction.  Fractions with denominator 1 are
# normalized back to int by ratio().
Rational = int | Fraction


def ratio(x) -> Rational:
    """Coerce x to an exact rational, refusing floats."""
    if isinstance(x, bool):
        raise InputError("booleans are not rationals")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise InputError(f"not an exact rational: {x!r} of type {type(x).__name__}")


def rational_from_json(v) -> Rational:
    """Decode an int or a 'p/q' string."""
    if isinstance(v, bool):
        raise InputError(f"not a rational: {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return ratio(Fraction(v))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational string {v!r}: {exc}") from exc
    raise InputError(f"not a rational: {v!r} (use an int or a 'p/q' string)")


def json_array(data, what) -> list:
    """data itself when it is a JSON array; a string is never read as one."""
    if not isinstance(data, list):
        raise InputError(f"{what} must be a JSON array, got {data!r}")
    return data


def rationals_from_json(data, what) -> list:
    """Decode a JSON array of rationals."""
    return [rational_from_json(v) for v in json_array(data, what)]


def rational_to_json(x: Rational):
    x = ratio(x)
    return x if isinstance(x, int) else f"{x.numerator}/{x.denominator}"


def rational_str(x: Rational) -> str:
    x = ratio(x)
    return str(x) if isinstance(x, int) else f"{x.numerator}/{x.denominator}"


class Matrix:
    """Immutable dense matrix over the rationals (row-major)."""

    __slots__ = ("nrows", "ncols", "_m")

    def __init__(self, rows, ncols=None):
        rows = [[ratio(x) for x in row] for row in rows]
        self.nrows = len(rows)
        if rows:
            self.ncols = len(rows[0])
            if ncols is not None and ncols != self.ncols:
                raise InputError("ncols does not match row length")
        else:
            self.ncols = 0 if ncols is None else ncols
        for row in rows:
            if len(row) != self.ncols:
                raise InputError("ragged rows in matrix")
        self._m = rows

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nrows, ncols):
        return cls([[0] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries):
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns, nrows=None):
        columns = [list(c) for c in columns]
        if not columns:
            return cls.zero(nrows or 0, 0)
        n = len(columns[0])
        return cls([[columns[j][i] for j in range(len(columns))] for i in range(n)])

    # -- access -------------------------------------------------------

    def entry(self, i, j) -> Rational:
        return self._m[i][j]

    def row(self, i):
        return tuple(self._m[i])

    def column(self, j):
        return tuple(self._m[i][j] for i in range(self.nrows))

    def rows_list(self):
        return [list(r) for r in self._m]

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self._m == other._m

    __hash__ = None

    def __repr__(self):
        if self.nrows * self.ncols > 36:
            return f"Matrix({self.nrows}x{self.ncols})"
        body = "; ".join(" ".join(rational_str(x) for x in row) for row in self._m)
        return f"Matrix[{body}]"

    def is_zero(self) -> bool:
        return all(not x for row in self._m for x in row)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if self.shape != other.shape:
            raise InputError(f"shape mismatch {self.shape} + {other.shape}")
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self._m, other._m)], ncols=self.ncols)

    def __sub__(self, other):
        if self.shape != other.shape:
            raise InputError(f"shape mismatch {self.shape} - {other.shape}")
        return Matrix([[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self._m, other._m)], ncols=self.ncols)

    def __neg__(self):
        return Matrix([[-a for a in row] for row in self._m], ncols=self.ncols)

    def scale(self, c: Rational):
        c = ratio(c)
        return Matrix([[c * a for a in row] for row in self._m], ncols=self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise InputError(f"shape mismatch {self.shape} @ {other.shape}")
        bm = other._m
        out = [[0] * other.ncols for _ in range(self.nrows)]
        for i, arow in enumerate(self._m):
            orow = out[i]
            for k, a in enumerate(arow):
                if not a:
                    continue
                brow = bm[k]
                for j, b in enumerate(brow):
                    if b:
                        orow[j] += a * b
        return Matrix(out, ncols=other.ncols)

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple."""
        vec = list(vec)
        if len(vec) != self.ncols:
            raise InputError(f"vector length {len(vec)} != cols {self.ncols}")
        out = []
        for row in self._m:
            s = 0
            for a, v in zip(row, vec):
                if a and v:
                    s += a * v
            out.append(ratio(s) if isinstance(s, Fraction) else s)
        return tuple(out)

    def transpose(self):
        return Matrix([[self._m[i][j] for i in range(self.nrows)]
                       for j in range(self.ncols)], ncols=self.nrows)

    # -- elimination --------------------------------------------------

    def rank(self) -> int:
        """Rank over Q by fraction-free Bareiss elimination, full pivoting."""
        if self.nrows == 0 or self.ncols == 0:
            return 0
        # Clear denominators row by row; rank is invariant under row scaling.
        m = []
        for row in self._m:
            mult = lcm(*(x.denominator if isinstance(x, Fraction) else 1 for x in row))
            m.append([int(x * mult) if isinstance(x, Fraction) else x * mult for x in row])
        nrows, ncols = self.nrows, self.ncols
        r = 0
        prev = 1
        limit = min(nrows, ncols)
        while r < limit:
            # Full pivot: smallest nonzero magnitude in the trailing block.
            best = None
            for i in range(r, nrows):
                mi = m[i]
                for j in range(r, ncols):
                    v = mi[j]
                    if v:
                        a = -v if v < 0 else v
                        if best is None or a < best[0]:
                            best = (a, i, j)
                            if a == 1:
                                break
                if best is not None and best[0] == 1:
                    break
            if best is None:
                break
            _, pi, pj = best
            if pi != r:
                m[pi], m[r] = m[r], m[pi]
            if pj != r:
                for row in m:
                    row[pj], row[r] = row[r], row[pj]
            pivot = m[r][r]
            for i in range(r + 1, nrows):
                mi = m[i]
                head = mi[r]
                if head:
                    mr = m[r]
                    for j in range(r + 1, ncols):
                        mi[j] = (pivot * mi[j] - head * mr[j]) // prev
                    mi[r] = 0
                elif prev != pivot:
                    for j in range(r + 1, ncols):
                        mi[j] = (pivot * mi[j]) // prev
            prev = pivot
            r += 1
        return r

    def rref(self):
        """Reduced row echelon form; returns (rows, pivot_columns)."""
        m = [list(row) for row in self._m]
        nrows, ncols = self.nrows, self.ncols
        pivots = []
        r = 0
        for c in range(ncols):
            pivot_row = None
            for i in range(r, nrows):
                if m[i][c]:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = Fraction(1, 1) / Fraction(m[r][c])
            m[r] = [ratio(inv * x) for x in m[r]]
            for i in range(nrows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [ratio(a - f * b) for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return m, pivots

    def kernel_basis(self):
        """Basis of the right null space, echelon-normalized and deterministic.

        Each returned vector v satisfies self @ v = 0 exactly; the number of
        vectors is ncols - rank.
        """
        if self.ncols == 0:
            return []
        rows, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for fc in range(self.ncols):
            if fc in pivot_set:
                continue
            v = [0] * self.ncols
            v[fc] = 1
            for k, pc in enumerate(pivots):
                if rows[k][fc]:
                    v[pc] = ratio(-rows[k][fc])
            basis.append(tuple(v))
        return basis

    def solve(self, b):
        """Some x with self @ x = b, or None when b is outside the image."""
        b = [ratio(x) for x in b]
        if len(b) != self.nrows:
            raise InputError(f"rhs length {len(b)} != rows {self.nrows}")
        aug = Matrix([row + [bv] for row, bv in zip(self.rows_list(), b)]
                     if self.ncols else [[bv] for bv in b])
        rows, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [0] * self.ncols
        for k, pc in enumerate(pivots):
            x[pc] = rows[k][self.ncols]
        certify(self.apply(x) == tuple(b), "solve: the solution does not reproduce b")
        return tuple(x)

    def inverse(self):
        """Exact inverse, or None when singular; requires a square matrix."""
        if not self.is_square():
            raise InputError(f"inverse of non-square {self.shape} matrix")
        n = self.nrows
        aug = Matrix([row + [1 if i == j else 0 for j in range(n)]
                      for i, row in enumerate(self.rows_list())])
        rows, pivots = aug.rref()
        if pivots != list(range(n)):
            return None
        return Matrix([row[n:] for row in rows[:n]])

    def det(self) -> Rational:
        """Determinant by exact elimination."""
        if not self.is_square():
            raise InputError(f"determinant of non-square {self.shape} matrix")
        n = self.nrows
        m = [list(row) for row in self._m]
        sign = 1
        acc = Fraction(1)
        for c in range(n):
            pivot_row = None
            for i in range(c, n):
                if m[i][c]:
                    pivot_row = i
                    break
            if pivot_row is None:
                return 0
            if pivot_row != c:
                m[c], m[pivot_row] = m[pivot_row], m[c]
                sign = -sign
            pivot = Fraction(m[c][c])
            acc *= pivot
            for i in range(c + 1, n):
                if m[i][c]:
                    f = Fraction(m[i][c]) / pivot
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return ratio(sign * acc)
