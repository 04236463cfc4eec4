"""Sparse exact-rational matrices: one elimination for rank, kernels, solving.

Entries are Python ints or fractions.Fraction, never floats, so every
comparison in the package is exact equality.  Each row is stored as a dict
of its nonzero entries, so products, applications and comparisons touch
only nonzeros.

One routine, eliminate(), is a sparse Gauss-Jordan elimination on rows
scaled to integers.  Over Q it yields the reduced row echelon form, which
is canonical, so the pivots, kernel bases and solutions read off it are
deterministic; rank, pivot_columns, rref, null_space, kernel_basis,
solve, inverse and det are thin wrappers over it, and a matrix eliminates
itself at most once.  Run modulo the prime 2^61 - 1, the same routine
gives rank_mod_p, a lower bound on the rank over Q by other arithmetic,
with which cochain.cohomology certifies every rank it reports.
"""

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError, certify

# Exact scalar: int or Fraction.  Fractions with denominator 1 are
# normalized back to int by ratio().
Rational = int | Fraction

# The Mersenne prime 2^61 - 1: the modulus of the independent rank route.
MODULUS = (1 << 61) - 1

# A rational string: an optional minus sign, ASCII digits, then optionally
# a slash and ASCII digits.
_RATIONAL_STRING = re.compile(r"-?[0-9]+(/[0-9]+)?")


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
        if not _RATIONAL_STRING.fullmatch(v):
            raise InputError(f"bad rational string {v!r}: use an integer or 'p/q'")
        try:
            return ratio(Fraction(v))
        except ZeroDivisionError as exc:
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


def _exact(x) -> Rational:
    """x with a Fraction of denominator 1 turned back into an int."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _nonzero(acc) -> dict:
    """The nonzero entries of a row dict, each made exact by _exact."""
    return {j: _exact(x) for j, x in acc.items() if x}


def _quotient(x: int, d: int) -> Rational:
    return x // d if x % d == 0 else Fraction(x, d)


def _integral(rows):
    """Each row dict times the lcm of its denominators, and those multipliers."""
    scaled, mults = [], []
    for row in rows:
        mult = lcm(*[x.denominator for x in row.values() if type(x) is Fraction])
        scaled.append(row if mult == 1 else
                      {j: x.numerator * (mult // x.denominator) for j, x in row.items()})
        mults.append(mult)
    return scaled, mults


def eliminate(rows, modulus=0):
    """Sparse Gauss-Jordan elimination of integer rows over Q, or GF(modulus).

    rows is a list of dicts {column: nonzero int}, left unchanged; over
    GF(modulus) the entries lie in range(modulus).  Rows are taken
    shortest first, to keep fill-in low, and each is reduced by the rows
    kept so far.  A row left nonzero is kept, its first column becomes a
    pivot, and that column is cleared from the kept rows holding it, which
    a column-occupancy index names: no pass scans all pairs of pivots, and
    fill-in never leaves the block of rows that shared columns connect.
    The arithmetic is integral: over Q a kept row is divided by the gcd of
    its entries, with a positive lead, and over GF(modulus) it is scaled to
    lead with 1.

    Returns (basis, leads, found).  basis maps each pivot column to the
    rest of its kept row and leads maps it to the row's entry there, so
    {c: 1} | {j: x / leads[c]} for increasing c are the nonzero rows of the
    reduced row echelon form.  found maps each pivot to the index of the
    input row that produced it and that row's leading entry at the time,
    in the scale of the input: the factors of a determinant.
    """
    basis, leads, found = {}, {}, {}
    holders = {}        # non-pivot column -> pivots whose kept row holds it
    for index in sorted(range(len(rows)), key=lambda i: len(rows[i])):
        row = dict(rows[index])
        scale = 1       # row = scale * (input row + kept rows so far)
        for c in [c for c in row if c in basis]:
            f = row.pop(c)
            if leads[c] != 1:
                scale *= leads[c]
                for j in row:
                    row[j] *= leads[c]
            for j, x in basis[c].items():
                v = row.get(j, 0) - f * x
                if modulus:
                    v %= modulus
                if v:
                    row[j] = v
                else:
                    del row[j]
        if not row:
            continue
        pivot = min(row)
        lead = row.pop(pivot)
        found[pivot] = (index, lead if scale == 1 else Fraction(lead, scale))
        if modulus:
            inv = pow(lead, -1, modulus)
            row = {j: x * inv % modulus for j, x in row.items()}
            lead = 1
        else:
            g = gcd(lead, *row.values())
            if lead < 0:
                g = -g
            if g != 1:
                row = {j: x // g for j, x in row.items()}
                lead //= g
        for q in holders.pop(pivot, ()):
            kept = basis[q]
            f = kept.pop(pivot)
            if lead != 1:
                leads[q] *= lead
                for j in kept:
                    kept[j] *= lead
            for j, x in row.items():
                v = kept.get(j, 0) - f * x
                if modulus:
                    v %= modulus
                if v:
                    if j not in kept:
                        holders.setdefault(j, set()).add(q)
                    kept[j] = v
                else:
                    del kept[j]
                    holders[j].discard(q)
            if not modulus:
                g = gcd(leads[q], *kept.values())
                if g != 1:
                    leads[q] //= g
                    for j in kept:
                        kept[j] //= g
        basis[pivot] = row
        leads[pivot] = lead
        for j in row:
            holders.setdefault(j, set()).add(pivot)
    return basis, leads, found


def rank_mod_p(m: "Matrix") -> int:
    """Rank of m modulo the prime MODULUS, each row scaled to integers first.

    Scaling a row by the lcm of its denominators keeps the rank over Q, and
    a rank modulo a prime never exceeds the rank over Q, so this is a lower
    bound on m.rank() from an elimination sharing no arithmetic with it.
    """
    rows = []
    for row in _integral(m._rows)[0]:
        scaled = {j: x % MODULUS for j, x in row.items()}
        rows.append({j: x for j, x in scaled.items() if x})
    return len(eliminate(rows, MODULUS)[0])


class Matrix:
    """Immutable sparse matrix over the rationals: one dict of nonzeros per row."""

    __slots__ = ("nrows", "ncols", "_rows", "_echelon")

    def __init__(self, rows):
        rows = [[ratio(x) for x in row] for row in rows]
        width = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                raise InputError("ragged rows in matrix")
        self.nrows = len(rows)
        self.ncols = width
        self._rows = [{j: x for j, x in enumerate(row) if x} for row in rows]
        self._echelon = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_sparse(cls, rows, ncols):
        """The matrix whose rows are the dicts {column: nonzero exact rational}.

        For code assembling a matrix entry by entry: the dicts are taken
        over as they are, not copied or checked.
        """
        m = cls.__new__(cls)
        m.nrows, m.ncols, m._rows, m._echelon = len(rows), ncols, rows, None
        return m

    @classmethod
    def zero(cls, nrows, ncols):
        return cls.from_sparse([{} for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, n):
        return cls.from_sparse([{i: 1} for i in range(n)], n)

    @classmethod
    def diagonal(cls, entries):
        entries = [ratio(x) for x in entries]
        return cls.from_sparse([{i: x} if x else {} for i, x in enumerate(entries)],
                               len(entries))

    @classmethod
    def from_columns(cls, columns, nrows=None):
        columns = [list(c) for c in columns]
        if not columns:
            return cls.zero(nrows or 0, 0)
        rows = [{} for _ in columns[0]]
        for j, col in enumerate(columns):
            if len(col) != len(rows):
                raise InputError("ragged columns in matrix")
            for row, x in zip(rows, col):
                x = ratio(x)
                if x:
                    row[j] = x
        return cls.from_sparse(rows, len(columns))

    # -- access -------------------------------------------------------

    def entry(self, i, j) -> Rational:
        return self._rows[i].get(j, 0)

    def row(self, i):
        out = [0] * self.ncols
        for j, x in self._rows[i].items():
            out[j] = x
        return tuple(out)

    def nonzeros(self, i) -> dict:
        """Row i as a dict {column: nonzero entry}."""
        return dict(self._rows[i])

    def rows_list(self):
        return [list(self.row(i)) for i in range(self.nrows)]

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    __hash__ = None

    def __repr__(self):
        if self.nrows * self.ncols > 36:
            return f"Matrix({self.nrows}x{self.ncols})"
        body = "; ".join(" ".join(rational_str(x) for x in row) for row in self.rows_list())
        return f"Matrix[{body}]"

    def is_zero(self) -> bool:
        return not any(self._rows)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    # -- arithmetic ---------------------------------------------------

    def _plus(self, other, sign, op):
        if self.shape != other.shape:
            raise InputError(f"shape mismatch {self.shape} {op} {other.shape}")
        rows = []
        for r1, r2 in zip(self._rows, other._rows):
            acc = dict(r1)
            for j, x in r2.items():
                acc[j] = acc.get(j, 0) + sign * x
            rows.append(_nonzero(acc))
        return Matrix.from_sparse(rows, self.ncols)

    def __add__(self, other):
        return self._plus(other, 1, "+")

    def __sub__(self, other):
        return self._plus(other, -1, "-")

    def scale(self, c: Rational):
        c = ratio(c)
        return Matrix.from_sparse([_nonzero({j: c * x for j, x in row.items()})
                                   for row in self._rows], self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise InputError(f"shape mismatch {self.shape} @ {other.shape}")
        brows = other._rows
        rows = []
        for arow in self._rows:
            acc = {}
            for k, a in arow.items():
                for j, b in brows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            rows.append(_nonzero(acc))
        return Matrix.from_sparse(rows, other.ncols)

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple."""
        vec = list(vec)
        if len(vec) != self.ncols:
            raise InputError(f"vector length {len(vec)} != cols {self.ncols}")
        out = []
        for row in self._rows:
            s = 0
            for j, a in row.items():
                v = vec[j]
                if v:
                    s += a * v
            out.append(_exact(s))
        return tuple(out)

    def clear_denominators(self):
        """self with each row multiplied by the lcm of its denominators.

        The entries become ints; the row space, the kernel and which
        products vanish stay as they were.
        """
        return Matrix.from_sparse(_integral(self._rows)[0], self.ncols)

    def transpose(self):
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self._rows):
            for j, x in row.items():
                cols[j][i] = x
        return Matrix.from_sparse(cols, self.nrows)

    # -- elimination: thin wrappers over eliminate() -------------------

    def _reduced(self):
        """(pivots, rref, found) of eliminate() over Q, computed once.

        rref maps each pivot to the rest of its reduced row echelon row;
        found is eliminate()'s, on the rows of self scaled to integers.
        """
        if self._echelon is None:
            basis, leads, found = eliminate(_integral(self._rows)[0])
            rref = {c: {j: _quotient(x, leads[c]) for j, x in rest.items()}
                    for c, rest in basis.items()}
            self._echelon = (sorted(basis), rref, found)
        return self._echelon

    def rank(self) -> int:
        """Rank over Q: the number of pivots."""
        return len(self._reduced()[0])

    def pivot_columns(self) -> tuple:
        """The pivot columns of the reduced row echelon form, increasing."""
        return tuple(self._reduced()[0])

    def rref(self):
        """Reduced row echelon form; returns (rows, pivot_columns)."""
        pivots, rref, _ = self._reduced()
        rows = []
        for c in pivots:
            row = [0] * self.ncols
            row[c] = 1
            for j, x in rref[c].items():
                row[j] = x
            rows.append(row)
        rows += [[0] * self.ncols for _ in range(self.nrows - len(pivots))]
        return rows, list(pivots)

    def null_space(self):
        """A basis of the right null space as the rows of a matrix.

        One row per free column f, in increasing order: 1 at f, minus the
        reduced row echelon entry of column f at each pivot, 0 elsewhere.
        The basis is echelon-normalized and deterministic, each row v
        satisfies self @ v = 0 exactly, and there are ncols - rank rows.
        """
        pivots, rref, _ = self._reduced()
        vectors = {f: {f: 1} for f in range(self.ncols) if f not in rref}
        for c in pivots:
            for f, x in rref[c].items():
                vectors[f][c] = -x
        return Matrix.from_sparse(list(vectors.values()), self.ncols)

    def kernel_basis(self):
        """The rows of null_space() as tuples."""
        null = self.null_space()
        return [null.row(i) for i in range(null.nrows)]

    def solve(self, b):
        """Some x with self @ x = b, or None when b is outside the image."""
        b = [ratio(x) for x in b]
        if len(b) != self.nrows:
            raise InputError(f"rhs length {len(b)} != rows {self.nrows}")
        n = self.ncols
        rows, _ = _integral([{**row, n: bv} if bv else row
                             for row, bv in zip(self._rows, b)])
        basis, leads, _ = eliminate(rows)
        if n in basis:
            return None
        x = [0] * n
        for c, rest in basis.items():
            x[c] = _quotient(rest.get(n, 0), leads[c])
        certify(self.apply(x) == tuple(b), "solve: the solution does not reproduce b")
        return tuple(x)

    def inverse(self):
        """Exact inverse, or None when singular; requires a square matrix."""
        if not self.is_square():
            raise InputError(f"inverse of non-square {self.shape} matrix")
        n = self.nrows
        rows, _ = _integral([{**row, n + i: 1} for i, row in enumerate(self._rows)])
        basis, leads, _ = eliminate(rows)
        if len(basis) < n or any(c >= n for c in basis):
            return None
        return Matrix.from_sparse([{j - n: _quotient(x, leads[c]) for j, x in basis[c].items()}
                                   for c in range(n)], n)

    def det(self) -> Rational:
        """Determinant: the product of the leading entries eliminate() found,
        taken back to the scale of self, times the sign of the permutation
        taking each row to its pivot column."""
        if not self.is_square():
            raise InputError(f"determinant of non-square {self.shape} matrix")
        _, _, found = self._reduced()
        if len(found) < self.nrows:
            return 0
        acc = Fraction(1)
        for mult in _integral(self._rows)[1]:
            acc /= mult
        order = [0] * self.nrows
        for c, (i, lead) in found.items():
            acc *= lead
            order[i] = c
        for start in range(len(order)):
            j = order[start]
            while j != start:
                # one transposition per step of each cycle
                acc = -acc
                order[start], order[j] = order[j], j
                j = order[start]
        return ratio(acc)
