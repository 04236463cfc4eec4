"""Sparse exact-rational matrices: one elimination for rank, kernels, solving.

Entries are Python ints or fractions.Fraction, never floats, so every
comparison in the package is exact equality.  Each row is stored as a dict
of its nonzero entries, so products, applications and comparisons touch
only nonzeros.

One routine, eliminate(), is a sparse Gauss-Jordan elimination on rows
scaled to integers.  Over Q it yields the reduced row echelon form, which
is canonical, so the pivots, kernel bases and solutions read off it are
deterministic.  Most nonempty rows of the coboundary matrices of a diagonal
operator hold one entry; eliminate takes the one-entry rows first and
settles each by a lookup, with no arithmetic, and the kernel check of
certified_rank passes each by a lookup too.  A matrix eliminates itself at
most once and keeps the integral output as its one echelon form (basis,
leads, kept, rows): the reduced row and leading entry of each pivot column,
the indices of the rows kept, and the rows eliminated, which _integral
scaled to integers without the empty rows (most rows of a coboundary
matrix), or, in a matrix of ints that Matrix._int_rows made, only dropped.
rank and pivot_columns read it as it is, and null_space divides by the
leads.  certified_rank, which cochain.cohomology and
doubling.complement_certificate call for every rank they report, returns
the rank checked by two routes on the form null_space reads: the rows
against the null space vectors over one common denominator, with no product
matrix (an upper bound), and the kept rows restricted to the pivot columns,
an r x r minor eliminated modulo the prime 2^61 - 1 (a lower bound).
solve(b) eliminates, with b as one more column, only the rows that shared
columns connect to a nonzero of b.
"""

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError, certify, too_long_to_print

# Exact scalar: int or Fraction.  Fractions with denominator 1 are
# normalized back to int by ratio().
Rational = int | Fraction

# The Mersenne prime 2^61 - 1: the modulus of the independent rank route.
MODULUS = (1 << 61) - 1

# A rational string: an optional minus sign, ASCII digits, then optionally
# a slash and ASCII digits.
_RATIONAL_STRING = re.compile(r"-?[0-9]+(/[0-9]+)?")


def ratio(x) -> Rational:
    """Coerce x to an exact rational, refusing floats; an int subclass
    (other than bool, which is refused) becomes a plain int."""
    if type(x) is int:
        return x
    if isinstance(x, bool):
        raise InputError("booleans are not rationals")
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise InputError(f"not an exact rational: {x!r} of type {type(x).__name__}")


def rational_from_json(v) -> Rational:
    """Decode an int (as a plain int) or a 'p/q' string."""
    if isinstance(v, bool):
        raise InputError(f"not a rational: {v!r}")
    if isinstance(v, int):
        return int(v)
    if isinstance(v, str):
        if not _RATIONAL_STRING.fullmatch(v):
            raise InputError(f"bad rational string {v!r}: use an integer or 'p/q'")
        try:
            return ratio(Fraction(v))
        except (ZeroDivisionError, ValueError) as exc:    # past the int-digit limit
            raise InputError(f"bad rational string {v!r}: {exc}") from exc
    raise InputError(f"not a rational: {v!r} (use an int or a 'p/q' string)")


def json_array(data, what) -> list:
    """data itself when it is a JSON array; a string is never read as one."""
    if not isinstance(data, list):
        raise InputError(f"{what} must be a JSON array, got {data!r}")
    return data


def json_object(data, what, required, optional={}) -> list:
    """The values of data's required keys, then of its optional keys or their
    defaults; data must be a JSON object with no key outside the two."""
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object, got {data!r}")
    try:
        values = [data[key] for key in required]
    except KeyError as exc:
        raise InputError(f"missing key {exc.args[0]!r} in {what}") from exc
    # an object of exactly the required keys needs no key-set comparison
    if len(data) > len(required) and (unknown := data.keys() - required - optional.keys()):
        raise InputError(f"unknown key {min(unknown)!r} in {what}")
    if optional:
        values += [data.get(key, default) for key, default in optional.items()]
    return values


def rationals_from_json(data, what) -> list:
    """Decode a JSON array of rationals; an int entry is taken as it is."""
    return [v if type(v) is int else rational_from_json(v) for v in json_array(data, what)]


def rational_to_json(x: Rational):
    x = ratio(x)
    return x if isinstance(x, int) else rational_str(x)


def rational_str(x: Rational) -> str:
    """str(rational_to_json(x)); InputError past the int-to-string digit limit."""
    x = ratio(x)
    try:
        return str(x) if isinstance(x, int) else f"{x.numerator}/{x.denominator}"
    except ValueError as exc:
        raise too_long_to_print(exc) from exc


def _exact(x) -> Rational:
    """x with a Fraction of denominator 1 turned back into an int."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _nonzero(acc) -> dict:
    """The nonzero entries of a row dict, each made exact by _exact."""
    return {j: _exact(x) for j, x in acc.items() if x}


def _quotient(x: Rational, d: int) -> Rational:
    """x / d exactly, an int where it is one."""
    return x // d if x % d == 0 else Fraction(x, d)


def _integral(rows):
    """Each nonzero row dict times the lcm of its denominators, all ints, so
    a Fraction of denominator 1 becomes one too; empty rows are dropped, so
    no elimination, residue copy or kernel check sees them."""
    scaled = []
    for row in filter(None, rows):
        dens = [x.denominator for x in row.values() if type(x) is Fraction]
        scaled.append({j: x.numerator * (lcm(*dens) // x.denominator) for j, x in row.items()}
                      if dens else row)
    return scaled


def eliminate(rows, modulus=0):
    """Sparse Gauss-Jordan elimination of integer rows over Q, or GF(modulus).

    rows is a list of dicts {column: nonzero int}, left unchanged; over
    GF(modulus) the entries lie in range(modulus).  The callers pass the
    nonempty rows of _integral() or Matrix._int_rows.  Rows are taken
    shortest first, to keep fill-in low, and each is reduced by the rows
    kept so far.  A row left nonzero is kept, its first column becomes a
    pivot, and that column is cleared from the kept rows holding it, which
    a column-occupancy index names: no pass scans all pairs of pivots, and
    fill-in never leaves the block of rows that shared columns connect.
    The arithmetic is integral: over Q a kept row is divided by the gcd of
    its entries, with a positive lead, and over GF(modulus) it is scaled to
    lead with 1.  The one-entry rows come first, while every pivot's
    reduced row is empty, so each is settled by a lookup with no arithmetic:
    dropped if its column is a pivot, else kept as that pivot with an empty
    reduced row and lead 1, just as the general loop would leave it.

    Returns (basis, leads, kept).  basis maps each pivot column to the rest
    of its reduced row and leads maps it to the row's entry there, so
    {c: 1} | {j: x / leads[c]} for increasing c are the nonzero rows of the
    reduced row echelon form.  kept lists the indices into rows of the rows
    left nonzero, in the order they were kept; they span the row space.
    """
    basis, leads, kept = {}, {}, []
    holders = {}        # non-pivot column -> pivots whose reduced row holds it
    for i in sorted(range(len(rows)), key=list(map(len, rows)).__getitem__):
        if len(rows[i]) == 1:
            # only empty and one-entry rows came before, so every pivot's
            # reduced row is empty: a pivot c drops {c: x}, and otherwise
            # the row scales to {c: 1}
            c, = rows[i]
            if c not in basis:
                basis[c], leads[c] = {}, 1
                kept.append(i)
            continue
        row = dict(rows[i])
        for c in [c for c in row if c in basis]:
            f = row.pop(c)
            if leads[c] != 1:
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
        kept.append(i)
        pivot = min(row)
        lead = row.pop(pivot)
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
            held = basis[q]
            f = held.pop(pivot)
            if lead != 1:
                leads[q] *= lead
                for j in held:
                    held[j] *= lead
            for j, x in row.items():
                v = held.get(j, 0) - f * x
                if modulus:
                    v %= modulus
                if v:
                    if j not in held:
                        holders.setdefault(j, set()).add(q)
                    held[j] = v
                else:
                    del held[j]
                    holders[j].discard(q)
            if not modulus:
                g = gcd(leads[q], *held.values())
                if g != 1:
                    leads[q] //= g
                    for j in held:
                        held[j] //= g
        basis[pivot] = row
        leads[pivot] = lead
        for j in row:
            holders.setdefault(j, set()).add(pivot)
    return basis, leads, kept


def certified_rank(m: "Matrix") -> int:
    """m.rank(), certified by two routes on m's echelon form (basis, leads,
    kept, rows); InternalError when either fails.

    Upper bound: the integral rows, which the exact elimination read, must
    annihilate the null_space() vector of every free column f, that is
    r[f] = sum_c r[c] basis[c][f] / leads[c] over the pivots c for each
    such row r.  This is checked in int arithmetic over den = lcm(leads),
    with basis[c] scaled by den // leads[c], so the rank over Q is at most
    m.rank(); null_space() reads the same basis and leads, so the kernel it
    builds is the one checked here.  A one-entry row {c: x} gives
    x v_f[c], which is 0 for every f when c is a pivot with an empty reduced
    row: such a row passes by that lookup, and any other goes through the
    sum.
    Lower bound: the r rows the elimination kept, restricted to its r pivot
    columns, must have rank m.rank() modulo the prime MODULUS.  Over Q that
    minor is invertible, since the reduced rows are an invertible
    combination of the kept rows and are diagonal on the pivots; a minor
    nonsingular modulo a prime is nonsingular over Q, so the rank over Q is
    at least m.rank().  A row whose pivot entries the prime all divide is
    divided by it first, which keeps the rank over Q.  The route reads only
    the indices of the exact elimination, none of its arithmetic: a wrong
    row or pivot can only make the minor singular, and then the rank is
    refused.
    """
    basis, leads, kept, rows = m._reduced()
    den = lcm(*leads.values())
    scaled = basis if den == 1 else {
        c: {f: y * (den // leads[c]) for f, y in rest.items()} for c, rest in basis.items()}
    for row in rows:
        if len(row) == 1:
            # row . v_f = x v_f[c] for a row {c: x}: 0 for every free column
            # f when c is a pivot whose reduced row is empty
            c, = row
            if basis.get(c) == {}:
                continue
        # den (row . v_f) for each free column f: den row[f] - sum_c row[c] scaled[c][f]
        acc = {}
        for c, x in row.items():
            rest = scaled.get(c)
            if rest is None:
                acc[c] = acc.get(c, 0) + den * x
            else:
                for f, y in rest.items():
                    acc[f] = acc.get(f, 0) - x * y
        certify(not any(acc.values()), "null space vector is not annihilated")
    minor = [{j: r for j, x in rows[i].items() if j in basis and (r := x % MODULUS)}
             for i in kept]
    for p in [p for p, residues in enumerate(minor) if not residues]:
        row = {j: x for j, x in rows[kept[p]].items() if j in basis}
        while row and not minor[p]:     # the prime divides the row's pivot entries
            row = {j: x // MODULUS for j, x in row.items()}
            minor[p] = {j: r for j, x in row.items() if (r := x % MODULUS)}
    rank = m.rank()
    certify(len(eliminate(minor, MODULUS)[0]) == rank,
            "rank mod p and rank over Q disagree")
    return rank


class Matrix:
    """Immutable sparse matrix over the rationals: one dict of nonzeros per row."""

    __slots__ = ("nrows", "ncols", "_rows", "_echelon", "_ints")

    def __init__(self, rows):
        self._fill([[ratio(x) for x in row] for row in rows])

    @classmethod
    def _exact_rows(cls, rows):
        """Matrix(rows) for rows already exact, as a JSON decoder returns them."""
        return cls.__new__(cls)._fill(rows)

    def _fill(self, rows):
        width = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                raise InputError("ragged rows in matrix")
        self.nrows = len(rows)
        self.ncols = width
        self._rows = [{j: x for j, x in enumerate(row) if x} for row in rows]
        self._echelon, self._ints = None, False
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def from_sparse(cls, rows, ncols):
        """The matrix whose rows are the dicts {column: nonzero exact rational}.

        For code assembling a matrix entry by entry: the dicts are taken
        over as they are, not copied or checked.
        """
        m = cls.__new__(cls)
        m.nrows, m.ncols, m._rows, m._echelon, m._ints = len(rows), ncols, rows, None, False
        return m

    @classmethod
    def _int_rows(cls, rows, ncols):
        """from_sparse for rows of nonzero ints, which are eliminated as they
        are: only the empty rows are dropped, with no _integral scan."""
        m = cls.from_sparse(rows, ncols)
        m._ints = True
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
    def from_columns(cls, columns):
        columns = [list(c) for c in columns]
        rows = [{} for _ in (columns[0] if columns else ())]
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

    def transpose(self):
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self._rows):
            for j, x in row.items():
                cols[j][i] = x
        return Matrix.from_sparse(cols, self.nrows)

    # -- elimination: thin wrappers over eliminate() -------------------

    def _reduced(self):
        """The one echelon form (basis, leads, kept, rows), computed once:
        eliminate() on rows, self's nonempty rows scaled by _integral, or
        taken as they are in a matrix made by _int_rows."""
        if self._echelon is None:
            rows = list(filter(None, self._rows)) if self._ints else _integral(self._rows)
            self._echelon = (*eliminate(rows), rows)
        return self._echelon

    def rank(self) -> int:
        """Rank over Q: the number of pivots."""
        return len(self._reduced()[0])

    def pivot_columns(self) -> tuple:
        """The pivot columns of the reduced row echelon form, increasing."""
        return tuple(sorted(self._reduced()[0]))

    def null_space(self):
        """A basis of the right null space as the rows of a matrix.

        One row per free column f, in increasing order: 1 at f, minus the
        reduced row echelon entry of column f at each pivot, 0 elsewhere.
        The basis is echelon-normalized and deterministic, each row v
        satisfies self @ v = 0 exactly, and there are ncols - rank rows.
        """
        basis, leads, _, _ = self._reduced()
        vectors = {f: {f: 1} for f in range(self.ncols) if f not in basis}
        for c in sorted(basis):
            for f, x in basis[c].items():
                vectors[f][c] = _quotient(-x, leads[c])
        return Matrix.from_sparse(list(vectors.values()), self.ncols)

    def kernel_basis(self):
        """The rows of null_space() as tuples."""
        null = self.null_space()
        return [null.row(i) for i in range(null.nrows)]

    def solve(self, b):
        """Some x with self @ x = b, or None when b is outside the image.

        The rows that shared columns connect to a nonzero of b are the blocks
        of the echelon form that hold b, so only they are eliminated; x is
        the one the whole matrix gives, and self @ x = b is checked on every row.
        """
        b = [ratio(x) for x in b]
        if len(b) != self.nrows:
            raise InputError(f"rhs length {len(b)} != rows {self.nrows}")
        holders = {}
        for i, row in enumerate(self._rows):
            for j in row:
                holders.setdefault(j, []).append(i)
        reached = {i for i, bv in enumerate(b) if bv}
        stack = list(reached)
        while stack:
            for j in self._rows[stack.pop()]:
                for i in holders.pop(j, ()):
                    if i not in reached:
                        reached.add(i)
                        stack.append(i)
        n = self.ncols
        basis, leads, _ = eliminate(_integral([{**self._rows[i], n: b[i]} if b[i] else
                                               self._rows[i] for i in sorted(reached)]))
        if n in basis:
            return None
        x = [0] * n
        for c, rest in basis.items():
            x[c] = _quotient(rest.get(n, 0), leads[c])
        certify(self.apply(x) == tuple(b), "solve: the solution does not reproduce b")
        return tuple(x)

    def inverse(self):
        """Exact inverse, or None when singular; requires a square matrix."""
        if self.nrows != self.ncols:
            raise InputError(f"inverse of non-square {self.shape} matrix")
        n = self.nrows
        basis, leads, _ = eliminate(_integral([{**row, n + i: 1}
                                               for i, row in enumerate(self._rows)]))
        if any(c >= n for c in basis):
            return None
        return Matrix.from_sparse([{j - n: _quotient(x, leads[c]) for j, x in basis[c].items()}
                                   for c in range(n)], n)
