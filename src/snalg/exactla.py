"""Exact scalars and dense linear algebra over Q and prime fields.

Scalars are plain Python values: `Fraction` over the rationals, `int` in
[0, p) over a prime field.  In both representations a scalar is falsy
exactly when it is zero, which the elimination routines rely on.

The workhorses are `DenseMatrix` (rank, nullspace, solve via exact Gaussian
elimination) and `SpanBasis` (an incrementally maintained reduced echelon
basis of a subspace, supporting membership, equality, sums and
intersection dimensions).  Over Q, `SpanBasis` stores each row as a sparse
primitive integer vector and eliminates by cross-multiplication, in the
fraction-free manner of Bareiss, so it does no `Fraction` arithmetic.  Its
answers are still exact over Q, not modular: each step multiplies a vector
by a nonzero integer, which changes no span.  `min_dependency` finds the
first linear dependency in a vector sequence, the engine behind minimal
polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence

__all__ = [
    "QQ",
    "GF",
    "RationalField",
    "PrimeField",
    "DenseMatrix",
    "SpanBasis",
    "ExtendRequired",
    "min_dependency",
    "rank",
    "nullspace",
    "solve",
    "span_insert",
    "span_contains",
    "span_equal",
    "span_sum_rank",
    "span_intersection_dim",
    "require_invertible_factorial",
]


class RationalField:
    """The field of rationals; scalars are `Fraction` values."""

    characteristic = 0
    name = "Q"

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def normalize(self, x) -> Fraction:
        return x if isinstance(x, Fraction) else Fraction(x)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def inv(self, x: Fraction) -> Fraction:
        if not x:
            raise ZeroDivisionError("inverse of zero")
        return 1 / self.normalize(x)

    def scalar_str(self, x: Fraction) -> str:
        x = self.normalize(x)
        return f"{x.numerator}/{x.denominator}"

    def scalar_from_str(self, s: str) -> Fraction:
        return Fraction(s)

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")


class PrimeField:
    """The field of integers mod a prime p; scalars are ints in [0, p)."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"F{p}"

    zero = 0
    one = 1

    def normalize(self, x) -> int:
        if isinstance(x, Fraction):
            return self.normalize(x.numerator) * self.inv(x.denominator % self.p) % self.p
        return int(x) % self.p

    def from_int(self, k: int) -> int:
        return k % self.p

    def inv(self, x: int) -> int:
        x %= self.p
        if not x:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, -1, self.p)

    def scalar_str(self, x: int) -> str:
        return str(x % self.p)

    def scalar_from_str(self, s: str) -> int:
        if "/" in s:
            num, den = s.split("/")
            return self.normalize(Fraction(int(num), int(den)))
        return int(s) % self.p

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def require_invertible_factorial(field, n: int) -> None:
    """Raise unless n! is invertible in the field."""
    p = field.characteristic
    if p and gcd(factorial(n), p) != 1:
        raise ValueError(f"modulus {p} divides {n}!")


def _axpy(field, dst: list, src: Sequence, c) -> None:
    """dst += c * src, in place."""
    p = field.characteristic
    if p == 0:
        for j, s in enumerate(src):
            if s:
                dst[j] += c * s
    else:
        for j, s in enumerate(src):
            if s:
                dst[j] = (dst[j] + c * s) % p


def _scale(field, row: list, c) -> None:
    p = field.characteristic
    if p == 0:
        for j, x in enumerate(row):
            if x:
                row[j] = x * c
    else:
        for j, x in enumerate(row):
            if x:
                row[j] = x * c % p


class DenseMatrix:
    """A dense matrix over an exact field; rows of scalars."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows: Iterable[Iterable], ncols: Optional[int] = None):
        self.field = field
        self.rows = [[field.normalize(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        if self.rows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols disagrees with row length")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit ncols")
            self.ncols = ncols

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "DenseMatrix":
        return cls(field, [[field.zero] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n: int) -> "DenseMatrix":
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(
            self.field,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            self.nrows,
        )

    def _rref(self, rows: list[list], limit_cols: Optional[int] = None) -> list[int]:
        """Reduce `rows` in place to reduced row echelon form; return pivot
        columns.  Columns at `limit_cols` and beyond never host pivots (used
        for augmented solves)."""
        field = self.field
        ncols = len(rows[0]) if rows else 0
        stop = ncols if limit_cols is None else limit_cols
        pivots = []
        r = 0
        for col in range(stop):
            if r == len(rows):
                break
            best = next((i for i in range(r, len(rows)) if rows[i][col]), -1)
            if best < 0:
                continue
            rows[r], rows[best] = rows[best], rows[r]
            piv = rows[r]
            c = piv[col]
            if c != field.one:
                _scale(field, piv, field.inv(c))
            for i, row in enumerate(rows):
                if i != r and row[col]:
                    _axpy(field, row, piv, -row[col] if field.characteristic == 0
                          else field.p - row[col])
            pivots.append(col)
            r += 1
        return pivots

    def rref(self) -> tuple["DenseMatrix", list[int]]:
        rows = [row[:] for row in self.rows]
        pivots = self._rref(rows)
        out = DenseMatrix.zeros(self.field, 0, self.ncols)
        out.rows = rows
        out.nrows = len(rows)
        return out, pivots

    def rank(self) -> int:
        rows = [row[:] for row in self.rows]
        return len(self._rref(rows))

    def nullspace(self) -> list[list]:
        """Basis of {x : self·x = 0}."""
        field = self.field
        rows = [row[:] for row in self.rows]
        pivots = self._rref(rows)
        pivot_set = set(pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            vec = [field.zero] * self.ncols
            vec[free] = field.one
            for i, pc in enumerate(pivots):
                x = rows[i][free]
                if x:
                    vec[pc] = field.normalize(-x)
            basis.append(vec)
        return basis

    def solve(self, rhs: Sequence) -> Optional[list]:
        """Some x with self·x = rhs, or None if inconsistent."""
        if len(rhs) != self.nrows:
            raise ValueError("rhs length mismatch")
        field = self.field
        rows = [row[:] + [field.normalize(b)] for row, b in zip(self.rows, rhs)]
        if not rows:
            return [] if self.ncols == 0 else [field.zero] * self.ncols
        pivots = self._rref(rows, limit_cols=self.ncols)
        npiv = len(pivots)
        for row in rows[npiv:]:
            if row[self.ncols]:
                return None
        x = [field.zero] * self.ncols
        for i, pc in enumerate(pivots):
            x[pc] = rows[i][self.ncols]
        return x

    def matvec(self, x: Sequence) -> list:
        if len(x) != self.ncols:
            raise ValueError("vector length mismatch")
        field = self.field
        out = []
        for row in self.rows:
            acc = field.zero
            for a, b in zip(row, x):
                if a and b:
                    acc += a * b
            out.append(field.normalize(acc))
        return out

    def __repr__(self) -> str:
        return f"DenseMatrix({self.field!r}, {self.nrows}x{self.ncols})"


def rank(m: DenseMatrix) -> int:
    return m.rank()


def nullspace(m: DenseMatrix) -> list[list]:
    return m.nullspace()


def solve(m: DenseMatrix, rhs: Sequence) -> Optional[list]:
    return m.solve(rhs)


def _integer_vector(v: Sequence) -> list[int]:
    """A nonzero integer multiple of the rational vector v (v itself when
    its entries are integers)."""
    try:
        nums = [x.numerator for x in v]
    except AttributeError:  # floats, strings: anything Fraction accepts
        return _integer_vector([Fraction(x) for x in v])
    # a zero numerator means denominator 1; most entries are zero
    den = lcm(*[x.denominator for x, num in zip(v, nums) if num])
    if den == 1:
        return nums
    return [x.numerator * (den // x.denominator) for x in v]


class SpanBasis:
    """A subspace kept as a reduced echelon basis.

    Every other stored row vanishes at a row's pivot column, and rows are
    ordered by pivot column.  Over a prime field a row is a list of scalars
    with pivot entry 1.  Over Q a row is a primitive integer vector (its
    entries have gcd 1) with a positive pivot entry, kept sparse as a
    {column: nonzero int} dict: the reduced echelon row times the one
    positive rational that makes it so.  Either way the stored rows are
    unique to the span, so equality of subspaces is equality of stored rows.

    Over Q no `Fraction` arithmetic happens.  A vector is cleared of
    denominators on entry, which does not change the line it spans.
    Reducing v by a row with pivot entry d and c = v[pivot] replaces v by
    (d/g)·v − (c/g)·row with g = gcd(c, d): integer arithmetic that scales
    v by a nonzero integer, so the reduced vector is zero exactly when v
    lies in the span.  Rank, membership and equality are therefore exact
    over Q, with no modular step.  The `rows` property converts back to
    pivot-1 rows of field scalars.
    """

    __slots__ = ("field", "ambient", "_rows", "_pivots")

    def __init__(self, field, ambient: int):
        self.field = field
        self.ambient = ambient
        self._rows: list = []
        self._pivots: list[int] = []

    def rank(self) -> int:
        return len(self._rows)

    def _dense_rows(self) -> list[list]:
        """The stored rows as dense lists (integers over Q)."""
        if self.field.characteristic:
            return [row[:] for row in self._rows]
        dense = []
        for row in self._rows:
            vec = [0] * self.ambient
            for j, x in row.items():
                vec[j] = x
            dense.append(vec)
        return dense

    @property
    def rows(self) -> list[list]:
        """The reduced echelon rows, pivot entry 1, as field scalars."""
        if self.field.characteristic:
            return self._dense_rows()
        return [
            [Fraction(x, row[pc]) for x in row]
            for row, pc in zip(self._dense_rows(), self._pivots)
        ]

    @property
    def pivots(self) -> list[int]:
        return self._pivots[:]

    def _entry(self, v: Sequence) -> list:
        """v as a dense list: field scalars over F_p, an integer multiple
        of v over Q."""
        if len(v) != self.ambient:
            raise ValueError(f"vector length {len(v)} != ambient {self.ambient}")
        field = self.field
        if field.characteristic:
            return [field.normalize(x) for x in v]
        return _integer_vector(v)

    def _reduce(self, v: list) -> list:
        """v minus its components along the stored rows; over Q the result
        is scaled by a nonzero integer."""
        field = self.field
        p = field.characteristic
        if p:
            for row, pc in zip(self._rows, self._pivots):
                c = v[pc]
                if c:
                    _axpy(field, v, row, p - c)
            return v
        for row, pc in zip(self._rows, self._pivots):
            c = v[pc]
            if c:
                d = row[pc]
                g = gcd(c, d)
                a, b = d // g, c // g
                if a != 1:
                    v = [a * x for x in v]
                for j, y in row.items():
                    v[j] -= b * y
        return v

    def insert(self, v: Sequence) -> bool:
        """Add v to the span; True iff the rank grew."""
        field = self.field
        v = self._reduce(self._entry(v))
        col = next((j for j, x in enumerate(v) if x), -1)
        if col < 0:
            return False
        rows = self._rows
        if field.characteristic:
            c = v[col]
            if c != field.one:
                _scale(field, v, field.inv(c))
            for row in rows:
                x = row[col]
                if x:
                    _axpy(field, row, v, field.p - x)
        else:
            g = gcd(*v) if v[col] > 0 else -gcd(*v)
            v = {j: x // g for j, x in enumerate(v) if x}
            d = v[col]
            for i, row in enumerate(rows):
                x = row.get(col)
                if x:
                    # row <- (d/g)·row - (x/g)·v; d/g > 0 keeps the row's
                    # own pivot entry positive, and v is 0 there
                    g = gcd(x, d)
                    a, b = d // g, x // g
                    if a != 1:
                        row = {j: a * y for j, y in row.items()}
                    for j, z in v.items():
                        y = row.get(j, 0) - b * z
                        if y:
                            row[j] = y
                        else:
                            del row[j]
                    g = gcd(*row.values())
                    rows[i] = row if g == 1 else {j: y // g for j, y in row.items()}
        at = next((i for i, pc in enumerate(self._pivots) if pc > col),
                  len(self._pivots))
        rows.insert(at, v)
        self._pivots.insert(at, col)
        return True

    def contains(self, v: Sequence) -> bool:
        return not any(self._reduce(self._entry(v)))

    def residual(self, v: Sequence) -> list:
        """v minus the combination of stored rows that agrees with it at
        every pivot column, as field scalars (zero iff contained)."""
        field = self.field
        if len(v) != self.ambient:
            raise ValueError(f"vector length {len(v)} != ambient {self.ambient}")
        v = [field.normalize(x) for x in v]
        for row, pc in zip(self.rows, self._pivots):
            c = v[pc]
            if c:
                _axpy(field, v, row, -c if field.characteristic == 0 else field.p - c)
        return v

    def copy(self) -> "SpanBasis":
        s = SpanBasis(self.field, self.ambient)
        s._rows = [row.copy() for row in self._rows]
        s._pivots = self._pivots[:]
        return s

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpanBasis)
            and self.field == other.field
            and self.ambient == other.ambient
            and self._rows == other._rows
        )

    def __hash__(self):
        return NotImplemented

    def __repr__(self) -> str:
        return f"SpanBasis({self.field!r}, ambient={self.ambient}, rank={self.rank()})"


def span_insert(s: SpanBasis, v: Sequence) -> bool:
    return s.insert(v)


def span_contains(s: SpanBasis, v: Sequence) -> bool:
    return s.contains(v)


def span_equal(s: SpanBasis, t: SpanBasis) -> bool:
    if s.field != t.field or s.ambient != t.ambient:
        raise ValueError("spans live in different ambient spaces")
    return s == t


def span_sum_rank(s: SpanBasis, t: SpanBasis) -> int:
    if s.field != t.field or s.ambient != t.ambient:
        raise ValueError("spans live in different ambient spaces")
    u = s.copy()
    for row in t._dense_rows():
        u.insert(row)
    return u.rank()


def span_intersection_dim(s: SpanBasis, t: SpanBasis) -> int:
    return s.rank() + t.rank() - span_sum_rank(s, t)


class ExtendRequired(Exception):
    """Raised by min_dependency when the given vectors are independent."""


def min_dependency(vectors: Sequence[Sequence], field=QQ) -> list:
    """Coefficients (c_0, ..., c_m) of the first linear dependency
    c_0 v_0 + ... + c_m v_m = 0 with c_m = 1 and m minimal.  Raises
    ExtendRequired if the whole sequence is independent."""
    if not vectors:
        raise ValueError("empty vector sequence")
    rows: list[list] = []  # reduced echelon rows, pivot entry 1
    pivots: list[int] = []
    history: list[list] = []  # stored rows' coordinates in the inputs
    for m, v in enumerate(vectors):
        v = [field.normalize(x) for x in v]
        coords = [field.zero] * m + [field.one]
        for row, pc, hist in zip(rows, pivots, history):
            c = v[pc]
            if c:
                neg = -c if field.characteristic == 0 else field.p - c
                _axpy(field, v, row, neg)
                if len(hist) < len(coords):
                    hist += [field.zero] * (len(coords) - len(hist))
                _axpy(field, coords, hist, neg)
        col = next((j for j, x in enumerate(v) if x), -1)
        if col < 0:
            # invariant: sum_j coords[j] v_j = reduced v = 0, coords[m] = 1
            return coords
        inv = field.inv(v[col])
        if inv != field.one:
            _scale(field, v, inv)
            _scale(field, coords, inv)
        at = next((i for i, pc in enumerate(pivots) if pc > col), len(pivots))
        rows.insert(at, v)
        pivots.insert(at, col)
        history.insert(at, coords)
    raise ExtendRequired(f"{len(vectors)} vectors are linearly independent")
