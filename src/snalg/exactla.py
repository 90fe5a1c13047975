"""Exact scalars and linear algebra over Q and prime fields.

Scalars are plain Python values: `Fraction` over the rationals, `int` in
[0, p) over a prime field.  Vectors over Q may hold plain ints as well,
and enter `SpanBasis` unconverted.  A scalar is falsy exactly when it is
zero, which elimination relies on.

`SpanBasis` is the elimination kernel: an incrementally maintained reduced
echelon basis of a subspace, supporting rank, membership (a vector lies in
the span iff it reduces to zero), equality, sums and intersection
dimensions.  A vector enters as a dense sequence or as a sparse
{column: scalar} dict, such as the integer terms of a group-algebra
element.  Each row is stored as a sparse {column: int} dict keyed by its
pivot, and is zero at every other pivot, so a vector is reduced in one
pass over the rows whose pivots it touches, each multiple read off the
input (see `SpanBasis`).  Over Q elimination is fraction-free, in the
manner of Bareiss: each step multiplies a vector by a nonzero integer,
which changes no span, so the answers are exact, not modular.
`SpanBasis.insert_tagged` takes each vector of a sequence with a unit tag
appended, so the first linear dependency can be read off the tags; the
Krylov loop behind minimal polynomials uses it.
`SpanBasis.kernel` reads a nullspace basis straight off the stored rows,
one vector per free column.  `DenseMatrix` is a plain dense matrix value;
its rank and nullspace are those of the `SpanBasis` of its rows, so
`SpanBasis` is the only elimination in the package.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

__all__ = [
    "QQ",
    "GF",
    "RationalField",
    "PrimeField",
    "DenseMatrix",
    "SpanBasis",
    "span_sum_rank",
    "span_intersection_dim",
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

    def inv(self, x: Fraction) -> Fraction:
        if not x:
            raise ZeroDivisionError("inverse of zero")
        return 1 / self.normalize(x)

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")


# The first 13 primes; as Miller-Rabin bases they decide primality exactly
# below _MR_BOUND (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Whether p is prime, by Miller-Rabin on `_MR_BASES`: exact for
    p < `_MR_BOUND`."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field of integers mod a prime p; scalars are ints in [0, p).
    Primality is decided exactly, so p must lie below `_MR_BOUND`."""

    def __init__(self, p: int):
        if p >= _MR_BOUND:
            raise ValueError(f"{p} is too large: primality is decided only below {_MR_BOUND}")
        if not _is_prime(p):
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

    def inv(self, x: int) -> int:
        x %= self.p
        if not x:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, -1, self.p)

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


class DenseMatrix:
    """A dense matrix over an exact field; rows of scalars.  Its rank and
    nullspace are those of the `SpanBasis` of its rows."""

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

    def _span(self) -> "SpanBasis":
        span = SpanBasis(self.field, self.ncols)
        for row in self.rows:
            span.insert(row)
        return span

    def rank(self) -> int:
        return self._span().rank()

    def nullspace(self) -> list[list]:
        """Basis of {x : self·x = 0}."""
        return self._span().kernel()

    def __repr__(self) -> str:
        return f"DenseMatrix({self.field!r}, {self.nrows}x{self.ncols})"


def _clear_denominators(values: Sequence) -> tuple[list[int], int]:
    """(nums, den): den the least common denominator of the rationals in
    values, nums[i] = den·values[i]; ints come back as they are, over 1."""
    try:
        den = lcm(*[x.denominator for x in values])
    except AttributeError:  # floats, strings: anything Fraction accepts
        return _clear_denominators([Fraction(x) for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


class SpanBasis:
    """A subspace kept as a reduced echelon basis.

    Every other stored row vanishes at a row's pivot column.  A row is kept
    sparse as a {column: nonzero int} dict, in a dict keyed by its pivot
    column, beside the sorted list of pivots.  Over a prime field its
    entries lie in [0, p) and its pivot entry is 1.  Over Q it is a
    primitive integer vector (its entries have gcd 1) with a positive pivot
    entry: the reduced echelon row times the one positive rational that
    makes it so.  Either way the stored rows are unique to the span, so
    equality of subspaces is equality of stored rows.

    A vector enters as a dense sequence of length `ambient` or as a sparse
    {column: scalar} dict; zero entries are dropped, and a column outside
    0..ambient−1 is a `ValueError`.  It is reduced in one pass: since each
    stored row is zero at every other pivot, subtracting one row leaves the
    vector's entries at the other pivots as they were, so the multiple of
    each row to subtract is read off the input at the row's pivot, and only
    the rows whose pivots the input touches take part.  The subtraction runs
    in a dense integer working list.  Over F_p the entries may leave [0, p)
    during the reduction and are brought back once at the end.  Over Q no
    `Fraction` arithmetic happens: a vector is cleared of denominators on
    entry, which does not change the line it spans.  The working list is
    s·v less the rows subtracted so far, so it holds s·c at the pivot of a
    row with pivot entry d, c the input's entry there; when d does not
    divide s·c, the list is first multiplied by d/gcd(s·c, d), and then
    (s·c/d)·row is subtracted.  That scales v by a nonzero integer, so the
    reduced vector is zero exactly when v lies in the span.  Rank,
    membership and equality are therefore exact over Q, with no modular
    step.  The `rows` property converts back to pivot-1 rows of field
    scalars.
    """

    __slots__ = ("field", "ambient", "_rows", "_pivots")

    def __init__(self, field, ambient: int):
        self.field = field
        self.ambient = ambient
        self._rows: dict[int, dict[int, int]] = {}
        self._pivots: list[int] = []

    def rank(self) -> int:
        return len(self._pivots)

    def _dense_rows(self) -> list[list[int]]:
        """The stored rows as dense integer lists, in pivot order."""
        dense = []
        for pc in self._pivots:
            vec = [0] * self.ambient
            for j, x in self._rows[pc].items():
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

    def _entry(self, v) -> dict[int, int]:
        """The nonzero entries of v as a fresh {column: int} dict: a
        representative of v mod p over F_p, an integer multiple of v over Q."""
        if isinstance(v, dict):
            if v and (min(v) < 0 or max(v) >= self.ambient):
                raise ValueError(f"column outside 0..{self.ambient - 1}")
            items = v.items()
        else:
            if len(v) != self.ambient:
                raise ValueError(f"vector length {len(v)} != ambient {self.ambient}")
            items = enumerate(v)
        field = self.field
        p = field.characteristic
        v = {j: x for j, x in items if x}
        if {*map(type, v.values())} <= {int}:  # ints need no conversion
            return {j: x % p for j, x in v.items() if x % p} if p else v
        if p:
            return {j: y for j, x in v.items() if (y := field.normalize(x))}
        return dict(zip(v, _clear_denominators(list(v.values()))[0]))

    def _reduce(self, v: dict[int, int]) -> dict[int, int]:
        """The nonzero entries of v minus its components along the stored
        rows, in [0, p) over F_p; over Q the result is scaled by a nonzero
        integer.  v is an `_entry` result."""
        rows = self._rows
        hits = [(pc, c) for pc, c in v.items() if pc in rows]
        if not hits:
            return v
        w = [0] * self.ambient
        for j, x in v.items():
            w[j] = x
        s = 1  # w is s·v less the rows subtracted so far
        for pc, c in hits:
            row = rows[pc]
            c *= s  # w[pc]: no other row reaches pc
            d = row[pc]  # 1 over F_p
            if c % d:
                f = d // gcd(c, d)
                w = [f * x for x in w]
                s *= f
                c *= f
            b = c // d
            for j, y in row.items():
                w[j] -= b * y
        p = self.field.characteristic
        if p:
            return {j: y for j, x in enumerate(w) if x and (y := x % p)}
        return {j: x for j, x in enumerate(w) if x}

    def _store(self, v: dict[int, int]) -> None:
        """Add the reduced nonzero vector v as a row, and clear its pivot
        column, its first, from the other rows."""
        p = self.field.characteristic
        col = min(v)
        if p:
            inv = pow(v[col], -1, p)
            v = {j: x * inv % p for j, x in v.items()}
        else:
            g = gcd(*v.values())
            if v[col] < 0:
                g = -g
            if g != 1:
                v = {j: x // g for j, x in v.items()}
        d = v[col]
        rows, pivots = self._rows, self._pivots
        at = bisect_left(pivots, col)
        # a row is zero left of its pivot, so only rows above v reach col
        for pc in pivots[:at]:
            row = rows[pc]
            x = row.get(col)
            if not x:
                continue
            if p:  # row <- row - x·v, with v[col] = 1
                for j, z in v.items():
                    y = (row.get(j, 0) - x * z) % p
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                continue
            # row <- (d/g)·row - (x/g)·v; d/g > 0 keeps the row's own pivot
            # entry positive, and v is 0 there
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
            if g != 1:
                row = {j: y // g for j, y in row.items()}
            rows[pc] = row
        rows[col] = v
        pivots.insert(at, col)

    def insert(self, v) -> bool:
        """Add v, a dense sequence or a sparse dict, to the span; True iff
        the rank grew."""
        v = self._reduce(self._entry(v))
        if not v:
            return False
        self._store(v)
        return True

    def insert_tagged(self, v: dict, m: int, split: int) -> Optional[list]:
        """Insert the m-th vector v of a sequence, tagged as [v | e_m],
        where e_m is the m-th unit vector of the columns from `split` on.
        Tags keep track of how a reduced vector combines the inputs, since
        each input is the only one carrying its own tag.  v comes tagged,
        as a sparse dict: it is t·[v | e_m] for a nonzero t, with entries
        before `split` and its tag t at split + m.

        Returns None if v is independent of the vectors inserted before it,
        which are the sequence's vectors 0..m−1.  Otherwise the span is left
        as it was, and the result is the coefficients (c_0, ..., c_m), with
        c_m = 1, of the dependency c_0 v_0 + ... + c_m v_m = 0."""
        w = self._reduce(self._entry(v))
        if min(w) < split:
            self._store(w)
            return None
        # the v-part reduced to zero, and only v_m carries tag m
        field = self.field
        inv = field.inv(w[split + m])
        return [field.normalize(w.get(j, 0) * inv) for j in range(split, split + m + 1)]

    def contains(self, v) -> bool:
        return not self._reduce(self._entry(v))

    def kernel(self) -> list[list]:
        """Basis of {x : r·x = 0 for every stored row r}, one vector per
        free column f: x_f = 1, x_pc = −row[f]/row[pc] at each row's pivot
        column pc, 0 elsewhere.  Field scalars, in order of f.  The reduced
        echelon rows are unique to the span, so this is the basis that
        Gauss–Jordan elimination of any spanning set reads off."""
        field = self.field
        p = field.characteristic
        rows = self._rows
        basis = []
        for f in range(self.ambient):
            if f in rows:
                continue
            vec = [field.zero] * self.ambient
            vec[f] = field.one
            for pc, row in rows.items():
                x = row.get(f)
                if x:  # over F_p, x in [1, p) and row[pc] = 1
                    vec[pc] = p - x if p else Fraction(-x, row[pc])
            basis.append(vec)
        return basis

    def copy(self) -> "SpanBasis":
        s = SpanBasis(self.field, self.ambient)
        s._rows = {pc: row.copy() for pc, row in self._rows.items()}
        s._pivots = self._pivots[:]
        return s

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpanBasis)
            and self.field == other.field
            and self.ambient == other.ambient
            and self._rows == other._rows
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"SpanBasis({self.field!r}, ambient={self.ambient}, rank={self.rank()})"


def span_sum_rank(s: SpanBasis, t: SpanBasis) -> int:
    if s.field != t.field or s.ambient != t.ambient:
        raise ValueError("spans live in different ambient spaces")
    u = s.copy()
    for row in t._rows.values():
        u.insert(row)
    return u.rank()


def span_intersection_dim(s: SpanBasis, t: SpanBasis) -> int:
    return s.rank() + t.rank() - span_sum_rank(s, t)
