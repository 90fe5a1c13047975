"""The group algebra k[S_n] with exact sparse arithmetic.

Elements are sparse maps from permutations (keyed internally by their
lexicographic rank) to nonzero integers over one common denominator, which
is 1 over F_p and for every rook sum, so the ring operations run on ints
over both fields.  That format, its canonical form and its linear
operations are written once, in `_Element`, the base of both
`AlgebraElement` and the Δ-algebra's `dalg.DElement`.  Provides the ring
operations, the antipode w -> w^{-1}, the sign twist w -> (-1)^w w, the
standard bilinear form with orthonormal permutation basis, sums over rook
boards, and minimal polynomials over the rationals with integer-root
factorization.

Every rook sum in snalg (nabla, nabla_tilde, row and tuple sums,
antisymmetrizers, the product rules) is the sum over a board of allowed
squares; `board_sum` is the general entry point, `_board_combination` the
one way to add up boards with scalar weights, and all of them take their
terms from one cached enumerator that yields lex ranks in increasing order.

Multiplication has one rule at every n: the one-line image of uv is v's
image bytes translated through u's, and one cached index gives its lex
rank.  A rook sum is unchanged by right multiplication with its Young
subgroup Y, the permutations that only swap positions of equal board rows,
so it is a sum of whole left cosets of Y; its sign twist, an
antisymmetrizer among them, is a sum of whole signed cosets, scaled by
sign(y) under right multiplication by y in Y.  For n <= ENUMERATION_CAP = 8
both keep the partition of positions into those classes, the twist with a
sign flag, and a product x * b with either as b can run one coset at a
time: x against one representative per coset, then each coset's sum,
signed at each rank for a twist, written over the coset through a cached
table of coset ids.  That costs |x| * |b| / |Y| pairs plus n! writes
instead of |x| * |b| pairs, and `mul` takes whichever is less.  The same
table lists the terms of a board for n <= 8, as the cosets whose block
images fit in its rows; beyond, where tables of n! entries are too large,
the enumerator places rooks depth-first and the product runs over every
pair of terms.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence

from snalg.exactla import QQ, SpanBasis, _clear_denominators
from snalg.perm import ENUMERATION_CAP, Permutation
from snalg.perm import sign as perm_sign

__all__ = [
    "AlgebraElement",
    "mul",
    "antipode",
    "sign_twist",
    "dot",
    "board_sum",
    "element_min_poly",
    "MinimalPolynomial",
]

@lru_cache(maxsize=None)
def permutation_basis(n: int) -> list[Permutation]:
    """All of S_n in lex order; position in this list == lex rank."""
    from snalg.perm import all_permutations

    return list(all_permutations(n))


@lru_cache(maxsize=None)
def _images(n: int) -> tuple[list[bytes], dict[bytes, int]]:
    """The one-line notation of each permutation, 0-based, as bytes, in
    lex order, and the lex rank of each such image."""
    imgs = [bytes(w) for w in permutations(range(n))]
    return imgs, {img: r for r, img in enumerate(imgs)}


def _rank(w: Permutation) -> int:
    """The lex rank of w, read off the table of `_images` (the one `mul`
    reads) up to ENUMERATION_CAP; beyond it by `Permutation.rank`, so one
    element at n = 9 does not list all 9! permutations."""
    if w.n > ENUMERATION_CAP:
        return w.rank()
    return _images(w.n)[1][bytes(w._img)]


@lru_cache(maxsize=None)
def _inv_table(n: int) -> array:
    """The lex rank of each inverse, by rank: the image of w^{-1} lists the
    positions in the order of their images under w."""
    imgs, index = _images(n)
    inverses = (bytes(sorted(range(n), key=img.__getitem__)) for img in imgs)
    return array("L", (index[img] for img in inverses))


@lru_cache(maxsize=None)
def _sign_table(n: int) -> array:
    return array("b", (perm_sign(p) for p in permutation_basis(n)))


@lru_cache(maxsize=None)
def _young_order(blocks: bytes) -> int:
    """|Y| for the Young subgroup permuting positions within each block:
    the product of the factorials of the block sizes."""
    order = 1
    for b in set(blocks):
        order *= factorial(blocks.count(b))
    return order


@lru_cache(maxsize=None)
def _coset_ids(n: int, blocks: bytes) -> tuple[array, list[int], list[int]]:
    """(ids, images, members) of the left cosets w Y, Y permuting the
    positions within each block (position i in block blocks[i] < 8, as
    n <= ENUMERATION_CAP = 8 wherever the tables are built), numbered
    by smallest rank: ids[r] is the coset of rank r, byte j of images[c] has
    the bit 1 << b when coset c sends block b to column j, and members holds
    the ranks coset by coset, ascending.  The inverse image bytes with each
    position written as its block's bit are the coset key, since w y has w's
    block of preimages at each column; read as an int, the key is the image.
    members is a list so that the rank tuples cut from it share its ints.
    Users: `mul`, one coset at a time, and `_board_ranks`."""
    imgs, _ = _images(n)
    label = bytes(1 << b for b in blocks) + bytes(256 - n)
    keys = (imgs[r].translate(label) for r in _inv_table(n))
    index: dict[bytes, int] = {}
    ids = array("H", (index.setdefault(k, len(index)) for k in keys))
    members = sorted(range(len(ids)), key=ids.__getitem__)
    images = [int.from_bytes(key, "little") for key in index]
    return ids, images, members


def _scalar(field, c: int, den: int):
    """The field scalar c / den."""
    return c % field.p if field.characteristic else Fraction(c, den)


class _Element:
    """The one coefficient format of snalg's algebras, k[S_n] here and the
    Δ-algebra in `dalg`: nonzero integer terms {basis index: int} over one
    positive denominator `_den`, so the coefficient at index r is
    `_terms[r] / _den`.  Over F_p the terms lie in [1, p) and `_den` is 1;
    over Q `_den` and the terms have no common factor.  The form is unique,
    so equality compares `_den` and `_terms`.  This class holds the linear
    structure; a subclass names its basis (`_dim`, `_index`) and its
    product.  Elements of different classes, sizes or fields do not
    combine."""

    __slots__ = ("n", "field", "_terms", "_den")

    def __new__(cls, n: int, field=QQ, terms=None):
        """From a dict or pairs (key, c), the key a basis index or what
        `_index` reads as one, c a field scalar; repeated keys add up."""
        dim = cls._dim(n)
        data: dict[int, object] = {}
        for key, c in terms.items() if isinstance(terms, dict) else terms or ():
            r = cls._index(n, key)
            if not 0 <= r < dim:
                raise ValueError(f"basis index {r} out of range")
            data[r] = data.get(r, 0) + field.normalize(c)
        nums, den = _clear_denominators(list(data.values()))
        return cls._canonical(n, field, zip(data, nums), den)

    @staticmethod
    def _index(n: int, key) -> int:
        return int(key)

    @classmethod
    def _raw(cls, n: int, field, terms: dict[int, int], den: int = 1):
        """An element from terms and denominator already in canonical form."""
        a = object.__new__(cls)
        a.n = n
        a.field = field
        a._terms = terms
        a._den = den
        return a

    @classmethod
    def _canonical(cls, n: int, field, pairs, den: int = 1):
        """The element with coefficient c / den at index r, for (r, c) in
        `pairs` (distinct indices, int c; den > 0, and 1 over F_p), in
        canonical form: over F_p each term reduced once into [1, p); over Q
        the zero terms dropped and the common factor of den and the terms
        divided out."""
        p = field.characteristic
        if p:
            terms = {}
            for r, c in pairs:
                c %= p
                if c:
                    terms[r] = c
            return cls._raw(n, field, terms)
        terms = {r: c for r, c in pairs if c}
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {r: c // g for r, c in terms.items()}
                den //= g
        return cls._raw(n, field, terms, den)

    @classmethod
    def zero(cls, n: int, field=QQ):
        return cls._raw(n, field, {})

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def coeff(self, key):
        """The coefficient at `key`, read as the constructor reads it: a
        basis index, or what `_index` takes for one."""
        return _scalar(self.field, self._terms.get(self._index(self.n, key), 0), self._den)

    def support(self) -> list:
        return sorted(self._terms)

    def _check(self, other) -> None:
        """Raise unless other lies in the same algebra as self."""
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"mixed sizes: n = {self.n} vs n = {other.n}")
        if self.field != other.field:
            raise ValueError(f"mixed fields: {self.field!r} vs {other.field!r}")

    def __add__(self, other):
        self._check(other)
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        terms = {r: sa * c for r, c in self._terms.items()}
        for r, c in other._terms.items():
            terms[r] = terms.get(r, 0) + sb * c
        return self._canonical(self.n, self.field, terms.items(), den)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.__rmul__(-1)

    def __rmul__(self, c):
        """The scalar multiple c·self."""
        c = self.field.normalize(c)
        pairs = ((r, c.numerator * x) for r, x in self._terms.items())
        return self._canonical(self.n, self.field, pairs, self._den * c.denominator)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.n == other.n
            and self.field == other.field
            and self._den == other._den
            and self._terms == other._terms
        )


class AlgebraElement(_Element):
    """A sparse element of k[S_n] in the shared format (`_Element`), indexed
    by the lex rank of each permutation.  A rook sum also keeps in
    `_blocks` the block label of each position under its right Young
    subgroup Y (see `_rook_sum`), and its sign twist keeps them too with
    `_signed` set: x·y = sign(y)·x for y in Y.  Every other element has
    `_blocks` None and `_signed` False."""

    __slots__ = ("_blocks", "_signed")
    _dim = staticmethod(factorial)

    @classmethod
    def _raw(cls, n: int, field, terms: dict[int, int], den: int = 1) -> "AlgebraElement":
        a = super()._raw(n, field, terms, den)
        a._blocks = None
        a._signed = False
        return a

    @staticmethod
    def _index(n: int, key) -> int:
        """A lex rank, or the rank of a permutation of [n]."""
        if not isinstance(key, Permutation):
            return int(key)
        if key.n != n:
            raise ValueError(f"permutation of [{key.n}] in k[S_{n}]")
        return _rank(key)

    @classmethod
    def one(cls, n: int, field=QQ) -> "AlgebraElement":
        return cls._raw(n, field, {0: 1})

    @classmethod
    def from_perm(cls, w: Permutation, field=QQ, coeff=None) -> "AlgebraElement":
        if coeff is None:
            return cls._raw(w.n, field, {_rank(w): 1})
        return cls(w.n, field, [(w, coeff)])

    def items(self) -> Iterator[tuple[Permutation, object]]:
        """(permutation, coefficient) pairs in lex order."""
        for r in sorted(self._terms):
            yield Permutation.unrank(self.n, r), _scalar(self.field, self._terms[r], self._den)

    def support(self) -> list[Permutation]:
        return [Permutation.unrank(self.n, r) for r in sorted(self._terms)]

    # -- ring structure ----------------------------------------------------

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, _Element):
            return mul(self, other)
        return self.__rmul__(other)

    def __pow__(self, k: int) -> "AlgebraElement":
        if k < 0:
            raise ValueError("negative power")
        out = AlgebraElement.one(self.n, self.field)
        for _ in range(k):
            out = mul(out, self)
        return out

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for w, c in self.items():
            s = w.to_string() or "()"
            parts.append(f"{c}*[{s}]" if c != self.field.one else f"[{s}]")
        return " + ".join(parts)


def mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """The convolution product: sum of coeff_a(u) coeff_b(v) on uv, whose
    rank is read off the image bytes of u and v through one index.

    When b is a rook sum with a right Young subgroup Y larger than {1}, b is
    a sum of whole left cosets vY, so b y = b for every y in Y and
    a b = x Y_sum, with x the product of a and one term per coset of b.
    Since (x Y_sum)(w) = sum of x(u) over u in wY, the product is constant
    on each coset of Y and equal there to the sum of x over that coset:
    each pair adds ca * cb to the sum of the coset of uv, and each coset's
    sum is then written to all of its ranks.  When b is signed (a sign
    twist of a rook sum), b y = sign(y) b and a b = x a_Y, with a_Y the
    signed sum of Y, and (x a_Y)(w) = sign(w) sum of sign(u) x(u) over u in
    wY, since u y = w gives sign(y) = sign(u) sign(w): each pair adds
    sign(uv) ca * cb, and sign(w) times the coset's sum goes to rank w.

    The coset path costs |a| |b| / |Y| pairs plus n! written ranks, the
    plain path |a| |b| pairs; the coset path is taken when it costs less."""
    a._check(b)
    n = a.n
    aterms, bterms = a._terms, b._terms
    if not aterms or not bterms:
        return AlgebraElement.zero(n, a.field)
    imgs, index = _images(n)
    # byte i of the image of uv is u(v(i)): v's image read through u's
    pad = bytes(256 - n)
    work = len(aterms) * len(bterms)
    if b._blocks is not None and work // _young_order(b._blocks) + len(imgs) < work:
        ids, images, _ = _coset_ids(n, b._blocks)
        aitems, bitems = aterms.items(), bterms.items()
        if b._signed:
            # sign(uv) = sign(u) sign(v), carried by each factor's coefficients
            signs = _sign_table(n)
            aitems = [(r, signs[r] * c) for r, c in aitems]
            bitems = [(r, signs[r] * c) for r, c in bitems]
        reps: dict[int, tuple[bytes, int]] = {}
        for rv, cb in bitems:
            reps.setdefault(ids[rv], (imgs[rv], cb))
        sums = [0] * len(images)
        for ru, ca in aitems:
            table = imgs[ru] + pad
            for img_v, cb in reps.values():
                sums[ids[index[img_v.translate(table)]]] += ca * cb
        if b._signed:
            pairs = enumerate([s * sums[c] for s, c in zip(signs, ids)])
        else:
            pairs = enumerate([sums[c] for c in ids])
    else:
        acc: dict[int, int] = {}
        terms = [(imgs[rv], cb) for rv, cb in bterms.items()]
        for ru, ca in aterms.items():
            table = imgs[ru] + pad
            for img_v, cb in terms:
                r = index[img_v.translate(table)]
                acc[r] = acc.get(r, 0) + ca * cb
        pairs = acc.items()
    return a._canonical(n, a.field, pairs, a._den * b._den)


def antipode(a: AlgebraElement) -> AlgebraElement:
    """The linear extension of w -> w^{-1}; an anti-automorphism."""
    inv = _inv_table(a.n)
    return AlgebraElement._raw(a.n, a.field, {inv[r]: c for r, c in a._terms.items()}, a._den)


def sign_twist(a: AlgebraElement) -> AlgebraElement:
    """The automorphism sending w to (-1)^w w.  The twist of an element with
    a Young subgroup Y keeps Y with the sign flag flipped: y = sign(y)·tw(y)
    for y in Y, so tw(x)·y = sign(y)·tw(x·y) = sign(y)·tw(x) when x·y = x,
    and tw(x)·y = tw(x) when x·y = sign(y)·x."""
    signs = _sign_table(a.n)
    t = a._canonical(a.n, a.field, ((r, signs[r] * c) for r, c in a._terms.items()), a._den)
    if a._blocks is not None:
        t._blocks = a._blocks
        t._signed = not a._signed
    return t


def dot(a: AlgebraElement, b: AlgebraElement):
    """The bilinear form with the permutations as an orthonormal basis."""
    a._check(b)
    small, big = (a._terms, b._terms) if len(a) <= len(b) else (b._terms, a._terms)
    acc = sum(c * big.get(r, 0) for r, c in small.items())
    return _scalar(a.field, acc, a._den * b._den)


def _board_dfs(n: int, rows: tuple[int, ...]) -> list[int]:
    """Lex ranks, ascending, of the w in S_n with w(i + 1) - 1 in the column
    bitmask rows[i] for every position i.  Rooks go down depth-first, each
    row trying its columns in increasing order, and the rank is summed from
    the Lehmer code: at depth i the digit is the number of unused columns
    below the chosen one, weighted by (n - 1 - i)!."""
    weights = [factorial(n - 1 - i) for i in range(n)]
    ranks: list[int] = []

    def place(i: int, free: int, rank: int) -> None:
        if i == n:
            ranks.append(rank)
            return
        options = rows[i] & free
        while options:
            col = options & -options
            place(i + 1, free ^ col, rank + (free & (col - 1)).bit_count() * weights[i])
            options ^= col

    place(0, (1 << n) - 1, 0)
    return ranks


def _row_blocks(rows: tuple[int, ...]) -> bytes:
    """The label of each row among the distinct rows, by first appearance."""
    labels: dict[int, int] = {}
    return bytes(labels.setdefault(mask, len(labels)) for mask in rows)


@lru_cache(maxsize=None)
def _board_ranks(n: int, rows: tuple[int, ...]) -> tuple[int, ...]:
    """Lex ranks, ascending, of the w in S_n with w(i + 1) - 1 in the column
    bitmask rows[i] for every i.  Up to ENUMERATION_CAP they are the members
    of the cosets of the Young subgroup of equal rows whose images fit in
    the rows; beyond, where n! tables are too large, the depth-first search
    finds them."""
    if n > ENUMERATION_CAP:
        return tuple(_board_dfs(n, rows))
    blocks = _row_blocks(rows)
    _, images, members = _coset_ids(n, blocks)
    # every bit but 1 << b in byte j for the columns j of block b's row
    forbidden = -1
    for b, mask in dict(zip(blocks, rows)).items():
        forbidden ^= int.from_bytes(bytes(mask >> j & 1 for j in range(n)), "little") << b
    size = len(members) // len(images)
    kept = [c * size for c, image in enumerate(images) if not image & forbidden]
    if len(kept) == 1:  # one coset, as every ∇, row and tuple sum is: already ascending
        return tuple(members[kept[0] : kept[0] + size])
    return tuple(sorted(r for c in kept for r in members[c : c + size]))


def _rook_sum(n: int, rows: tuple[int, ...], field) -> AlgebraElement:
    """The sum of the board with column bitmask rows[i] at position i.
    Swapping two positions of equal rows maps the board onto itself, so the
    element keeps the classes of equal rows, labelled by first appearance,
    as its right Young subgroup; with no equal rows, or beyond
    ENUMERATION_CAP where `mul` builds no coset tables, it keeps none."""
    a = AlgebraElement._raw(n, field, dict.fromkeys(_board_ranks(n, rows), 1))
    blocks = _row_blocks(rows)
    if n <= ENUMERATION_CAP and len(set(blocks)) < n:
        a._blocks = blocks
    return a


def _board_combination(n: int, field, terms: Iterable, den: int = 1) -> AlgebraElement:
    """The sum of c / den times the board sum of rows over (rows, c) in
    terms, c a field scalar (an int is taken as it is; den is 1 over F_p),
    added up in one integer list over den times the common denominator of
    the c."""
    terms = [(rows, c if isinstance(c, int) else field.normalize(c)) for rows, c in terms]
    nums, common = _clear_denominators([c for _, c in terms])
    acc = [0] * factorial(n)
    for (rows, _), c in zip(terms, nums):
        for r in _board_ranks(n, rows):
            acc[r] += c
    return AlgebraElement._canonical(n, field, enumerate(acc), den * common)


def board_sum(n: int, board: Iterable[tuple[int, int]], field=QQ) -> AlgebraElement:
    """Sum of all w in S_n with (i, w(i)) in the board for every i; the
    general rook sum, of which every other rook sum is a special board."""
    rows = [0] * n
    for i, j in board:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"square ({i},{j}) outside [{n}]x[{n}]")
        rows[i - 1] |= 1 << (j - 1)
    return _rook_sum(n, tuple(rows), field)


# -- minimal polynomials ---------------------------------------------------


def _poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _synthetic_divide(coeffs: Sequence[Fraction], root: Fraction):
    """Divide the polynomial by (x - root); returns (quotient, remainder)."""
    desc = list(reversed(coeffs))
    out = [desc[0]]
    for c in desc[1:]:
        out.append(out[-1] * root + c)
    rem = out.pop()
    return list(reversed(out)), rem


def _divisors(m: int) -> list[int]:
    m = abs(m)
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d * d != m:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def _find_rational_root(coeffs: Sequence[Fraction]) -> Optional[Fraction]:
    """Some rational root of the polynomial, or None.  Assumes nonzero
    constant term."""
    ints, _ = _clear_denominators(coeffs)
    const, lead = ints[0], ints[-1]
    for q in _divisors(lead):
        for p in _divisors(const):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _poly_eval(coeffs, cand) == 0:
                    return cand
    return None


class MinimalPolynomial:
    """A monic polynomial with rational coefficients, plus its factorization
    into linear factors over Q when it splits."""

    __slots__ = ("coeffs", "factors")

    def __init__(self, coeffs: Sequence[Fraction]):
        coeffs = [Fraction(c) for c in coeffs]
        if not coeffs or coeffs[-1] != 1:
            raise ValueError("polynomial must be monic")
        self.coeffs = tuple(coeffs)
        self.factors = self._factor()

    def _factor(self) -> Optional[tuple[tuple[Fraction, int], ...]]:
        work = list(self.coeffs)
        found: dict[Fraction, int] = {}
        zero_mult = 0
        while len(work) > 1 and work[0] == 0:
            work.pop(0)
            zero_mult += 1
        if zero_mult:
            found[Fraction(0)] = zero_mult
        while len(work) > 1:
            root = _find_rational_root(work)
            if root is None:
                return None
            mult = 0
            while True:
                q, rem = _synthetic_divide(work, root)
                if rem != 0:
                    break
                work = q
                mult += 1
            found[root] = found.get(root, 0) + mult
        return tuple(sorted(found.items(), key=lambda t: t[0], reverse=True))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_split(self) -> bool:
        return self.factors is not None

    def format_factored(self) -> str:
        """Linear factors sorted by root descending, exponents folded,
        e.g. '(x-4)*x^2*(x+2)'."""
        if self.factors is None:
            raise ValueError("polynomial does not split into linear factors")
        parts = []
        for root, mult in self.factors:
            if root == 0:
                base = "x"
            elif root > 0:
                base = f"(x-{root})"
            else:
                base = f"(x+{-root})"
            parts.append(base if mult == 1 else f"{base}^{mult}")
        return "*".join(parts)

    def format_coeffs(self) -> str:
        """Plain polynomial display from the raw coefficients."""
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                mon = ""
            elif k == 1:
                mon = "x"
            else:
                mon = f"x^{k}"
            if not mon:
                body = f"{abs(c)}"
            elif abs(c) == 1:
                body = mon
            else:
                body = f"{abs(c)}*{mon}"
            sign_str = "-" if c < 0 else "+"
            parts.append((sign_str, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign_str, body in parts[1:]:
            out += f" {sign_str} {body}"
        return out

    def __str__(self) -> str:
        return self.format_factored() if self.is_split() else self.format_coeffs()

    def __repr__(self) -> str:
        return f"MinimalPolynomial({list(self.coeffs)!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, MinimalPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)


def element_min_poly(a: AlgebraElement) -> MinimalPolynomial:
    """Minimal monic p in Q[x] with p(a) = 0 in the algebra.  Powers of a
    enter one tagged span, a Krylov sequence, until the first linear
    dependency appears; by Cayley-Hamilton it comes within n! + 1 powers."""
    if a.field.characteristic != 0:
        raise ValueError("minimal polynomials are computed over the rationals")
    dim = factorial(a.n)
    span = SpanBasis(a.field, 2 * dim + 1)
    power = AlgebraElement.one(a.n, a.field)
    for m in range(dim + 1):
        # den·[power | e_m], from the integer terms
        dep = span.insert_tagged({**power._terms, dim + m: power._den}, m, dim)
        if dep is not None:
            return MinimalPolynomial(dep)
        power = mul(power, a)
    raise AssertionError("no dependency within the algebra dimension")
