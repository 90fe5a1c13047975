"""Rectangular rook sums and their product and annihilation laws.

For subsets A, B of [n], the rook sum nabla(B, A) adds every permutation
mapping A onto B, and nabla_tilde(B, A) every permutation mapping A into B.
Both are rook-board sums: each position in A may take a column in B, every
other position the columns outside B (nabla) or any column (nabla_tilde),
and the terms come from the board enumerator behind `groupalg.board_sum`;
a weighted sum of boards, such as a product rule or nabla_D_alpha, is one
call of `groupalg._board_combination`, the one way to sum boards.
The product of two rook sums expands by an integer coefficient omega(B, C)
in three equivalent closed forms (product_rule_a/b/c), and the combinations
nabla_D_alpha satisfy a split polynomial annihilation identity driven by
the integers delta(D, C, k).  The coefficients are stated once, as a row
per size class (`_coeff_row`), with the sub-masks of a set grouped by size
(`_subsets_of`): omega, delta, delta_tilde, the three product rules and
the Delta-algebra of `snalg.dalg` all read these two.  The kappa family
packages the special case whose minimal polynomial depends only on the
sizes (|A|, |B|, |A cap B|) and generates the table of factored minimal
polynomials.
"""

from __future__ import annotations

import random
from functools import lru_cache
from importlib import resources
from itertools import combinations
from math import comb, factorial
from typing import Iterable, Iterator, Mapping

from snalg.exactla import QQ
from snalg.groupalg import (
    AlgebraElement,
    MinimalPolynomial,
    _board_combination,
    _rook_sum,
    element_min_poly,
    mul,
    scale,
)
from snalg.perm import Permutation, _check_n_range, _check_trials

__all__ = [
    "Subset",
    "all_subsets",
    "subsets_of_size",
    "nabla",
    "nabla_tilde",
    "omega",
    "delta",
    "delta_tilde",
    "nabla_D_alpha",
    "nabla_alpha_D",
    "delta_D_alpha",
    "triangular_annihilation",
    "kappa",
    "kappa_rows",
    "minpol_table",
    "golden_minpol_rows",
    "MINPOL_TABLE_MAX_N",
    "PRODUCT_RULE_B_MAX_N",
    "product_rule_a",
    "product_rule_b",
    "product_rule_c",
    "product_rule_fuzz",
]

MINPOL_TABLE_MAX_N = 6
PRODUCT_RULE_B_MAX_N = 8


class Subset:
    """A subset of [n] = {1, ..., n}, stored as a bitmask."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, members: Iterable[int] = (), mask: int | None = None):
        self.n = n
        if mask is not None:
            if mask >> n:
                raise ValueError(f"mask has bits above position {n}")
            self.mask = mask
            return
        m = 0
        for i in members:
            if not 1 <= i <= n:
                raise ValueError(f"{i} outside [{n}]")
            m |= 1 << (i - 1)
        self.mask = m

    @classmethod
    def full(cls, n: int) -> "Subset":
        return cls(n, mask=(1 << n) - 1)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, i: int) -> bool:
        return 1 <= i <= self.n and bool(self.mask >> (i - 1) & 1)

    def _coerce(self, other: "Subset") -> None:
        if not isinstance(other, Subset) or other.n != self.n:
            raise ValueError("subsets of different ground sets")

    def __or__(self, other: "Subset") -> "Subset":
        self._coerce(other)
        return Subset(self.n, mask=self.mask | other.mask)

    def __and__(self, other: "Subset") -> "Subset":
        self._coerce(other)
        return Subset(self.n, mask=self.mask & other.mask)

    def __sub__(self, other: "Subset") -> "Subset":
        self._coerce(other)
        return Subset(self.n, mask=self.mask & ~other.mask)

    def __le__(self, other: "Subset") -> bool:
        self._coerce(other)
        return self.mask & ~other.mask == 0

    def complement(self) -> "Subset":
        return Subset(self.n, mask=(1 << self.n) - 1 ^ self.mask)

    def apply(self, w: Permutation) -> "Subset":
        """The image w(self)."""
        if w.n != self.n:
            raise ValueError("permutation size mismatch")
        return Subset(self.n, (w(i) for i in self.members))

    def __eq__(self, other) -> bool:
        return isinstance(other, Subset) and (self.n, self.mask) == (other.n, other.mask)

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.members) + "}"

    def __repr__(self) -> str:
        return f"Subset({self.n}, {list(self.members)!r})"


def subsets_of_size(n: int, k: int) -> Iterator[Subset]:
    """All k-element subsets of [n], members in lex order."""
    for combo in combinations(range(1, n + 1), k):
        yield Subset(n, combo)


def all_subsets(n: int) -> Iterator[Subset]:
    """All subsets of [n], ordered by size then lexicographically."""
    for k in range(n + 1):
        yield from subsets_of_size(n, k)


def _check_same_n(*subsets: Subset) -> int:
    ns = {s.n for s in subsets}
    if len(ns) != 1:
        raise ValueError(f"subsets of mixed ground sets: {sorted(ns)}")
    return ns.pop()


def _rows(n: int, bmask: int, amask: int, tilde: bool = False) -> tuple[int, ...]:
    """The board of nabla(B, A), or of nabla_tilde(B, A) when tilde, for the
    subsets B, A of [n] with these masks: the columns of B at the positions
    of A, and every other position the columns outside B, or all columns."""
    full = (1 << n) - 1
    rest = full if tilde else full ^ bmask
    return tuple(bmask if amask >> i & 1 else rest for i in range(n))


def nabla(B: Subset, A: Subset, field=QQ) -> AlgebraElement:
    """The rook sum of all w with w(A) = B; zero when |A| != |B|."""
    n = _check_same_n(B, A)
    if A.size != B.size:
        return AlgebraElement.zero(n, field)
    return _rook_sum(n, _rows(n, B.mask, A.mask), field)


def nabla_tilde(B: Subset, A: Subset, field=QQ) -> AlgebraElement:
    """The rook sum of all w with w(A) ⊆ B; zero when |A| > |B|."""
    n = _check_same_n(B, A)
    if A.size > B.size:
        return AlgebraElement.zero(n, field)
    return _rook_sum(n, _rows(n, B.mask, A.mask, tilde=True), field)


@lru_cache(maxsize=None)
def _subsets_of(mask: int) -> tuple[tuple[int, ...], ...]:
    """Sub-masks of mask grouped by size, each group ascending."""
    bits = []
    m = mask
    while m:
        low = m & -m
        bits.append(low)
        m ^= low
    by_size: list[list[int]] = [[] for _ in range(len(bits) + 1)]
    for sub in range(1 << len(bits)):
        acc = 0
        count = 0
        for t, bit in enumerate(bits):
            if sub >> t & 1:
                acc |= bit
                count += 1
        by_size[count].append(acc)
    return tuple(tuple(group) for group in by_size)


@lru_cache(maxsize=None)
def _coeff_row(n: int, c: int, b: int, m: int, top: int | None = None) -> tuple[int, ...]:
    """The product rule, stated once: row[u] = ω·(−1)^{u−m}·C(u, m) for
    u = 0..top, where ω = m!·(b−m)!·(c−m)!·(n−b−c+m)! is omega(B, C) for
    any |C| = c, |B| = b and |B∩C| = m.  row[u] is the coefficient of every
    ∇_{U,V} with |U| = u in ∇_{D,C}·∇_{B,A}, which reaches u = min(b, c),
    the default top; delta reads u = b, which may exceed c.  row[m] = ω,
    and the entries below u = m are zero."""
    w = factorial(m) * factorial(b - m) * factorial(c - m) * factorial(n - b - c + m)
    if top is None:
        top = min(b, c)
    return tuple(-w * comb(u, m) if (u - m) & 1 else w * comb(u, m) for u in range(top + 1))


def omega(B: Subset, C: Subset) -> int:
    """|B∩C|! |B∖C|! |C∖B|! |[n]∖(B∪C)|!"""
    n = _check_same_n(B, C)
    m = (B.mask & C.mask).bit_count()
    return _coeff_row(n, C.size, B.size, m)[m]


def _delta(n: int, dmask: int, cmask: int, k: int) -> int:
    """delta on masks: the row entry at u = k for each k-subset B of D."""
    if k < 0:
        raise ValueError(f"k = {k} is negative")
    subs = _subsets_of(dmask)
    if k >= len(subs):
        return 0
    c = cmask.bit_count()
    return sum(_coeff_row(n, c, k, (bmask & cmask).bit_count(), k)[k] for bmask in subs[k])


def delta(D: Subset, C: Subset, k: int) -> int:
    """Sum of omega(B, C) (-1)^(k-|B∩C|) C(k, |B∩C|) over k-subsets B of D."""
    return _delta(_check_same_n(D, C), D.mask, C.mask, k)


def delta_tilde(D: Subset, B: Subset, k: int) -> int:
    """Sum of delta(D, C, k) over |D|-subsets C of B."""
    n = _check_same_n(D, B)
    subs = _subsets_of(B.mask)
    if D.size >= len(subs):
        return 0
    return sum(_delta(n, D.mask, cmask, k) for cmask in subs[D.size])


def _rule_row(D: Subset, C: Subset, B: Subset, A: Subset) -> tuple[int, tuple[int, ...]]:
    """(n, the product rule's row) for nabla(D, C) * nabla(B, A)."""
    n = _check_same_n(D, C, B, A)
    if A.size != B.size:
        raise ValueError(f"|A| = {A.size} != {B.size} = |B|")
    if C.size != D.size:
        raise ValueError(f"|C| = {C.size} != {D.size} = |D|")
    return n, _coeff_row(n, C.size, B.size, (B.mask & C.mask).bit_count())


def product_rule_a(D: Subset, C: Subset, B: Subset, A: Subset, field=QQ) -> AlgebraElement:
    """omega(B, C) times the sum of all w with |w(A) ∩ D| = |B ∩ C|, that is
    the sum of nabla(U, A) over the |A|-subsets U with |U ∩ D| = |B ∩ C|."""
    n, row = _rule_row(D, C, B, A)
    target = (B.mask & C.mask).bit_count()
    w = row[target]
    terms = [
        (_rows(n, umask, A.mask), w)
        for umask in _subsets_of((1 << n) - 1)[A.size]
        if (umask & D.mask).bit_count() == target
    ]
    return _board_combination(n, field, terms)


def product_rule_b(D: Subset, C: Subset, B: Subset, A: Subset, field=QQ) -> AlgebraElement:
    """omega(B, C) times the signed binomial combination of nabla(U, V) over
    equal-size pairs U ⊆ D, V ⊆ A."""
    n, row = _rule_row(D, C, B, A)
    if n > PRODUCT_RULE_B_MAX_N:
        raise ValueError(
            f"subset-pair expansion capped at n = {PRODUCT_RULE_B_MAX_N}, got {n}"
        )
    terms = [
        (_rows(n, umask, vmask), coeff)
        for coeff, us, vs in zip(row, _subsets_of(D.mask), _subsets_of(A.mask))
        if field.normalize(coeff)
        for umask in us
        for vmask in vs
    ]
    return _board_combination(n, field, terms)


def product_rule_c(D: Subset, C: Subset, B: Subset, A: Subset, field=QQ) -> AlgebraElement:
    """omega(B, C) times the signed binomial combination of nabla_tilde(D, V)
    over V ⊆ A; the terms with |V| > |D| are zero."""
    n, row = _rule_row(D, C, B, A)
    terms = [
        (_rows(n, D.mask, vmask, tilde=True), coeff)
        for coeff, vs in zip(row, _subsets_of(A.mask))
        if field.normalize(coeff)
        for vmask in vs
    ]
    return _board_combination(n, field, terms)


def product_rule_fuzz(n: int, trials: int = 200, seed: int = 0, field=QQ) -> "Report":
    """Each closed form of nabla(D, C) * nabla(B, A) against the direct
    product: every same-size quadruple for n <= 4, seeded samples beyond."""
    from snalg.report import Report

    _check_n_range(n, PRODUCT_RULE_B_MAX_N)
    _check_trials(trials)
    exhaustive = n <= 4
    rep = Report(
        "product_rule_fuzz",
        n=n,
        mode="exhaustive" if exhaustive else "sampled",
        field=field.name,
    )
    if exhaustive:
        same_size = [
            (X, Y)
            for size in range(n + 1)
            for X in subsets_of_size(n, size)
            for Y in subsets_of_size(n, size)
        ]
        cases = [
            (D, C, B, A) for D, C in same_size for B, A in same_size
        ]
    else:
        rng = random.Random(seed)
        members = range(1, n + 1)

        def random_pair():
            size = rng.randrange(n + 1)
            return (
                Subset(n, rng.sample(members, size)),
                Subset(n, rng.sample(members, size)),
            )

        cases = []
        for _ in range(trials):
            D, C = random_pair()
            B, A = random_pair()
            cases.append((D, C, B, A))
    rep.data["cases"] = len(cases)
    failures = {"a": None, "b": None, "c": None}
    for D, C, B, A in cases:
        direct = mul(nabla(D, C, field), nabla(B, A, field))
        for label, rule in (
            ("a", product_rule_a),
            ("b", product_rule_b),
            ("c", product_rule_c),
        ):
            if failures[label] is None and rule(D, C, B, A, field) != direct:
                failures[label] = f"D={D} C={C} B={B} A={A}"
    for label in ("a", "b", "c"):
        rep.add(f"rule_{label}", failures[label] is None, witness=failures[label])
    return rep


def _check_alpha(D: Subset, alpha: Mapping[Subset, object]) -> None:
    for C in alpha:
        if C.n != D.n:
            raise ValueError("alpha key over a different ground set")
        if C.size != D.size:
            raise ValueError(
                f"alpha key {C} has size {C.size}, expected |D| = {D.size}"
            )


def nabla_D_alpha(D: Subset, alpha: Mapping[Subset, object], field=QQ) -> AlgebraElement:
    """The combination sum of alpha[C] * nabla(D, C)."""
    _check_alpha(D, alpha)
    terms = ((_rows(D.n, D.mask, C.mask), c) for C, c in alpha.items())
    return _board_combination(D.n, field, terms)


def nabla_alpha_D(D: Subset, alpha: Mapping[Subset, object], field=QQ) -> AlgebraElement:
    """The mirrored combination sum of alpha[C] * nabla(C, D)."""
    _check_alpha(D, alpha)
    terms = ((_rows(D.n, C.mask, D.mask), c) for C, c in alpha.items())
    return _board_combination(D.n, field, terms)


def delta_D_alpha(D: Subset, alpha: Mapping[Subset, object], k: int, field=QQ):
    """The scalar sum of alpha[C] * delta(D, C, k)."""
    _check_alpha(D, alpha)
    acc = field.zero
    for C, c in alpha.items():
        acc += field.normalize(c) * field.normalize(delta(D, C, k))
    return field.normalize(acc)


def triangular_annihilation(
    D: Subset, alpha: Mapping[Subset, object], field=QQ, mirrored: bool = False
) -> AlgebraElement:
    """Evaluate (prod over k = 0..|D| of (N - delta_D_alpha(D, alpha, k))) N
    where N = nabla_D_alpha (or its mirror image).  The result is the
    annihilation identity's left side, expected to be zero."""
    N = (nabla_alpha_D if mirrored else nabla_D_alpha)(D, alpha, field)
    one = AlgebraElement.one(D.n, field)
    acc = N
    for k in range(D.size + 1):
        shift = delta_D_alpha(D, alpha, k, field)
        acc = mul(N - scale(shift, one), acc)
    return acc


def kappa(n: int, a: int, b: int, c: int, field=QQ) -> AlgebraElement:
    """The sum of all w with w(A) ∩ B = ∅ for the canonical subsets
    A = {1..a}, B = {a-c+1..a-c+b} with |A ∩ B| = c; equivalently
    nabla_tilde([n] ∖ B, A).  Parameters that admit no such pair of subsets
    yield the zero element."""
    constructible = (
        0 <= c <= min(a, b) and 0 <= a <= n and 0 <= b <= n and a - c + b <= n
    )
    if not constructible:
        return AlgebraElement.zero(n, field)
    A = Subset(n, range(1, a + 1))
    B = Subset(n, range(a - c + 1, a - c + b + 1))
    return nabla_tilde(B.complement(), A, field)


def kappa_rows(n: int) -> Iterator[tuple[int, int, int]]:
    """The (a, b, c) index triples of the minimal polynomial table: the
    all-permutations row (0,0,0) first, then b = 1..n/2, a = b..n-b,
    c = 0..b."""
    yield (0, 0, 0)
    for b in range(1, n // 2 + 1):
        for a in range(b, n - b + 1):
            for c in range(b + 1):
                yield (a, b, c)


def minpol_table(n: int, cap: int = MINPOL_TABLE_MAX_N) -> list[tuple[int, int, int, MinimalPolynomial]]:
    """Rows (a, b, c, minimal polynomial of kappa(n, a, b, c)) over Q."""
    _check_n_range(n, cap)
    rows = []
    for a, b, c in kappa_rows(n):
        poly = element_min_poly(kappa(n, a, b, c))
        rows.append((a, b, c, poly))
    return rows


def golden_minpol_rows(n: int | None = None) -> list[tuple[int, int, int, int, str]]:
    """The frozen reference table as (n, a, b, c, factored-polynomial) rows,
    optionally filtered to a single n."""
    text = resources.files("snalg").joinpath("data/minpol_table.tsv").read_text()
    rows = []
    for line in text.splitlines()[1:]:
        if not line.strip():
            continue
        sn, sa, sb, sc, poly = line.split("\t")
        if n is None or int(sn) == n:
            rows.append((int(sn), int(sa), int(sb), int(sc), poly))
    return rows
