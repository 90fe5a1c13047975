"""The abstract Δ-algebra: a nonunital algebra on C(2n,n) symbols Δ_{B,A}
(pairs of equal-size subsets of [n]) whose structure constants copy the
rook-sum product rule:

    Δ_{D,C}·Δ_{B,A} = ω_{B,C} · Σ_{U⊆D, V⊆A, |U|=|V|}
                      (−1)^{|U|−|B∩C|} · C(|U|, |B∩C|) · Δ_{U,V}.

The module provides exact multiplication, associativity verification,
unity search, center and Jacobson-radical dimensions (radical over the
rationals via the trace form on the unitalization), and the linear map
Δ_{B,A} ↦ ∇_{B,A} into the group algebra, which the product rule makes an
algebra homomorphism.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import comb, lcm

from snalg.exactla import QQ, SpanBasis
from snalg.groupalg import AlgebraElement, mul as algebra_mul
from snalg.report import Report
from snalg.rook import Subset, nabla, omega, subsets_of_size

__all__ = [
    "DALG_CAP",
    "DElement",
    "d_dim",
    "basis_pairs",
    "basis_index",
    "d_mul",
    "to_group_algebra",
    "associativity_check",
    "unity_find",
    "center_dim",
    "radical_dim",
    "radical_basis",
    "quotient_map_check",
    "stats",
    "reference_stats",
    "reference_unity",
]

DALG_CAP = 5


def _check_cap(n: int, cap: int = DALG_CAP) -> None:
    if not 1 <= n <= cap:
        raise ValueError(f"n = {n} outside supported range 1..{cap}")


def d_dim(n: int) -> int:
    """Σ_k C(n,k)² = C(2n,n)."""
    return comb(2 * n, n)


@lru_cache(maxsize=None)
def _basis_data(n: int):
    """(pairs, index): pairs[i] = (bmask, amask) in basis order — by size,
    then lex on B, then lex on A — and index maps mask pairs back."""
    pairs = []
    for k in range(n + 1):
        masks = [s.mask for s in subsets_of_size(n, k)]
        for bmask in masks:
            for amask in masks:
                pairs.append((bmask, amask))
    index = {pair: i for i, pair in enumerate(pairs)}
    return tuple(pairs), index


def basis_pairs(n: int) -> list[tuple[Subset, Subset]]:
    """The ordered basis symbols as (B, A) subset pairs."""
    pairs, _ = _basis_data(n)
    return [(Subset(n, mask=b), Subset(n, mask=a)) for b, a in pairs]


def basis_index(n: int, B: Subset, A: Subset) -> int:
    """Position of Δ_{B,A} in the basis order."""
    _, index = _basis_data(n)
    try:
        return index[(B.mask, A.mask)]
    except KeyError:
        raise ValueError(f"no basis symbol for sizes |B|={B.size}, |A|={A.size}")


@lru_cache(maxsize=None)
def _subsets_of(mask: int) -> tuple[tuple[int, ...], ...]:
    """Sub-masks of mask grouped by size."""
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


# holds all 68,844 (n, i, j) with n <= DALG_CAP, and stays bounded past the cap
@lru_cache(maxsize=sum(d_dim(n) ** 2 for n in range(1, DALG_CAP + 1)))
def _pair_product(n: int, i: int, j: int) -> tuple[tuple[int, int], ...]:
    """Integer structure constants of Δ_i·Δ_j as ((basis index, coeff), …)."""
    pairs, index = _basis_data(n)
    dmask, cmask = pairs[i]
    bmask, amask = pairs[j]
    m = (bmask & cmask).bit_count()
    w = omega(Subset(n, mask=bmask), Subset(n, mask=cmask))
    dsubs = _subsets_of(dmask)
    asubs = _subsets_of(amask)
    terms = []
    for u in range(min(len(dsubs), len(asubs))):
        binom = comb(u, m)
        if not binom:
            continue
        coeff = w * binom * (-1) ** (u - m)
        for umask in dsubs[u]:
            for vmask in asubs[u]:
                terms.append((index[(umask, vmask)], coeff))
    return tuple(terms)


class DElement:
    """An element of the Δ-algebra: sparse coefficients on the basis
    symbols Δ_{B,A}."""

    __slots__ = ("n", "field", "_coeffs")

    def __init__(self, n: int, field=QQ, coeffs=None):
        self.n = n
        self.field = field
        clean = {}
        if coeffs:
            for idx, c in coeffs.items() if isinstance(coeffs, dict) else coeffs:
                c = field.normalize(c)
                if c:
                    if not 0 <= idx < d_dim(n):
                        raise ValueError(f"basis index {idx} out of range")
                    clean[idx] = c
        self._coeffs = clean

    @classmethod
    def zero(cls, n: int, field=QQ) -> "DElement":
        return cls(n, field)

    @classmethod
    def basis(cls, n: int, B: Subset, A: Subset, field=QQ) -> "DElement":
        if B.size != A.size:
            raise ValueError("basis symbols need equal-size subsets")
        return cls(n, field, {basis_index(n, B, A): field.one})

    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, idx: int):
        return self._coeffs.get(idx, self.field.zero)

    def items(self):
        """(B, A, coefficient) triples in basis order."""
        pairs, _ = _basis_data(self.n)
        for idx in sorted(self._coeffs):
            b, a = pairs[idx]
            yield Subset(self.n, mask=b), Subset(self.n, mask=a), self._coeffs[idx]

    def support(self) -> list[int]:
        return sorted(self._coeffs)

    def to_vector(self) -> list:
        v = [self.field.zero] * d_dim(self.n)
        for idx, c in self._coeffs.items():
            v[idx] = c
        return v

    @classmethod
    def from_vector(cls, n: int, vec, field=QQ) -> "DElement":
        return cls(n, field, dict(enumerate(vec)))

    def _binary(self, other, fn) -> "DElement":
        if not isinstance(other, DElement):
            return NotImplemented
        if self.n != other.n or self.field is not other.field:
            raise ValueError("mixed Δ-algebra elements")
        coeffs = dict(self._coeffs)
        for idx, c in other._coeffs.items():
            coeffs[idx] = self.field.normalize(fn(coeffs.get(idx, self.field.zero), c))
        return DElement(self.n, self.field, coeffs)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __neg__(self):
        return DElement(self.n, self.field, {i: -c for i, c in self._coeffs.items()})

    def __rmul__(self, scalar):
        c = self.field.normalize(scalar)
        return DElement(
            self.n, self.field, {i: c * x for i, x in self._coeffs.items()}
        )

    def __mul__(self, other):
        if isinstance(other, DElement):
            return d_mul(self, other)
        return self.__rmul__(other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DElement)
            and self.n == other.n
            and self.field is other.field
            and self._coeffs == other._coeffs
        )

    __hash__ = None

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        bits = []
        for B, A, c in self.items():
            text = str(c) if self.field.characteristic == 0 else self.field.scalar_str(c)
            bits.append(f"{text}*D({B}|{A})")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"DElement(n={self.n}, {str(self)})"


def d_mul(x: DElement, y: DElement) -> DElement:
    """Bilinear extension of the structure constants."""
    if not isinstance(x, DElement) or not isinstance(y, DElement):
        raise TypeError("d_mul needs two Δ-algebra elements")
    if x.n != y.n or x.field is not y.field:
        raise ValueError("mixed Δ-algebra elements")
    n, field = x.n, x.field
    acc: dict[int, object] = {}
    zero = field.zero
    for i, xi in x._coeffs.items():
        for j, yj in y._coeffs.items():
            c = xi * yj
            for t, m in _pair_product(n, i, j):
                acc[t] = acc.get(t, zero) + c * m
    return DElement(n, field, acc)


def to_group_algebra(x: DElement) -> AlgebraElement:
    """The linear map Δ_{B,A} ↦ ∇_{B,A} into the group algebra."""
    pairs, _ = _basis_data(x.n)
    total = AlgebraElement.zero(x.n, x.field)
    for idx, c in x._coeffs.items():
        b, a = pairs[idx]
        total = total + c * nabla(Subset(x.n, mask=b), Subset(x.n, mask=a), x.field)
    return total


def associativity_check(n: int, mode: str = None, trials: int = 10000, seed: int = 0) -> Report:
    """(xy)z = x(yz) on basis triples, computed over the integers (hence
    valid over every coefficient ring): exhaustive for n ≤ 3, seeded
    random triples otherwise."""
    _check_cap(n)
    if mode is None:
        mode = "exhaustive" if n <= 3 else "sampled"
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    rep = Report("associativity_check", n=n, mode=mode)
    dim = d_dim(n)

    def triple_ok(i, j, k) -> bool:
        left: dict[int, int] = {}
        for t, m in _pair_product(n, i, j):
            for s, m2 in _pair_product(n, t, k):
                left[s] = left.get(s, 0) + m * m2
        right: dict[int, int] = {}
        for t, m in _pair_product(n, j, k):
            for s, m2 in _pair_product(n, i, t):
                right[s] = right.get(s, 0) + m * m2
        return {s: c for s, c in left.items() if c} == {
            s: c for s, c in right.items() if c
        }

    ok = True
    witness = None
    if mode == "exhaustive":
        count = dim**3
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    if not triple_ok(i, j, k):
                        ok, witness = False, f"indices ({i}, {j}, {k})"
                        break
                if not ok:
                    break
            if not ok:
                break
    else:
        count = trials
        rng = random.Random(seed)
        for _ in range(trials):
            i, j, k = (rng.randrange(dim) for _ in range(3))
            if not triple_ok(i, j, k):
                ok, witness = False, f"indices ({i}, {j}, {k})"
                break
    rep.data["triples"] = count
    rep.add("associative", ok, witness=witness)
    return rep


def _basis_delement(n: int, idx: int, field) -> DElement:
    return DElement(n, field, {idx: field.one})


def _multiplication_columns(n: int, i: int):
    """(right, left) for the generator Δᵢ, each as {t: {s: c}} with
    integer c: the coefficient of Δ_t in Δ_s·Δᵢ (right) and in Δᵢ·Δ_s
    (left)."""
    right: dict[int, dict[int, int]] = {}
    left: dict[int, dict[int, int]] = {}
    for s in range(d_dim(n)):
        for t, m in _pair_product(n, s, i):
            right.setdefault(t, {})[s] = m
        for t, m in _pair_product(n, i, s):
            left.setdefault(t, {})[s] = m
    return right, left


def _unity_equations(n: int):
    """The equations e·Δᵢ = Δᵢ and Δᵢ·e = Δᵢ, one per generator i and
    target t, as ({s: c}, δ_{it}) meaning Σ_s c·e_s = δ_{it}: c is
    c(s,i,t) for the first and c(i,s,t) for the second."""
    for i in range(d_dim(n)):
        for cols in _multiplication_columns(n, i):
            for t in set(cols) | {i}:
                yield cols.get(t, {}), int(t == i)


def unity_find(n: int, field=QQ, cap: int = DALG_CAP):
    """The two-sided unity, or None.  Solves the linear system
    e·Δᵢ = Δᵢ = Δᵢ·e by incremental elimination; a unity is unique when it
    exists, so the system is either inconsistent or determines e.

    The equations have integer coefficients and `SpanBasis` eliminates
    exactly over the given field (over Q fraction-free, each step scaling a
    vector by a nonzero integer), so a pivot in the right-hand-side column
    proves the system inconsistent.  Elimination stops once the
    coefficients are determined; the candidate is then checked against
    every equation in integer arithmetic, scaled by its common
    denominator, so a returned element is a two-sided unity."""
    _check_cap(n, cap)
    dim = d_dim(n)
    aug = SpanBasis(field, dim + 1)
    for cols, rhs in _unity_equations(n):
        row = [0] * (dim + 1)
        for s, m in cols.items():
            row[s] = m
        row[dim] = rhs
        aug.insert(row)
        if dim in aug.pivots:
            return None
        if aug.rank() == dim:
            break
    else:
        raise ArithmeticError("unity system is underdetermined")
    coeffs = {}
    for row, pivot in zip(aug.rows, aug.pivots):
        coeffs[pivot] = row[dim]
    # over F_p the coefficients are ints, with denominator 1
    den = lcm(*(c.denominator for c in coeffs.values()))
    num = {s: c.numerator * (den // c.denominator) for s, c in coeffs.items()}
    for cols, rhs in _unity_equations(n):
        total = sum(num.get(s, 0) * m for s, m in cols.items())
        if field.normalize(total - den * rhs):
            return None
    return DElement(n, field, coeffs)


def center_dim(n: int, field=QQ, cap: int = DALG_CAP) -> int:
    """Dimension of {x : xΔᵢ = Δᵢx for all i}: the nullity of the integer
    system whose row for generator i and target t is c(s,i,t) − c(i,s,t)
    over s.

    The rows go into one `SpanBasis`, which eliminates exactly over the
    given field; over Q it is fraction-free and each step scales a vector
    by a nonzero integer, so the rank is the rank over Q, with no modular
    step.  No early stop at full rank: Δ_{∅,∅} is central over every field
    (both products with Δ_{B,A} are |A|!(n−|A|)!·Δ_{∅,∅}), so the rank stays
    below the dimension."""
    _check_cap(n, cap)
    dim = d_dim(n)
    span = SpanBasis(field, dim)
    for i in range(dim):
        right, left = _multiplication_columns(n, i)
        for t in set(right) | set(left):
            row = [0] * dim
            for s, m in right.get(t, {}).items():
                row[s] = m
            for s, m in left.get(t, {}).items():
                row[s] -= m
            if any(row):
                span.insert(row)
    return dim - span.rank()


@lru_cache(maxsize=None)
def _left_traces(n: int) -> tuple[int, ...]:
    """τ_w = trace of left multiplication by Δ_w on the Δ-algebra."""
    dim = d_dim(n)
    traces = []
    for w in range(dim):
        total = 0
        for t in range(dim):
            for s, m in _pair_product(n, w, t):
                if s == t:
                    total += m
        traces.append(total)
    return tuple(traces)


def _unitalized_gram(n: int) -> list[list[int]]:
    """Gram matrix of (x, y) ↦ trace(L_{xy}) on the unitalization; index 0
    is the adjoined unity."""
    dim = d_dim(n)
    traces = _left_traces(n)
    size = dim + 1
    g = [[0] * size for _ in range(size)]
    g[0][0] = size
    for i in range(dim):
        g[0][i + 1] = g[i + 1][0] = traces[i]
    for i in range(dim):
        for j in range(i, dim):
            total = 0
            for t, m in _pair_product(n, i, j):
                total += m * traces[t]
            g[i + 1][j + 1] = g[j + 1][i + 1] = total
    return g


def _gram_span(n: int) -> SpanBasis:
    """The span over Q of the rows of the unitalized Gram matrix."""
    g = _unitalized_gram(n)
    span = SpanBasis(QQ, len(g))
    for row in g:
        span.insert(row)
    return span


def radical_dim(n: int, field=QQ, cap: int = DALG_CAP) -> int:
    """Dimension of the Jacobson radical over the rationals, as the
    nullity of the trace form on the unitalization (the radical of the
    unitalization lies inside the algebra, so the two radicals agree).

    The Gram matrix is integer and its rows go into a `SpanBasis` over Q,
    which eliminates fraction-free: each step scales a vector by a nonzero
    integer, so the rank is exact over Q, with no modular step."""
    _check_cap(n, cap)
    if field.characteristic != 0:
        raise ValueError("radical computation is supported over the rationals only")
    span = _gram_span(n)
    return span.ambient - span.rank()


def radical_basis(n: int, cap: int = DALG_CAP) -> list[DElement]:
    """A basis of the radical over the rationals: the kernel of the trace
    form on the unitalization, read off the `SpanBasis` of the integer Gram
    rows by `SpanBasis.kernel`, as coordinates on the Δ-symbols.  The
    unitalization coordinate of every kernel vector is zero."""
    _check_cap(n, cap)
    out = []
    for vec in _gram_span(n).kernel():
        if vec[0]:
            raise ArithmeticError("radical vector escapes the non-unital part")
        out.append(DElement(n, QQ, dict(enumerate(vec[1:]))))
    return out


def quotient_map_check(n: int, trials: int = 500, seed: int = 0, field=QQ) -> Report:
    """Δ_{B,A} ↦ ∇_{B,A} is multiplicative: exhaustive over basis pairs
    for n ≤ 3, seeded samples otherwise."""
    _check_cap(n)
    rep = Report("quotient_map_check", n=n, field=field.name)
    dim = d_dim(n)
    exhaustive = n <= 3
    if exhaustive:
        pairs = [(i, j) for i in range(dim) for j in range(dim)]
    else:
        rng = random.Random(seed)
        pairs = [(rng.randrange(dim), rng.randrange(dim)) for _ in range(trials)]
    ok = True
    witness = None
    for i, j in pairs:
        di = _basis_delement(n, i, field)
        dj = _basis_delement(n, j, field)
        lhs = to_group_algebra(d_mul(di, dj))
        rhs = algebra_mul(to_group_algebra(di), to_group_algebra(dj))
        if lhs != rhs:
            ok, witness = False, f"indices ({i}, {j})"
            break
    rep.data["pairs"] = len(pairs)
    rep.add("multiplicative", ok, witness=witness)
    return rep


def reference_stats() -> list[dict]:
    """The frozen data-table rows (dimension, center, radical) for n = 2..5."""
    text = resources.files("snalg").joinpath("data/dalg_stats.json").read_text()
    return json.loads(text)


def reference_unity(n: int, field=QQ) -> DElement:
    """The frozen closed-form unity for n = 1, 2, 3."""
    text = resources.files("snalg").joinpath("data/unity_formulas.json").read_text()
    table = json.loads(text)
    try:
        terms = table[str(n)]
    except KeyError:
        raise ValueError(f"no stored unity formula for n = {n}")
    total = DElement.zero(n, field)
    for term in terms:
        c = field.normalize(Fraction(term["coeff"]))
        total = total + c * DElement.basis(
            n, Subset(n, term["B"]), Subset(n, term["A"]), field
        )
    return total


def stats(n: int, field=QQ, cap: int = DALG_CAP) -> dict:
    """The data-table row: dimension, center and radical dimensions, and
    the unity formula when one exists."""
    _check_cap(n, cap)
    unity = unity_find(n, field, cap)
    row = {
        "n": n,
        "dim": d_dim(n),
        "center_dim": center_dim(n, field, cap),
        "radical_dim": radical_dim(n, field, cap) if field.characteristic == 0 else None,
        "unity": str(unity) if unity is not None else None,
    }
    return row
