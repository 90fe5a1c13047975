"""The abstract Δ-algebra: a nonunital algebra on C(2n,n) symbols Δ_{B,A}
(pairs of equal-size subsets of [n]) whose structure constants copy the
rook-sum product rule:

    Δ_{D,C}·Δ_{B,A} = ω_{B,C} · Σ_{U⊆D, V⊆A, |U|=|V|}
                      (−1)^{|U|−|B∩C|} · C(|U|, |B∩C|) · Δ_{U,V}.

With m = |B∩C|, the coefficient of Δ_{U,V} depends only on |U| and the
size class (n, |C|, |B|, m), and the U, V range over a block that depends
only on (D, A).  So no structure constant is stored: a product is the
coefficient row of its size class, `rook._coeff_row`, the row the rook-sum
product rules and δ read too, against the block of basis indices per
(D, A) (`_blocks`, built from `rook._subsets_of`), and `_mul_coeffs` sums
the weights of all term pairs that share a block before expanding it once.
The trace of left multiplication is the paper's δ summed in closed form,
τ_{D,C} = Σ_k C(n,k)·δ(D,C,k), and the trace form reads the sums of τ over
each block.

Associativity is checked on rows, not on expanded products.  For
Δ_{D,C}, Δ_{B,A}, Δ_{F,E} with m₁ = |B∩C| and m₂ = |A∩F|, both (ΔΔ)Δ and
Δ(ΔΔ) lie on the block (D, E), with a coefficient that depends only on the
size t of each symbol there.  Writing R(x, y, m) for `_coeff_row(n, x, y, m)`
and c, b, f for |C|, |B|, |F|:

    left[t]  = Σ_u R(c,b,m₁)[u]·C(c−t, u−t)·Σ_m C(m₂,m)·C(b−m₂, u−m)·R(u,f,m)[t]
    right[t] = Σ_s R(b,f,m₂)[s]·C(f−t, s−t)·Σ_m C(m₁,m)·C(b−m₁, s−m)·R(c,s,m)[t]

C(c−t, u−t) counts the U with P ⊆ U ⊆ D for a fixed P of size t, and the
inner sum counts the V ⊆ A of size u by m = |F∩V| (likewise for the right
side).  These only regroup finite integer sums, so they hold for any row
table, and every size class of the block (D, E) is nonempty: the rows are
equal exactly when the expanded products are.

The center and the unity are solved on a generating set, not on every
symbol.  With R_m = {1..m}, the product rule gives
Δ_{D,R_m}·Δ_{R_m,A} = m!(n−m)!·Δ_{D,A}, so over Q the 2^{n+1} − (n+1)
symbols Δ_{D,R_m} and Δ_{R_m,A} generate the algebra.  Over F_p the
factor may vanish: up to n = 5 they generate over F_5 and F_7, but not
over F_2 from n = 3 on, nor over F_3 from n = 4 on.  So `_generators`
decides it per (n, field) with a certificate: the span of the
generators, grown by their products until it is the whole algebra or
stops growing.  Where the certificate fails, the systems run over every
symbol.

The module provides exact multiplication, associativity verification,
unity search, center and Jacobson-radical dimensions (radical over the
rationals via the trace form on the unitalization), and the linear map
Δ_{B,A} ↦ ∇_{B,A} into the group algebra, which the product rule makes an
algebra homomorphism.  Both sides of that map share one coefficient
format, `groupalg._Element`: integer terms over one denominator, so
products and the map itself run on ints over Q and over F_p.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import comb

from snalg.exactla import QQ, SpanBasis, _clear_denominators
from snalg.groupalg import AlgebraElement, _board_combination, _Element, _scalar, mul as algebra_mul
from snalg.perm import _check_n_range, _check_trials
from snalg.report import Report
from snalg.rook import Subset, _coeff_row, _rows, _subsets_of, delta, subsets_of_size

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
    "quotient_map_check",
    "stats",
    "reference_stats",
    "reference_unity",
]

DALG_CAP = 5


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
def _blocks(n: int, dmask: int, amask: int) -> tuple[tuple[int, ...], ...]:
    """Per size u, the basis indices of the Δ_{U,V} with U ⊆ D, V ⊆ A and
    |U| = |V| = u: u ascending, then U, then V."""
    _, index = _basis_data(n)
    dsubs = _subsets_of(dmask)
    asubs = _subsets_of(amask)
    return tuple(
        tuple(index[(umask, vmask)] for umask in dsubs[u] for vmask in asubs[u])
        for u in range(min(len(dsubs), len(asubs)))
    )


def _pair_row(n: int, i: int, j: int):
    """(coefficient row, (dmask, amask)) of Δᵢ·Δⱼ: the product is
    Σ_u row[u]·Σ _blocks(n, dmask, amask)[u]."""
    pairs, _ = _basis_data(n)
    dmask, cmask = pairs[i]
    bmask, amask = pairs[j]
    row = _coeff_row(n, cmask.bit_count(), bmask.bit_count(), (bmask & cmask).bit_count())
    return row, (dmask, amask)


def _mul_coeffs(n: int, x: dict, y: dict) -> dict:
    """The product of {index: coeff} dicts, with the zero coefficients
    dropped.  The weights of all term pairs that share a block (D, A) are
    summed per size u first, then each block is expanded once."""
    weights: dict[tuple[int, int], list] = {}
    for i, xi in x.items():
        for j, yj in y.items():
            row, key = _pair_row(n, i, j)
            w = xi * yj
            acc = weights.get(key)
            if acc is None:
                weights[key] = [w * r for r in row]
            else:
                weights[key] = [a + w * r for a, r in zip(acc, row)]
    out: dict = {}
    for key, ws in weights.items():
        for w, block in zip(ws, _blocks(n, *key)):
            if w:
                for t in block:
                    out[t] = out.get(t, 0) + w
    return {t: c for t, c in out.items() if c}


class DElement(_Element):
    """An element of the Δ-algebra in the one coefficient format of snalg
    (`groupalg._Element`): integer terms {basis index: int} over one
    denominator, the index of Δ_{B,A} its position in `basis_pairs`."""

    __slots__ = ()
    _dim = staticmethod(d_dim)

    @classmethod
    def basis(cls, n: int, B: Subset, A: Subset, field=QQ) -> "DElement":
        if B.size != A.size:
            raise ValueError("basis symbols need equal-size subsets")
        return cls._raw(n, field, {basis_index(n, B, A): 1})

    def items(self):
        """(B, A, coefficient) triples in basis order."""
        pairs, _ = _basis_data(self.n)
        for idx in sorted(self._terms):
            b, a = pairs[idx]
            c = _scalar(self.field, self._terms[idx], self._den)
            yield Subset(self.n, mask=b), Subset(self.n, mask=a), c

    def __mul__(self, other):
        if isinstance(other, _Element):
            return d_mul(self, other)
        return self.__rmul__(other)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*D({B}|{A})" for B, A, c in self.items())

    def __repr__(self) -> str:
        return f"DElement(n={self.n}, {str(self)})"


def d_mul(x: DElement, y: DElement) -> DElement:
    """Bilinear extension of the structure constants, in block form: the
    weights of all term pairs that share a block (D, A) are summed per size
    first, then each block is expanded once (`_mul_coeffs`), on the integer
    terms over the product of the denominators."""
    if not isinstance(x, DElement):
        raise TypeError("d_mul needs two Δ-algebra elements")
    x._check(y)
    terms = _mul_coeffs(x.n, x._terms, y._terms)
    return DElement._canonical(x.n, x.field, terms.items(), x._den * y._den)


def to_group_algebra(x: DElement) -> AlgebraElement:
    """The linear map Δ_{B,A} ↦ ∇_{B,A} into the group algebra."""
    n = x.n
    pairs, _ = _basis_data(n)
    terms = ((_rows(n, *pairs[idx]), c) for idx, c in x._terms.items())
    return _board_combination(n, x.field, terms, x._den)


def _triple_rows(n: int, c: int, b: int, f: int, m1: int, m2: int):
    """(left, right): the coefficient rows of (Δ_{D,C}·Δ_{B,A})·Δ_{F,E} and
    Δ_{D,C}·(Δ_{B,A}·Δ_{F,E}) against `_blocks(n, D, E)`, for any |C| = c,
    |B| = b, |F| = f, |B∩C| = m1 and |A∩F| = m2 (see the module docstring)."""
    top = min(c, f)
    left = [0] * (top + 1)
    for u, r in enumerate(_coeff_row(n, c, b, m1)):
        if r:
            for m in range(max(0, u - b + m2), min(m2, u) + 1):
                w = r * comb(m2, m) * comb(b - m2, u - m)
                for t, x in enumerate(_coeff_row(n, u, f, m)):
                    left[t] += w * comb(c - t, u - t) * x
    right = [0] * (top + 1)
    for s, r in enumerate(_coeff_row(n, b, f, m2)):
        if r:
            for m in range(max(0, s - b + m1), min(m1, s) + 1):
                w = r * comb(m1, m) * comb(b - m1, s - m)
                for t, x in enumerate(_coeff_row(n, c, s, m)):
                    right[t] += w * comb(f - t, s - t) * x
    return left, right


def associativity_check(n: int, mode: str = None, trials: int = 10000, seed: int = 0) -> Report:
    """(xy)z = x(yz) on basis triples, computed over the integers (hence
    valid over every coefficient ring): exhaustive for n ≤ 3, seeded
    random triples otherwise.

    Both sides of Δ_{D,C}·Δ_{B,A}·Δ_{F,E} are one integer row each against
    the block (D, E), fixed by the size class (|C|, |B|, |F|, |B∩C|, |A∩F|)
    (`_triple_rows`), and each class is compared once per call.  The
    regrouping identity in the module docstring holds for any row table, so
    equal rows are equal products, triple for triple."""
    _check_n_range(n, DALG_CAP)
    _check_trials(trials)
    if mode is None:
        mode = "exhaustive" if n <= 3 else "sampled"
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    rep = Report("associativity_check", n=n, mode=mode)
    dim = d_dim(n)
    pairs, _ = _basis_data(n)
    verdicts: dict[tuple[int, ...], bool] = {}

    def triple_ok(i, j, k) -> bool:
        cmask = pairs[i][1]
        bmask, amask = pairs[j]
        fmask = pairs[k][0]
        key = (
            cmask.bit_count(),
            bmask.bit_count(),
            fmask.bit_count(),
            (bmask & cmask).bit_count(),
            (amask & fmask).bit_count(),
        )
        ok = verdicts.get(key)
        if ok is None:
            left, right = _triple_rows(n, *key)
            ok = verdicts[key] = left == right
        return ok

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


def _multiplication_columns(n: int, i: int):
    """(right, left) for the generator Δᵢ, each as {t: {s: c}} with
    integer c: the coefficient of Δ_t in Δ_s·Δᵢ (right) and in Δᵢ·Δ_s
    (left).  Each product is written into the columns straight from its
    coefficient row and block, the single-term case of `_mul_coeffs`."""
    right: dict[int, dict[int, int]] = {}
    left: dict[int, dict[int, int]] = {}
    for s in range(d_dim(n)):
        for cols, (row, key) in ((right, _pair_row(n, s, i)), (left, _pair_row(n, i, s))):
            for r, block in zip(row, _blocks(n, *key)):
                if r:
                    for t in block:
                        cols.setdefault(t, {})[s] = r
    return right, left


def _words_span(n: int, field, gens) -> bool:
    """Whether the words in the symbols `gens` span the Δ-algebra over
    `field`.  The span starts as span(gens) and takes in x·g for each g in
    gens and each x that raised its rank, until it is everything (True) or
    nothing new comes in (False).  Every vector taken in is a combination
    of words, so True proves that gens generate.  At False the span holds
    gens and is closed under right multiplication by them, so it holds
    every word: the words span a proper subalgebra."""
    dim = d_dim(n)
    p = field.characteristic
    span = SpanBasis(field, dim)
    new = [{g: 1} for g in gens if span.insert({g: 1})]
    for x in new:
        if span.rank() == dim:
            break
        for g in gens:
            y = _mul_coeffs(n, x, {g: 1})
            if p:
                y = {t: c % p for t, c in y.items() if c % p}
            if span.insert(y):
                new.append(y)
    return span.rank() == dim


@lru_cache(maxsize=None)
def _generators(n: int, field) -> tuple[int, ...]:
    """The basis indices the center and unity systems run over: those of
    G = {Δ_{D,R_m}} ∪ {Δ_{R_m,A}}, with R_m = {1..m} and D, A any m-subsets,
    when `_words_span` certifies that G generates over `field`, and every
    index otherwise.  |G| = 2^{n+1} − (n+1); the mask of R_m is 2^m − 1."""
    pairs, _ = _basis_data(n)
    gens = tuple(i for i, (b, a) in enumerate(pairs) if (1 << b.bit_count()) - 1 in (b, a))
    return gens if _words_span(n, field, gens) else tuple(range(len(pairs)))


def _unity_equations(n: int, gens):
    """The equations e·Δᵢ = Δᵢ and Δᵢ·e = Δᵢ, one per i in gens and
    target t, as ({s: c}, δ_{it}) meaning Σ_s c·e_s = δ_{it}: c is
    c(s,i,t) for the first and c(i,s,t) for the second."""
    for i in gens:
        for cols in _multiplication_columns(n, i):
            for t in set(cols) | {i}:
                yield cols.get(t, {}), int(t == i)


def unity_find(n: int, field=QQ, cap: int = DALG_CAP):
    """The two-sided unity, or None.  Solves the linear system
    e·g = g = g·e for g in the generating set of `_generators` by
    incremental elimination.

    The set is G, 2^{n+1} − (n+1) symbols, where a certificate shows that
    G generates the algebra over the field, and every symbol otherwise.
    Either way the solutions are exactly the two-sided unities: e·w = w =
    w·e follows for every word w in the generators by induction on its
    length, and the words span.  A unity is unique (e = e·e′ = e′), so the
    solution set is empty or one point, and a consistent system has full
    rank: it is inconsistent or it determines e, never underdetermined.

    The equations have integer coefficients and `SpanBasis` eliminates
    exactly over the given field (over Q fraction-free, each step scaling a
    vector by a nonzero integer), so a pivot in the right-hand-side column
    proves the system inconsistent.  Elimination stops once the
    coefficients are determined; the candidate e is then checked by
    multiplying, e·g = g = g·e for every g in the set, exactly with
    `d_mul`, so a returned element is a two-sided unity."""
    _check_n_range(n, cap)
    gens = _generators(n, field)
    dim = d_dim(n)
    aug = SpanBasis(field, dim + 1)
    for cols, rhs in _unity_equations(n, gens):
        aug.insert({**cols, dim: rhs})
        if dim in aug.pivots:
            return None
        if aug.rank() == dim:
            break
    else:
        raise ArithmeticError("unity system is underdetermined")
    nums, den = _clear_denominators([row[dim] for row in aug.rows])
    e = DElement._canonical(n, field, zip(aug.pivots, nums), den)
    for i in gens:
        g = DElement._raw(n, field, {i: 1})
        if not d_mul(e, g) == g == d_mul(g, e):
            return None
    return e


def center_dim(n: int, field=QQ, cap: int = DALG_CAP) -> int:
    """Dimension of the center: the nullity of the integer system whose
    row for a generator i and target t is c(s,i,t) − c(i,s,t) over s, so
    that its kernel is {x : x·Δᵢ = Δᵢ·x for every generator i}.

    The generators are those of `_generators`: the 2^{n+1} − (n+1) symbols
    of G where a certificate shows that G generates the algebra over the
    field, and every symbol otherwise.  The center of a generated algebra
    is the centralizer of its generators, since an element that commutes
    with each generator commutes with every word in them.

    The rows go into one `SpanBasis`, which eliminates exactly over the
    given field; over Q it is fraction-free and each step scales a vector
    by a nonzero integer, so the rank is the rank over Q, with no modular
    step.  No early stop at full rank: Δ_{∅,∅} is central over every field
    (both products with Δ_{B,A} are |A|!(n−|A|)!·Δ_{∅,∅}), so the rank stays
    below the dimension."""
    _check_n_range(n, cap)
    dim = d_dim(n)
    span = SpanBasis(field, dim)
    for i in _generators(n, field):
        right, left = _multiplication_columns(n, i)
        for t in set(right) | set(left):
            row = dict(right.get(t, {}))
            for s, m in left.get(t, {}).items():
                row[s] = row.get(s, 0) - m
            span.insert(row)
    return dim - span.rank()


@lru_cache(maxsize=None)
def _left_traces(n: int) -> tuple[int, ...]:
    """τ_{D,C} = trace of left multiplication by Δ_{D,C} on the Δ-algebra.
    Δ_{D,C}·Δ_{B,A} has a Δ_{B,A} term only when B ⊆ D, with coefficient
    ω(B,C)·(−1)^{|B|−|B∩C|}·C(|B|,|B∩C|), and A ranges over all C(n,|B|)
    subsets of its size, so τ_{D,C} = Σ_k C(n,k)·δ(D,C,k) with the paper's
    δ (`rook.delta`)."""
    return tuple(
        sum(comb(n, k) * delta(D, C, k) for k in range(D.size + 1))
        for D, C in basis_pairs(n)
    )


def _unitalized_gram(n: int) -> list[list[int]]:
    """Gram matrix of (x, y) ↦ trace(L_{xy}) on the unitalization; index 0
    is the adjoined unity.  Entry (Δ_{D,C}, Δ_{B,A}) is Σ_u coeffs[u]·S(D,A,u),
    with S(D,A,u) the sum of τ over `_blocks(n, D, A)[u]`."""
    dim = d_dim(n)
    traces = _left_traces(n)
    size = dim + 1
    g = [[0] * size for _ in range(size)]
    g[0][0] = size
    for i in range(dim):
        g[0][i + 1] = g[i + 1][0] = traces[i]
    # per block (dmask, amask): the sum of τ over each size u of the block
    sums: dict[tuple[int, int], list[int]] = {}
    for i in range(dim):
        for j in range(i, dim):
            row, key = _pair_row(n, i, j)
            s = sums.get(key)
            if s is None:
                s = sums[key] = [
                    sum(traces[t] for t in block) for block in _blocks(n, *key)
                ]
            g[i + 1][j + 1] = g[j + 1][i + 1] = sum(c * x for c, x in zip(row, s))
    return g


def radical_dim(n: int, field=QQ, cap: int = DALG_CAP) -> int:
    """Dimension of the Jacobson radical over the rationals, as the
    nullity of the trace form on the unitalization (the radical of the
    unitalization lies inside the algebra, so the two radicals agree).

    The Gram matrix is integer and its rows go into a `SpanBasis` over Q,
    which eliminates fraction-free: each step scales a vector by a nonzero
    integer, so the rank is exact over Q, with no modular step.  Its
    entries come from the block form of the product: the traces are
    τ_{D,C} = Σ_k C(n,k)·δ(D,C,k), and the entry at (Δ_{D,C}, Δ_{B,A}) is the
    coefficient row of the size class dotted with the sums of τ over the
    block (D, A)."""
    _check_n_range(n, cap)
    if field.characteristic != 0:
        raise ValueError("radical computation is supported over the rationals only")
    g = _unitalized_gram(n)
    span = SpanBasis(QQ, len(g))
    for row in g:
        span.insert(row)
    return len(g) - span.rank()


def quotient_map_check(n: int, trials: int = 500, seed: int = 0, field=QQ) -> Report:
    """Δ_{B,A} ↦ ∇_{B,A} is multiplicative: exhaustive over basis pairs
    for n ≤ 3, seeded samples otherwise."""
    _check_n_range(n, DALG_CAP)
    _check_trials(trials)
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
        di = DElement._raw(n, field, {i: 1})
        dj = DElement._raw(n, field, {j: 1})
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
    pairs = (
        (basis_index(n, Subset(n, t["B"]), Subset(n, t["A"])), Fraction(t["coeff"]))
        for t in terms
    )
    return DElement(n, field, pairs)


def stats(n: int, field=QQ, cap: int = DALG_CAP) -> dict:
    """The data-table row: dimension, center and radical dimensions, and
    the unity formula when one exists."""
    _check_n_range(n, cap)
    unity = unity_find(n, field, cap)
    row = {
        "n": n,
        "dim": d_dim(n),
        "center_dim": center_dim(n, field, cap),
        "radical_dim": radical_dim(n, field, cap) if field.characteristic == 0 else None,
        "unity": str(unity) if unity is not None else None,
    }
    return row
