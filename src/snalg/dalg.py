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
each block.  So the trace form too depends only on sizes, (|C|, |B|,
|B∩C|, |D∩A|): it is a combination of Johnson-scheme intersection
matrices, and the radical is ranked on its two-row isotypic blocks, (⌊n/2⌋+1)²
integer matrices of side at most n+1, with no C(2n,n)-square Gram matrix
(`radical_dim` gives the argument).

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

The center and the unity are solved on the invariants of S_n acting
diagonally, Δ_{B,A} ↦ Δ_{σB,σA}.  Let σ act on the left index,
σ·Δ_{B,A} = Δ_{σB,A}, and τ on the right one, Δ_{B,A}·τ = Δ_{B,τ⁻¹A}.  The
product rule depends only on |C|, |B| and |B∩C|, and its terms range over
U ⊆ D and V ⊆ A, so for any row table (σ·x)·y = σ·(x·y),
x·(y·τ) = (x·y)·τ and (x·τ)·y = x·(τ·y).  The diagonal action is
x ↦ σ·x·σ⁻¹, an automorphism.  For x central and any y,

    (σ·x·σ⁻¹)·y = σ·(x·(σ⁻¹·y)) = σ·((σ⁻¹·y)·x) = y·x = x·y,

and with y the unity this reads σ·x·σ⁻¹ = x.  So where a unity exists,
the center lies in the invariants; the unity itself is invariant, being
unique and fixed by every automorphism.  An invariant element has one
unknown per orbit (|B|, |B∩A|) (`_orbits`), and it is central iff it
commutes with one symbol per orbit (`_invariant_center`); the unity is
solved in that center (`unity_find`).  Where no unity exists the center
may be larger, and `center_dim` eliminates the commutator system of
every symbol (`_center_span`).

The module provides exact multiplication, associativity verification,
unity search, center and Jacobson-radical dimensions (radical over the
rationals, via the trace form), and the linear map
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
    """(right, left) for the symbol Δᵢ, each as {t: {s: c}} with
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


@lru_cache(maxsize=None)
def _center_span(n: int, field) -> SpanBasis:
    """The span of the integer commutator rows of every symbol: the row for
    a symbol i and target t is c(s,i,t) − c(i,s,t) over s, so that its
    kernel is {x : x·Δᵢ = Δᵢ·x for every i}, the center.  `center_dim`
    reads its rank where no unity exists."""
    span = SpanBasis(field, d_dim(n))
    for i in range(d_dim(n)):
        right, left = _multiplication_columns(n, i)
        for t in set(right) | set(left):
            row = dict(right.get(t, {}))
            for s, m in left.get(t, {}).items():
                row[s] = row.get(s, 0) - m
            span.insert(row)
    return span


@lru_cache(maxsize=None)
def _orbits(n: int) -> tuple[tuple[int, ...], ...]:
    """The orbits of the diagonal action Δ_{B,A} ↦ Δ_{σB,σA}: the basis
    indices with one (|B|, |B∩A|) each, in order of their first index, the
    representative; the last is the top symbol Δ_{[n],[n]} alone."""
    pairs, _ = _basis_data(n)
    orbits: dict[tuple[int, int], list[int]] = {}
    for i, (b, a) in enumerate(pairs):
        orbits.setdefault((b.bit_count(), (b & a).bit_count()), []).append(i)
    return tuple(map(tuple, orbits.values()))


@lru_cache(maxsize=None)
def _invariant_center(n: int, field) -> tuple[dict[int, int], ...]:
    """A basis of the invariant center Z^{S_n}, each vector an integer
    {index: coeff} dict.  The unknowns are one x_o per orbit o, for
    x = Σ x_o·S_o with S_o the sum of the orbit's symbols.  Such an x is
    invariant, so x·Δ_{σr} − Δ_{σr}·x = σ·(x·Δ_r − Δ_r·x)·σ⁻¹, and it is
    central iff it commutes with the representative Δ_r of every orbit:
    the rows are the coefficients of S_o·Δ_r − Δ_r·S_o at each target,
    one column per orbit, eliminated exactly over the field."""
    orbits = _orbits(n)
    sums = [dict.fromkeys(o, 1) for o in orbits]
    span = SpanBasis(field, len(orbits))
    for o in orbits:
        r = {o[0]: 1}
        images = [(_mul_coeffs(n, s, r), _mul_coeffs(n, r, s)) for s in sums]
        for t in set().union(*(right.keys() | left.keys() for right, left in images)):
            span.insert([right.get(t, 0) - left.get(t, 0) for right, left in images])
    center = []
    for z in span.kernel():
        nums, _ = _clear_denominators(z)
        center.append({i: x for o, x in zip(orbits, nums) if x for i in o})
    return tuple(center)


def unity_find(n: int, field=QQ, cap: int = DALG_CAP):
    """The two-sided unity, or None.  Solved inside the invariant center
    (`_invariant_center`, basis z_1..z_k): the unknowns are the c_j of
    e = Σ c_j·z_j and the equations are Σ c_j·(z_j·Δ_r) = Δ_r for the
    representative Δ_r of each orbit, k + 1 columns in all.  They are read
    from the top symbol Δ_{[n],[n]}, the last orbit, down: for n ≤ 5 over
    Q, F_2, F_3, F_5 and F_7 its equations alone decide the system.

    The solutions are exactly the two-sided unities:
    - a unity is unique (e = e·e′ = e′) and the diagonal action is by
      automorphisms, so a unity is invariant; it commutes with everything,
      so it lies in the invariant center;
    - for e invariant, e·Δ_r = Δ_r gives e·Δ_{σr} = σ·(e·Δ_r)·σ⁻¹ = Δ_{σr}
      on every symbol, and Δ·e = e·Δ by centrality;
    - by uniqueness the system is inconsistent or has full rank k, never
      underdetermined.
    So no invariant unity means no unity at all.

    The equations have integer coefficients and `SpanBasis` eliminates
    exactly over the given field (over Q fraction-free, each step scaling a
    vector by a nonzero integer), so a pivot in the right-hand-side column
    proves the system inconsistent.  Elimination stops once the c_j are
    determined; the candidate e is then checked by multiplying, e·Δ_r =
    Δ_r = Δ_r·e for every representative, exactly with `d_mul`.  e is
    invariant, so that covers every symbol, and a returned element is a
    two-sided unity."""
    _check_n_range(n, cap)
    center = _invariant_center(n, field)
    k = len(center)
    reps = [o[0] for o in _orbits(n)]
    products = (([_mul_coeffs(n, z, {r: 1}) for z in center], r) for r in reversed(reps))
    equations = (
        {**{j: zr[t] for j, zr in enumerate(images) if t in zr}, k: int(t == r)}
        for images, r in products
        for t in sorted({r}.union(*images))
    )
    aug = SpanBasis(field, k + 1)
    for row in equations:
        aug.insert(row)
        if k in aug.pivots:
            return None
        if aug.rank() == k:
            break
    else:
        raise ArithmeticError("unity system is underdetermined")
    coeffs = (row[k] for row in aug.rows)
    e = sum((c * DElement(n, field, z) for c, z in zip(coeffs, center)), DElement.zero(n, field))
    for r in reps:
        g = DElement._raw(n, field, {r: 1})
        if not d_mul(e, g) == g == d_mul(g, e):
            return None
    return e


def center_dim(n: int, field=QQ, cap: int = DALG_CAP) -> int:
    """Dimension of the center.  Where a unity e exists, the center lies in
    the invariants of the diagonal action: for x central, (σ·x·σ⁻¹)·y = x·y
    for every y (module docstring), and y = e gives σ·x·σ⁻¹ = x.  So it is
    the invariant center of `_invariant_center`, one unknown per orbit.
    Where none exists (up to n = 5: over F_2 from n = 2, over F_3 from
    n = 3, and over F_5 at n = 5) it can be larger, and it is the nullity
    of the commutator system of every symbol, `_center_span`.  Both are
    eliminated exactly over the given field; over Q `SpanBasis` is
    fraction-free, each step scaling a vector by a nonzero integer, so the
    rank is the rank over Q, with no modular step."""
    _check_n_range(n, cap)
    return _center_dim(n, field, unity_find(n, field, cap))


def _center_dim(n: int, field, unity) -> int:
    """`center_dim`, given the unity or None from `unity_find`."""
    if unity is None:
        return d_dim(n) - _center_span(n, field).rank()
    return len(_invariant_center(n, field))


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


def _trace_form_classes(n: int) -> dict[tuple[int, int], dict[tuple[int, int], int]]:
    """{(c, b): {(m₁, m₂): Φ_{c,b}(m₁, m₂)}}: the trace form tr(L_{xy}) at
    x = Δ_{D,C}, y = Δ_{B,A} with |C| = c, |B| = b, |B∩C| = m₁ and
    |D∩A| = m₂.  The product is Σ_u R(c,b,m₁)[u]·Σ _blocks(n, D, A)[u], so
    the entry is that row dotted with the sums of τ over the block, which
    are read off one representative (D, A) per (c, b, m₂): D = {1..c} and
    A = {c−m₂+1 .. c−m₂+b}."""
    traces = _left_traces(n)
    out = {}
    for c in range(n + 1):
        for b in range(n + 1):
            phi = out[c, b] = {}
            meets = range(max(0, b + c - n), min(b, c) + 1)
            for m2 in meets:
                blocks = _blocks(n, (1 << c) - 1, ((1 << b) - 1) << (c - m2))
                sums = [sum(traces[t] for t in block) for block in blocks]
                for m1 in meets:
                    phi[m1, m2] = sum(r * x for r, x in zip(_coeff_row(n, c, b, m1), sums))
    return out


def _theta(n: int, j: int, m: int, c: int, b: int) -> int:
    """θ'_j(m; c, b), for j ≤ c, b ≤ n − j: the eigenvalue of the
    intersection matrix J^m_{cb} on the copy of S^{(n−j,j)}, scaled by
    (c−j)!/(b−j)! (see `radical_dim`)."""
    return sum(
        (-1) ** e * comb(j, e) * comb(c - j + e, m - j + e) * comb(n - c - e, b - m - e)
        for e in range(j + 1)
        if m - j + e >= 0 and b - m - e >= 0
    )


def radical_dim(n: int, field=QQ, cap: int = DALG_CAP) -> int:
    """Dimension of the Jacobson radical over the rationals, from the ranks
    of (⌊n/2⌋+1)² integer matrices of side at most n+1: no C(2n,n)-square
    matrix is built.  Write A for the algebra, A# for its unitalization,
    G_A(x, y) = tr(L_{xy}) for the trace form on A, R(c,b,m) for
    `_coeff_row(n, c, b, m)` and τ for `_left_traces(n)`.

    1. No unit row.  By Dickson's criterion (characteristic 0) rad(A#) is
       the kernel of the trace form of A#, and rad(A#) = rad(A) ⊆ A.  That
       kernel lies in A and pairs to zero with A, so it sits in ker G_A.
       Conversely, let x be in ker G_A.  Then p_k = tr(L_x^k) =
       tr(L_{x·x^{k−1}}) = 0 for k ≥ 2, so Newton's identities give
       k·e_k = e_{k−1}·p_1 for the elementary symmetric functions e_k of
       the eigenvalues of L_x, hence e_k = p_1^k/k!, and at k = C(2n,n) + 1
       they read e_{C(2n,n)}·p_1 = 0.  So p_1 = 0, every e_k = 0, L_x is
       nilpotent, and x pairs to zero with the unity of A# as well.  Hence
       the radical has dimension C(2n,n) − rank G_A.

    2. Size data.  G_A(Δ_{D,C}, Δ_{B,A}) = Σ_u R(c,b,m₁)[u]·S[u], with
       c = |C|, b = |B|, m₁ = |B∩C| and S[u] the sum of τ over
       `_blocks(n, D, A)[u]`.  S_n acts diagonally on the symbols by
       algebra automorphisms (the structure constants depend only on
       sizes), so τ is invariant, S depends only on (c, b, m₂) with
       m₂ = |D∩A|, and the entry is Φ_{c,b}(m₁, m₂)
       (`_trace_form_classes`).

    3. Schur.  Reorder the columns (B, A) → (A, B); this leaves the rank
       alone.  Then the (c, b) block of G_A is Σ Φ_{c,b}(m₁, m₂)·J^{m₂}_{cb} ⊗
       J^{m₁}_{cb}, where J^m_{cb}[X, Y] = [|X∩Y| = m] for c-subsets X and
       b-subsets Y.  The span V_k of the k-subsets of [n] splits as
       ⊕_{j ≤ min(k, n−k)} U^{k−j}H_j, with U the up operator (X ↦ the sum
       of its one-larger supersets) and H_j = ker ∂ ⊆ V_j ≅ S^{(n−j,j)},
       and each S^{(n−j,j)} occurs at most once: the Johnson scheme is
       multiplicity-free (Delsarte).  J^m_{cb} is S_n-equivariant, so by
       Schur's lemma J^m_{cb}·U^{b−j}h = θ_j(m;c,b)·U^{c−j}h for h in H_j.
       In a rational basis of V_k ⊗ V_k that runs through the pieces
       U^{k−j₁}H_{j₁} ⊗ U^{k−j₂}H_{j₂}, each matched to H_{j₁} ⊗ H_{j₂}, G_A
       is ⊕_{j₁,j₂} M_{j₁j₂} ⊗ 1 on H_{j₁} ⊗ H_{j₂}, with
       M_{j₁j₂}[c, b] = Σ_{m₁,m₂} Φ_{c,b}(m₁, m₂)·θ_{j₁}(m₂;c,b)·θ_{j₂}(m₁;c,b)
       for c, b in [j, n−j], j = max(j₁, j₂).  So rank G_A =
       Σ_{j₁,j₂} f_{j₁}·f_{j₂}·rank M_{j₁j₂}, with f_j = C(n,j) − C(n,j−1)
       the dimension of S^{(n−j,j)}.

    4. θ in closed form.  Take h_j = (e₁−e₂)(e₃−e₄)⋯(e_{2j−1}−e_{2j}) in
       H_j and read J^m_{cb}·U^{b−j}h_j at X = {1,3,…,2j−1} ∪ {2j+1,…,j+c},
       where U^{c−j}h_j has the entry (c−j)!.  U^{b−j}e_S is (b−j)! times
       the sum of the b-sets Y ⊇ S, so counting the Y with |X∩Y| = m, for
       each term ±e_S of h_j that takes the even element of e pairs, gives
       θ'_j(m;c,b) = Σ_e (−1)^e·C(j,e)·C(c−j+e, m−j+e)·C(n−c−e, b−m−e)
       (`_theta`), which is θ_j(m;c,b)·(c−j)!/(b−j)!.  That scales the
       rows and columns of M_{j₁j₂} by nonzero factors, so M is ranked
       with θ' in place of θ.

    Each M_{j₁j₂} is an integer matrix, and its rows go into a `SpanBasis`
    over Q, which eliminates fraction-free: each step scales a vector by a
    nonzero integer, so every rank is exact over Q, with no modular step."""
    _check_n_range(n, cap)
    if field.characteristic != 0:
        raise ValueError("radical computation is supported over the rationals only")
    phi = _trace_form_classes(n)
    half = range(n // 2 + 1)
    specht = [comb(n, j) - (comb(n, j - 1) if j else 0) for j in half]
    rank = 0
    for j1 in half:
        for j2 in half:
            j = max(j1, j2)
            sizes = range(j, n - j + 1)
            span = SpanBasis(QQ, len(sizes))
            for c in sizes:
                span.insert([
                    sum(
                        v * _theta(n, j1, m2, c, b) * _theta(n, j2, m1, c, b)
                        for (m1, m2), v in phi[c, b].items()
                    )
                    for b in sizes
                ])
            rank += specht[j1] * specht[j2] * span.rank()
    return d_dim(n) - rank


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
        "center_dim": _center_dim(n, field, unity),
        "radical_dim": radical_dim(n, field, cap) if field.characteristic == 0 else None,
        "unity": str(unity) if unity is not None else None,
    }
    return row
