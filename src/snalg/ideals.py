"""The complementary ideals I_k and J_k of the group algebra of S_n.

I_k is spanned by row-to-row sums over set compositions with at most k
blocks; J_k is the two-sided ideal generated by antisymmetrizers of
(k+1)-element subsets.  Both carry triangular bases indexed by
permutations: I_k by the permutations avoiding an increasing (k+1)-pattern
(each basis element has coefficient 1 on its index permutation and support
only lex-below it), J_k by the remaining permutations (coefficient 1 on the
index, support only lex-above).  The verification routines check, in exact
arithmetic, the rank formulas, mutual annihilation, orthogonality, the
direct-sum decomposition when n! is invertible, quotient bases, antipode
stability, and spanning of sampled generators.

Each basis is built once per process for each (kind, n, k, field) and kept
in the private dict `_bases`; the builders stay plain functions that look
it up.  A basis decides rank and membership from its triangular leaders
(`IdealBasis.reduce`), and a sum of spans is ranked from the residues of
one family modulo the other (`_sum`), so no span of an ideal is reduced;
`IdealBasis.span()` reduces one from the elements' integer terms and hands
out copies.  The avoider lists come from `perm`, which keeps one table of
monotone subsequence lengths per n.
"""

from __future__ import annotations

import random
from math import factorial

from snalg.exactla import QQ, SpanBasis
from snalg.groupalg import (
    AlgebraElement,
    _rank,
    antipode,
    dot,
    mul,
    permutation_basis,
    sign_twist,
)
from snalg.perm import (
    Permutation,
    _avoider_ranks,
    _check_n_range,
    _check_trials,
    compose,
    enumerate_av,
    erdos_szekeres_decomposition,
    inverse,
    lis_length,
    lis_starting_lengths,
)
from snalg.report import Report
from snalg.rook import Subset
from snalg.setdecomp import (
    act,
    antisymmetrizer,
    random_set_composition,
    row_sum,
    tuple_sum,
)

__all__ = [
    "IdealBasis",
    "BASIS_CAP",
    "VERIFY_CAP",
    "increasing_witness",
    "build_I_basis",
    "build_J_basis",
    "sign_twisted",
    "verify_row_main",
    "orthogonal_complement_check",
    "tuple_sum_span_check",
    "twin_check",
    "mixed_quotient_check",
    "cross_char_intersection",
]

BASIS_CAP = 6
VERIFY_CAP = 5

# the bases built so far, by (kind, n, k, field)
_bases: dict[tuple, "IdealBasis"] = {}


class IdealBasis:
    """A triangular basis of I_k, J_k, or a sign-twisted copy.

    elements[i] has coefficient ±1 (+1 untwisted) on leaders[i], and the
    rest of its support lies lex-below it for the I kinds, lex-above for
    the J kinds, so the family is its own echelon form.  `reduce(v)` sweeps
    the lex ranks of the integer vector v once, downward for the I kinds,
    upward for the J kinds: at each leader r where v is nonzero, with entry
    c (read mod p over F_p), it subtracts c·u times the element led at r,
    u = ±1 its coefficient there.  The residue, the entries left, is empty
    iff v lies in the span; `contains` stops at the first one.  The rank is
    the number of elements.  All this needs the family unitriangular
    (denominator 1, leader coefficient ±1, the leader the max (I kinds) or
    min (J kinds) of the support, distinct leaders), checked once; a family
    that is not (only the tests build one) answers from its reduced
    `SpanBasis`.
    """

    __slots__ = ("n", "k", "field", "kind", "elements", "leaders", "_span", "_rows")

    def __init__(self, n, k, field, kind, elements, leaders):
        if kind not in ("I", "J", "sign-twisted-I", "sign-twisted-J"):
            raise ValueError(f"unknown basis kind {kind!r}")
        self.n = n
        self.k = k
        self.field = field
        self.kind = kind
        self.elements = tuple(elements)
        self.leaders = tuple(leaders)
        if len(self.elements) != len(self.leaders):
            raise ValueError(f"{len(self.elements)} elements, {len(self.leaders)} leaders")
        self._span = None
        self._rows = False  # not checked yet

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def _reduced(self) -> SpanBasis:
        if self._span is None:
            self._span = SpanBasis(self.field, factorial(self.n))
            for e in self.elements:
                self._span.insert(e._terms)
        return self._span

    def span(self) -> SpanBasis:
        """The span of the elements, reduced on the first call and handed
        out as a copy."""
        return self._reduced().copy()

    def _leading(self):
        """{leader rank: (u, terms)}, u = ±1 the leader coefficient, if the
        family is unitriangular; None otherwise."""
        if self._rows is False:
            p = self.field.characteristic
            extreme = max if self.kind.endswith("I") else min
            rows = {}
            for v, e in zip(self.leaders, self.elements):
                r, terms = _rank(v), e._terms
                u = terms.get(r)
                if p and u == p - 1:
                    u = -1
                if e._den != 1 or u not in (1, -1) or extreme(terms) != r or r in rows:
                    rows = None
                    break
                rows[r] = (u, terms)
            self._rows = rows
        return self._rows

    def _sweep(self, v: dict, stop: bool) -> dict:
        """The residue of v; with `stop`, only its first nonzero non-leader
        entry, if any."""
        rows = self._leading()
        if rows is None:
            s = self._reduced()
            return s._reduce(s._entry(v))
        if not v:
            return {}
        p = self.field.characteristic
        n_fact = factorial(self.n)
        w = [0] * n_fact
        for j, x in v.items():
            w[j] = x
        residue = {}
        for r in range(max(v), -1, -1) if self.kind.endswith("I") else range(min(v), n_fact):
            c = w[r]
            if not c:
                continue
            if p:
                c %= p
                if not c:
                    continue
            row = rows.get(r)
            if row is None:
                if stop:
                    return {r: c}
                residue[r] = c
                continue
            u, terms = row
            b = c * u
            for j, y in terms.items():
                w[j] -= b * y
        return residue

    def reduce(self, v: dict) -> dict:
        """The residue of v modulo the span: zero at every leader (at every
        pivot of the reduced span, off the unitriangular path)."""
        return self._sweep(v, False)

    def contains(self, v: dict) -> bool:
        return not self._sweep(v, True)

    def rank(self) -> int:
        return len(self.elements) if self._leading() is not None else self._reduced().rank()

    def __repr__(self) -> str:
        return (
            f"IdealBasis(kind={self.kind}, n={self.n}, k={self.k}, "
            f"size={len(self.elements)})"
        )


def increasing_witness(v: Permutation, k: int) -> Subset:
    """The lexicographically smallest (k+1)-element set of positions on
    which v is increasing.  Requires v to contain an increasing subsequence
    of length k+1."""
    n = v.n
    starting = lis_starting_lengths(v)
    picked = []
    need = k + 1
    last_val = 0
    for p in range(1, n + 1):
        if v(p) > last_val and starting[p - 1] >= need:
            picked.append(p)
            last_val = v(p)
            need -= 1
            if need == 0:
                return Subset(n, picked)
    raise ValueError(f"{v.oln} has no increasing subsequence of length {k + 1}")


def build_I_basis(n: int, k: int, field=QQ, cap: int = BASIS_CAP) -> IdealBasis:
    """Triangular basis of I_k: one row-to-row sum per permutation avoiding
    an increasing (k+1)-subsequence, built from its strictly-decreasing
    block decomposition.  Built once per (n, k, field)."""
    _check_n_range(n, cap)
    key = ("I", n, k, field)
    if key in _bases:
        return _bases[key]
    elements = []
    leaders = []
    for v in enumerate_av(n, k + 1):
        A = erdos_szekeres_decomposition(v, k)
        B = act(v, A)
        elements.append(row_sum(B, A, field))
        leaders.append(v)
    _bases[key] = IdealBasis(n, k, field, "I", elements, leaders)
    return _bases[key]


def build_J_basis(n: int, k: int, field=QQ, cap: int = BASIS_CAP) -> IdealBasis:
    """Triangular basis of J_k: one element v·∇_U⁻ per permutation v that
    contains an increasing (k+1)-subsequence, with U the deterministic
    smallest witness subset.  Built once per (n, k, field)."""
    _check_n_range(n, cap)
    key = ("J", n, k, field)
    if key in _bases:
        return _bases[key]
    elements = []
    leaders = []
    if k < n:
        avoiders = _avoider_ranks(n, k + 1, False)
        for r, v in enumerate(permutation_basis(n)):
            if r in avoiders:
                continue
            U = increasing_witness(v, k)
            elements.append(mul(AlgebraElement._raw(n, field, {r: 1}), antisymmetrizer(U, field)))
            leaders.append(v)
    _bases[key] = IdealBasis(n, k, field, "J", elements, leaders)
    return _bases[key]


def sign_twisted(basis: IdealBasis) -> IdealBasis:
    """Apply the sign-twist to every element; leaders are unchanged."""
    kind = {
        "I": "sign-twisted-I",
        "J": "sign-twisted-J",
        "sign-twisted-I": "I",
        "sign-twisted-J": "J",
    }[basis.kind]
    return IdealBasis(
        basis.n,
        basis.k,
        basis.field,
        kind,
        [sign_twist(e) for e in basis.elements],
        basis.leaders,
    )


def _random_perm(rng: random.Random, n: int) -> Permutation:
    return permutation_basis(n)[rng.randrange(factorial(n))]


def _pair_witness(ibasis: IdealBasis, jbasis: IdealBasis, fails):
    """The first pair of an I- and a J-basis element, in basis order, for
    which fails(ei, ej) holds, as text; None if there is none."""
    for i, ei in zip(ibasis.leaders, ibasis.elements):
        for j, ej in zip(jbasis.leaders, jbasis.elements):
            if fails(ei, ej):
                return f"I[{i.oln}] vs J[{j.oln}]"
    return None


def _closure_witness(basis: IdealBasis, name: str, antipode_stable=False):
    """The first of s·e and e·s outside span(`basis`), over its elements e
    and the Coxeter generators s = s_1..s_{n-1}, as text; None if there is
    none.  The s generate S_n, so None makes the span a two-sided ideal.

    When the span is known to be stable under the antipode S, None is
    decided from s·e in the span for s = s_1 and the n-cycle
    c = (1 2 … n), two left products per element: s_1 and c generate S_n,
    so the span is a left ideal, and for x in it and g in S_n,
    x·g = S(g⁻¹·S(x)) lies in it too.  Only when that fails is every
    Coxeter generator tried on both sides, for the witness."""
    n, field = basis.n, basis.field
    if antipode_stable:
        # s_1 and c; at n = 2 they coincide, at n = 1 there are none
        gens = [
            AlgebraElement.from_perm(Permutation(g), field)
            for g in ([2, 1, *range(3, n + 1)], [*range(2, n + 1), 1])[: min(n - 1, 2)]
        ]
        if all(basis.contains(mul(g, e)._terms) for e in basis.elements for g in gens):
            return None
    gens = [
        AlgebraElement.from_perm(Permutation([*range(1, i), i + 1, i, *range(i + 2, n + 1)]), field)
        for i in range(1, n)
    ]
    for v, e in zip(basis.leaders, basis.elements):
        for i, s in enumerate(gens, 1):
            if not basis.contains(mul(s, e)._terms):
                return f"s_{i}·{name}[{v.oln}] not in span({name})"
            if not basis.contains(mul(e, s)._terms):
                return f"{name}[{v.oln}]·s_{i} not in span({name})"
    return None


def _generator_witness(jbasis: IdealBasis, aX: AlgebraElement, antipode_stable=False):
    """Check (viii) of `verify_row_main`: the first part of its argument
    that does not close, as text; None if all three close.  The closure
    part is `_closure_witness`, with `antipode_stable` passed on."""
    n, k, field = jbasis.n, jbasis.k, jbasis.field
    if not jbasis.contains(aX._terms):
        return "a_X not in span(J)"
    for v, e in zip(jbasis.leaders, jbasis.elements):
        if lis_length(v) > k:
            U = increasing_witness(v, k).members
            sigma = Permutation([*U, *(i for i in range(1, n + 1) if i not in U)])
            left = AlgebraElement.from_perm(compose(v, sigma), field)
            if e == mul(mul(left, aX), AlgebraElement.from_perm(inverse(sigma), field)):
                continue
        return f"J[{v.oln}] is not (vσ)·a_X·σ⁻¹"
    return _closure_witness(jbasis, "J", antipode_stable)


def _span_of(vectors, field, n: int) -> SpanBasis:
    span = SpanBasis(field, factorial(n))
    for v in vectors:
        if v:  # a residue is empty on the span it was taken modulo
            span.insert(v)
    return span


def _sum(a: IdealBasis, b: IdealBasis) -> tuple[IdealBasis, SpanBasis]:
    """The larger of a and b (the size rule: fewer residues to eliminate),
    and the span of the residues of the other's elements modulo it.

    The rank rule: rank(span F + span{v}) = rank F + rank{r(v)} over any
    field, for residues r(v) modulo span F that vanish at every leader of
    F.  Each r(v) is a nonzero multiple of v less an element of span F, so
    the two sums agree, and span F meets the residues' span only in 0: a
    nonzero x in span F is nonzero at the extreme leader among its nonzero
    coefficients (the other elements vanish there, and ±1 is a unit),
    where every residue vanishes.  F may also be a set of unit vectors
    (a residue drops their coordinates) or a reduced span (its pivots as
    the leaders)."""
    base, other = (a, b) if len(a) >= len(b) else (b, a)
    return base, _span_of((base.reduce(e._terms) for e in other), a.field, a.n)


def _completion_rank(basis: IdealBasis, added) -> int:
    """The rank of span(`basis`) together with the unit vectors at the lex
    ranks `added`.

    It is n! at once when the basis is unitriangular and its leaders are
    the ranks outside `added`: sorted by rank, the rows then form a square
    triangular matrix with ±1 on the diagonal, of full rank over any
    field.  Otherwise the unit vectors are reduced modulo the basis, by
    the rank rule of `_sum`."""
    n_fact = factorial(basis.n)
    added = set(added)
    rows = basis._leading()
    if rows is not None and len(rows) + len(added) == n_fact and added.isdisjoint(rows):
        return n_fact
    residues = _span_of((basis.reduce({r: 1}) for r in added), basis.field, basis.n)
    return basis.rank() + residues.rank()


def verify_row_main(
    n: int,
    k: int,
    field=QQ,
    trials: int = 25,
    seed: int = 0,
    cap: int = VERIFY_CAP,
) -> Report:
    """Exact verification of the main structure theorem for (I_k, J_k):
    ranks, mutual annihilation, orthogonality, direct sum (when n! is
    invertible), sampled spanning, quotient bases, antipode stability, and
    generation of J_k by a single antisymmetrizer.

    Ranks (i) and every membership, in (v), (vii) and the closure tests,
    are read off the triangular leaders: each basis is unitriangular, so
    its rank is its size and v lies in its span iff the one sweep of
    `IdealBasis.reduce` leaves nothing.  When the arguments below close,
    no span is reduced at all.

    Antipode stability (vii) is decided first: the antipode S is an
    anti-automorphism (S(xy) = S(y)·S(x), S² = 1), so where (vii) holds, a
    span closed under S_n on the left is closed on the right too,
    x·g = S(g⁻¹·S(x)), and closure under S_n on the left follows from
    s_1 = (1 2) and the n-cycle c = (1 2 … n), which generate S_n: two
    left products per basis element (`_closure_witness`).  Where (vii)
    fails, or a product leaves the span, every Coxeter generator is tried
    on both sides, which also names the witness.  All of this holds over
    any field.

    With X = {1..k+1}, generation (viii) shows span(J) = 𝒜·a_X·𝒜: a_X lies
    in span(J), and span(J) is a two-sided ideal (`_closure_witness`), so
    𝒜·a_X·𝒜 ⊆ span(J); each J-basis element, led by v with
    U = `increasing_witness(v, k)`, is (v∘σ)·a_X·σ⁻¹ = v·a_U, where σ lists
    U and then the rest in ascending order, so σ(X) = U.

    Mutual annihilation (ii) is certified from generators:
      (a) span(I) is a two-sided ideal (`_closure_witness`);
      (b) e·a_X = a_X·e = 0 for every I-basis element e; where (vii) holds
          and S(a_X) = a_X, only e·a_X = 0 is multiplied out, since then
          a_X·e = S(S(e)·a_X) and S(e) lies in span(I).  a_X is one
          signed coset of its Young subgroup S_X, so `mul` forms e·a_X
          with |e| products and n! written ranks, one coset at a time,
          where that is less than the |e|·(k+1)! of the plain path;
      (c) check (viii) passes, so span(J) = 𝒜·a_X·𝒜.
    Then I·J ⊆ (I·𝒜)·a_X·𝒜 ⊆ I·a_X·𝒜 = 0, and J·I ⊆ 𝒜·a_X·(𝒜·I) ⊆
    𝒜·a_X·I = 0.  When J_k = 0 there is nothing to check; when the
    certificate does not close, every pair is multiplied, in both orders,
    and the first nonzero product is the witness.

    Orthogonality (iii) follows from (ii) and (vii): ⟨e, f⟩ is the
    coefficient of the identity in e·S(f), with S the antipode; (vii) puts
    S(f) in span(J), so e·S(f) = 0.  Otherwise every pair is dotted.

    Direct sum (iv) rests on the same certificate: I ∩ J is a two-sided
    ideal whose square lies in I·J = 0, and when n! is invertible k[S_n]
    has no nonzero nilpotent ideal (Maschke), so I ∩ J = 0.  Otherwise the
    rank of the sum is that of the larger basis plus the rank of the
    residues of the other's elements modulo it (`_sum`).

    Quotient bases (vi) pass by the triangular argument of
    `_completion_rank`: the leaders and the added unit vectors are all n!
    ranks, each once.  Where that fails, the rank is that of the basis plus
    the rank of the residues of the unit vectors modulo it."""
    _check_n_range(n, cap)
    _check_trials(trials)
    rep = Report("verify_row_main", n=n, k=k, field=field.name)
    rng = random.Random(seed)
    n_fact = factorial(n)
    avoiders = _avoider_ranks(n, k + 1, False)
    num_av = len(avoiders)

    ibasis = build_I_basis(n, k, field, cap)
    jbasis = build_J_basis(n, k, field, cap)
    rank_I = rep.data["rank_I"] = ibasis.rank()
    rank_J = rep.data["rank_J"] = jbasis.rank()

    # (i) ranks match the avoider counts.
    rep.add(
        "ranks",
        rank_I == num_av == len(ibasis) and rank_J == n_fact - num_av == len(jbasis),
        note=f"I: {rank_I} (expect {num_av}), J: {rank_J} (expect {n_fact - num_av})",
    )

    # (ii)-(iv) rest on (vii) and (viii), so those two are decided first.
    antipode_ok = all(
        basis.contains(antipode(e)._terms) for basis in (ibasis, jbasis) for e in basis
    )
    if k < n:
        aX = antisymmetrizer(Subset(n, range(1, k + 2)), field)
        generator_witness = _generator_witness(jbasis, aX, antipode_ok)
    certified = k >= n or (
        generator_witness is None
        and _closure_witness(ibasis, "I", antipode_ok) is None
        and all(mul(e, aX).is_zero() for e in ibasis.elements)
        and (
            antipode_ok and antipode(aX) == aX
            or all(mul(aX, e).is_zero() for e in ibasis.elements)
        )
    )

    # (ii) products vanish in both orders: certified, or every pair.
    witness = None if certified else _pair_witness(
        ibasis, jbasis, lambda e, f: not (mul(e, f).is_zero() and mul(f, e).is_zero())
    )
    annihilates = rep.add("mutual_annihilation", witness is None, witness=witness)

    # (iii) dot products vanish: from (ii) and (vii), or every pair.
    witness = None if annihilates and antipode_ok else _pair_witness(ibasis, jbasis, dot)
    rep.add("orthogonality", witness is None, witness=witness)

    # (iv) direct sum decomposition, valid when n! is invertible: from the
    # certificate, or by the rank of the residues.
    if field.characteristic == 0 or n_fact % field.characteristic:
        if certified:
            total = rank_I + rank_J
        else:
            base, residues = _sum(ibasis, jbasis)
            total = base.rank() + residues.rank()
        inter = rank_I + rank_J - total
        rep.add(
            "direct_sum",
            total == n_fact and inter == 0,
            note=f"sum rank {total}, intersection {inter}",
        )
    else:
        rep.skip("direct_sum", f"hypothesis n! invertible fails in {field.name}")

    # (v) sampled spanning families lie in the spans.
    if k >= 1:
        witness = None
        for _ in range(trials):
            A = random_set_composition(rng, n, k)
            w = _random_perm(rng, n)
            B = act(w, A)
            if not ibasis.contains(row_sum(B, A, field)._terms):
                witness = f"row_sum({B}, {A})"
                break
        rep.add("sampled_row_sums_in_I", witness is None, witness=witness)
    else:
        rep.skip("sampled_row_sums_in_I", "no set compositions with at most 0 blocks")
    if k < n:
        witness = None
        for _ in range(trials):
            U = Subset(n, rng.sample(range(1, n + 1), k + 1))
            v = _random_perm(rng, n)
            elt = mul(AlgebraElement.from_perm(v, field), antisymmetrizer(U, field))
            if not jbasis.contains(elt._terms):
                witness = f"{v.oln}*antisym({U})"
                break
        rep.add("sampled_generators_in_J", witness is None, witness=witness)
    else:
        rep.skip("sampled_generators_in_J", f"no (k+1)-subsets of [{n}] for k = {k}")

    # (vi) complementary permutations complete each span to full rank.
    irank = _completion_rank(ibasis, [r for r in range(n_fact) if r not in avoiders])
    jrank = _completion_rank(jbasis, avoiders)
    rep.add(
        "quotient_bases",
        irank == n_fact and jrank == n_fact,
        note=f"I-completion {irank}, J-completion {jrank}",
    )

    # (vii) the antipode preserves both spans.
    rep.add("antipode_stability", antipode_ok)

    # (viii) J_k is the two-sided ideal of a single (k+1)-antisymmetrizer.
    if k < n:
        rep.add(
            "single_generator",
            generator_witness is None,
            note="" if generator_witness else f"regenerated rank {rank_J} of {rank_J}",
            witness=generator_witness,
        )
    else:
        rep.skip("single_generator", f"J_{k} = 0 for k >= n")
    return rep


def orthogonal_complement_check(n: int, k: int, field=QQ, cap: int = VERIFY_CAP) -> Report:
    """span(I_k-basis) equals the orthogonal complement of J_k under the
    bilinear form with orthonormal permutation basis, computed as the
    kernel of the span of the J-basis vectors (every unit vector when
    J_k = 0)."""
    _check_n_range(n, cap)
    rep = Report("orthogonal_complement_check", n=n, k=k, field=field.name)
    ispan = build_I_basis(n, k, field, cap).span()
    perp = SpanBasis(field, factorial(n))
    for v in build_J_basis(n, k, field, cap).span().kernel():
        perp.insert(v)
    rep.data["rank_I"] = ispan.rank()
    rep.data["rank_Jperp"] = perp.rank()
    rep.add("I_equals_J_perp", ispan == perp)
    return rep


def tuple_sum_span_check(n: int, k: int, field=QQ, cap: int = VERIFY_CAP) -> Report:
    """span{tuple_sum(b, a) : a, b ∈ [n]^k} equals the sign-twist of
    J_{n-k-1}, by exhaustive generation of the tuple sums (k small)."""
    _check_n_range(n, cap)
    if k > 2:
        raise ValueError("tuple exhaustion supported for k <= 2 only")
    rep = Report("tuple_sum_span_check", n=n, k=k, field=field.name)
    n_fact = factorial(n)
    jk = n - k - 1
    if jk >= 0:
        tjspan = sign_twisted(build_J_basis(n, jk, field, cap)).span()
    else:
        # J_m for negative m is the whole algebra: no avoidance constraint.
        tjspan = SpanBasis(field, n_fact)
        for r in range(n_fact):
            tjspan.insert({r: 1})
    tuples = [()]
    for _ in range(k):
        tuples = [t + (x,) for t in tuples for x in range(1, n + 1)]
    tspan = SpanBasis(field, n_fact)
    ok = True
    witness = None
    for a in tuples:
        for b in tuples:
            vec = tuple_sum(b, a, n, field)._terms
            if not tjspan.contains(vec):
                ok, witness = False, f"tuple_sum({b}, {a})"
                break
            tspan.insert(vec)
        if not ok:
            break
    rep.data["rank_tuple_span"] = tspan.rank()
    rep.data["rank_twisted_J"] = tjspan.rank()
    rep.add("tuple_sums_inside", ok, witness=witness)
    rep.add("spans_equal", tspan == tjspan)
    return rep


def twin_check(n: int, k: int, field=QQ, cap: int = VERIFY_CAP) -> Report:
    """The residues of permutations outside the decreasing-avoider set
    Av'_n(k+1) also complete I_k to full rank, and both avoider families
    have the same size.  Ranks by the rules of `_sum`: the larger of I_k
    and the unit vectors plus the residues of the smaller modulo it (a
    residue modulo unit vectors drops their coordinates)."""
    _check_n_range(n, cap)
    rep = Report("twin_check", n=n, k=k, field=field.name)
    n_fact = factorial(n)
    num_av = len(enumerate_av(n, k + 1))
    primes = _avoider_ranks(n, k + 1, True)
    rep.data["count_Av"] = num_av
    rep.data["count_Av_prime"] = len(primes)
    rep.add("counts_equal", num_av == len(primes))
    ibasis = build_I_basis(n, k, field, cap)
    units = [r for r in range(n_fact) if r not in primes]
    if len(ibasis) >= len(units):
        residues = (ibasis.reduce({r: 1}) for r in units)
        rank = ibasis.rank()
    else:
        residues = ({j: x for j, x in e._terms.items() if j in primes} for e in ibasis)
        rank = len(units)
    rank += _span_of(residues, field, n).rank()
    rep.add("twin_quotient_basis", rank == n_fact, note=f"rank {rank}")
    return rep


def mixed_quotient_check(n: int, k: int, l: int, field=QQ, cap: int = VERIFY_CAP) -> Report:
    """The permutations in Av'_n(l+1) ∖ Av_n(k+1) index a basis of the
    quotient by I_k + sign_twist(J_l).  Ranks by the rules of `_sum`: the
    larger basis plus the residues of the smaller's elements modulo it,
    and for the completion those of the unit vectors at the index set."""
    _check_n_range(n, cap)
    rep = Report("mixed_quotient_check", n=n, k=k, l=l, field=field.name)
    n_fact = factorial(n)
    ibasis = build_I_basis(n, k, field, cap)
    base, residues = _sum(ibasis, sign_twisted(build_J_basis(n, l, field, cap)))
    rank = base.rank() + residues.rank()
    index_set = sorted(_avoider_ranks(n, l + 1, True) - _avoider_ranks(n, k + 1, False))
    rep.data["rank_sum"] = rank
    rep.data["quotient_size"] = len(index_set)
    rep.add(
        "corank_matches",
        rank == n_fact - len(index_set),
        note=f"rank {rank}, expect {n_fact - len(index_set)}",
    )
    for r in index_set:
        residues.insert(base.reduce({r: 1}))
    total = base.rank() + residues.rank()
    rep.add("residues_complete", total == n_fact, note=f"rank {total}")
    return rep


def cross_char_intersection(n: int, field=QQ, cap: int = VERIFY_CAP) -> int:
    """dim(I₂ ∩ sign_twist(I₂)) over the given field: the two ranks less
    that of the sum, by the rules of `_sum` (the two are the same size)."""
    _check_n_range(n, cap)
    ibasis = build_I_basis(n, 2, field, cap)
    tbasis = sign_twisted(ibasis)
    base, residues = _sum(ibasis, tbasis)
    return ibasis.rank() + tbasis.rank() - base.rank() - residues.rank()
