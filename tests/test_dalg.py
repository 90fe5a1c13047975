"""Tests for the abstract Δ-algebra: small multiplication tables, unity
formulas, center/radical dimensions, and the homomorphism onto rook sums."""

import operator
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

import pytest

import snalg.dalg as dalg
import snalg.rook as rook
from snalg.dalg import (
    DElement,
    _left_traces,
    associativity_check,
    basis_index,
    basis_pairs,
    center_dim,
    d_dim,
    d_mul,
    quotient_map_check,
    radical_dim,
    reference_stats,
    reference_unity,
    stats,
    to_group_algebra,
    unity_find,
)
from snalg.exactla import GF, QQ, PrimeField, SpanBasis
from snalg.groupalg import AlgebraElement
from snalg.groupalg import mul as algebra_mul
from snalg.perm import enumerate_av
from snalg.reps import Partition, f_lambda
from snalg.rook import Subset, delta, nabla, omega, product_rule_fuzz

import gauss_jordan as gj
from trace_form import unitalized_gram
from unity_system import two_sided_unity


def S(n, *members):
    return Subset(n, members)


def basis(n, b_members, a_members, field=QQ):
    return DElement.basis(n, Subset(n, b_members), Subset(n, a_members), field)


# ---------------------------------------------------------------------------
# basis bookkeeping


def test_dimension_is_central_binomial():
    for n in range(1, 7):
        assert d_dim(n) == comb(2 * n, n)


def test_dimension_counts_avoider_classes():
    # C(2n,n) = (n+1) * Catalan(n), and Catalan(n) counts Av_n(3).
    for n in range(1, 6):
        catalan = len(enumerate_av(n, 3))
        assert d_dim(n) == (n + 1) * catalan


def test_basis_order_by_size_then_lex():
    pairs = basis_pairs(2)
    labels = [(sorted(b.members), sorted(a.members)) for b, a in pairs]
    assert labels == [
        ([], []),
        ([1], [1]),
        ([1], [2]),
        ([2], [1]),
        ([2], [2]),
        ([1, 2], [1, 2]),
    ]


def test_basis_index_round_trip():
    for n in (1, 2, 3):
        for idx, (b, a) in enumerate(basis_pairs(n)):
            assert basis_index(n, b, a) == idx


def test_basis_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        DElement.basis(2, S(2, 1), S(2, 1, 2))


# ---------------------------------------------------------------------------
# element arithmetic


def test_element_arithmetic_and_vectors():
    x = basis(2, [1], [2]) + 3 * basis(2, [1, 2], [1, 2])
    y = x - basis(2, [1], [2])
    assert y == 3 * basis(2, [1, 2], [1, 2])
    assert (x - x).is_zero()
    assert DElement(2, QQ, {basis_index(2, B, A): c for B, A, c in x.items()}) == x
    assert str(y) == "3*D({1,2}|{1,2})"
    assert str(DElement.zero(2)) == "0"


def test_mixed_sizes_rejected():
    with pytest.raises(ValueError):
        d_mul(basis(2, [1], [1]), basis(3, [1], [1]))
    # the two algebras share a coefficient format but never combine
    a, d = AlgebraElement.one(2), basis(2, [1], [1])
    for combine in (operator.add, operator.sub, operator.mul, d_mul, algebra_mul):
        for x, y in ((a, d), (d, a)):
            with pytest.raises(TypeError):
                combine(x, y)
    assert a != d and d != a
    # fields compare by value: an uncached F_7 is the cached one
    assert basis(2, [1], [1], GF(7)) == basis(2, [1], [1], PrimeField(7))


@pytest.mark.parametrize("cls, dim", [(AlgebraElement, 6), (DElement, 20)])
def test_out_of_range_index_rejected(cls, dim):
    for key in (-1, dim, 100):
        with pytest.raises(ValueError, match=f"basis index {key} out of range"):
            cls(3, QQ, {key: 1})
    with pytest.raises(ValueError, match="out of range"):
        cls(3, QQ, enumerate([1] * (dim + 1)))
    x = cls(3, QQ, enumerate([1] * dim))
    assert len(x) == dim and x._terms == dict.fromkeys(range(dim), 1)


# ---------------------------------------------------------------------------
# hand multiplication tables


def test_table_n1():
    u = basis(1, [], [])
    v = basis(1, [1], [1])
    assert d_mul(u, u) == u
    assert d_mul(u, v) == u
    assert d_mul(v, u) == u
    assert d_mul(v, v) == v


def test_table_n2():
    u = basis(2, [], [])
    v = {(i, j): basis(2, [i], [j]) for i in (1, 2) for j in (1, 2)}
    w = basis(2, [1, 2], [1, 2])
    assert d_mul(u, u) == 2 * u
    assert d_mul(u, w) == 2 * u
    assert d_mul(w, u) == 2 * u
    assert d_mul(w, w) == 2 * w
    for (i, j), vij in v.items():
        assert d_mul(u, vij) == u
        assert d_mul(vij, u) == u
        assert d_mul(vij, w) == v[(i, 1)] + v[(i, 2)]
        assert d_mul(w, vij) == v[(1, j)] + v[(2, j)]
    for d, c in v:
        for b, a in v:
            expected = v[(d, a)] if b == c else u - v[(d, a)]
            assert d_mul(v[(d, c)], v[(b, a)]) == expected


# ---------------------------------------------------------------------------
# structure constants against the product rule, computed independently


@lru_cache(maxsize=None)
def symbols(n):
    return basis_pairs(n)


def sign(e):
    return -1 if e % 2 else 1


def reference_product(n, i, j):
    """Δᵢ·Δⱼ as {index: int}, straight from the module docstring's rule:
    ω(B,C)·Σ_{U⊆D, V⊆A, |U|=|V|} (−1)^{|U|−|B∩C|}·C(|U|,|B∩C|)·Δ_{U,V}."""
    (D, C), (B, A) = symbols(n)[i], symbols(n)[j]
    m = len(set(B.members) & set(C.members))
    out = {}
    for u in range(min(D.size, A.size) + 1):
        coeff = omega(B, C) * sign(u - m) * comb(u, m)
        if coeff:
            for U in combinations(D.members, u):
                for V in combinations(A.members, u):
                    out[basis_index(n, Subset(n, U), Subset(n, V))] = coeff
    return out


def reference_traces(n):
    """τ_{D,C} = Σ over every symbol Δ_{B,A} of its own coefficient in
    Δ_{D,C}·Δ_{B,A}, which is nonzero only when B ⊆ D."""
    out = []
    for D, C in symbols(n):
        total = 0
        for B, A in symbols(n):
            if B <= D:
                m = len(set(B.members) & set(C.members))
                total += omega(B, C) * sign(B.size - m) * comb(B.size, m)
        out.append(total)
    return out


def basis_product(n, i, j, field=QQ):
    return d_mul(DElement(n, field, {i: field.one}), DElement(n, field, {j: field.one}))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_structure_constants_match_rule_exhaustive(n):
    for i in range(d_dim(n)):
        for j in range(d_dim(n)):
            want = reference_product(n, i, j)
            assert basis_product(n, i, j) == DElement(n, QQ, want), (i, j)
            got = dalg._mul_coeffs(n, {i: 1}, {j: 1})
            assert got == want and all(type(c) is int for c in got.values())


def test_structure_constants_match_rule_sampled_n5():
    rng = random.Random(5)
    dim = d_dim(5)
    for _ in range(2000):
        i, j = rng.randrange(dim), rng.randrange(dim)
        assert basis_product(5, i, j) == DElement(5, QQ, reference_product(5, i, j)), (i, j)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_d_mul_of_sums_is_bilinear(field):
    # the block-summed path against the sum of the reference constants
    rng = random.Random(11)
    for n in (2, 3, 4):
        dim = d_dim(n)
        for _ in range(20):
            x = {rng.randrange(dim): rng.randint(-5, 5) for _ in range(rng.randint(1, 6))}
            y = {rng.randrange(dim): rng.randint(-5, 5) for _ in range(rng.randint(1, 6))}
            want: dict[int, int] = {}
            for i, xi in x.items():
                for j, yj in y.items():
                    for t, c in reference_product(n, i, j).items():
                        want[t] = want.get(t, 0) + xi * yj * c
            got = d_mul(DElement(n, field, x), DElement(n, field, y))
            assert got == DElement(n, field, want)


def test_traces_closed_form():
    for n in range(1, 6):
        want = reference_traces(n)
        closed = [
            sum(comb(n, k) * delta(D, C, k) for k in range(D.size + 1))
            for D, C in symbols(n)
        ]
        assert list(_left_traces(n)) == want == closed
        assert all(type(t) is int for t in _left_traces(n))


@lru_cache(maxsize=None)
def reference_trace_form(n):
    """G_A[i][j] = tr(L_{ΔᵢΔⱼ}), from the reference products and traces."""
    tau = reference_traces(n)
    return tuple(
        tuple(
            sum(c * tau[t] for t, c in reference_product(n, i, j).items())
            for j in range(d_dim(n))
        )
        for i in range(d_dim(n))
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gram_matches_brute_force(n):
    # the block-form reference in tests/trace_form.py: G_A bordered by the
    # adjoined unity, whose trace is dim + 1 and whose products are the τ
    dim = d_dim(n)
    tau = reference_traces(n)
    want = [[dim + 1] + tau]
    want += [[tau[i]] + list(row) for i, row in enumerate(reference_trace_form(n))]
    got = unitalized_gram(n)
    assert got == want
    assert all(type(c) is int for row in got for c in row)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trace_form_depends_only_on_sizes(n):
    # step 2 of radical_dim: G_A(Δ_{D,C}, Δ_{B,A}) = Φ_{c,b}(|B∩C|, |D∩A|)
    phi = dalg._trace_form_classes(n)
    gram = reference_trace_form(n)
    seen = set()
    for i, (D, C) in enumerate(symbols(n)):
        for j, (B, A) in enumerate(symbols(n)):
            cb = C.size, B.size
            m = (B.mask & C.mask).bit_count(), (D.mask & A.mask).bit_count()
            assert gram[i][j] == phi[cb][m], (i, j)
            seen.add((cb, m))
    assert seen == {(cb, m) for cb, row in phi.items() for m in row}


# the coefficient rows are cached per size class, and the center systems
# built from them per (n, field); taken at import, before any test patches
ROW_CACHES = (rook._coeff_row, dalg._invariant_center, dalg._center_span)


def clear_row_caches():
    for f in ROW_CACHES:
        f.cache_clear()


@pytest.fixture
def fresh_rows():
    # a test that patches what the rows are built from must not leave its
    # rows, or the systems built from them, behind
    clear_row_caches()
    yield
    clear_row_caches()


def test_associativity_check_catches_corrupted_row(monkeypatch, fresh_rows):
    real = dalg._coeff_row

    def corrupted(n, c, b, m):
        row = real(n, c, b, m)
        if (n, c, b, m) == (4, 2, 2, 1):
            return row[:1] + (row[1] + 1,) + row[2:]
        return row

    monkeypatch.setattr(dalg, "_coeff_row", corrupted)
    rep = associativity_check(4, trials=2000, seed=0)
    assert not rep.passed
    assert rep.checks[0].witness.startswith("indices (")
    # the first failing triple of the seed-0 sample, as the expanded
    # products find it
    assert rep.checks[0].witness == "indices (33, 65, 62)"


def test_quotient_map_check_catches_wrong_omega(monkeypatch, fresh_rows):
    # the Δ-algebra and the product rules read one coefficient row: ω
    # doubled when |B| = 1 breaks the quotient map and the rules alike
    real = rook._coeff_row
    assert dalg._coeff_row is real

    def corrupted(n, c, b, m, top=None):
        return tuple(2 * x for x in real(n, c, b, m, top)) if b == 1 else real(n, c, b, m, top)

    monkeypatch.setattr(dalg, "_coeff_row", corrupted)
    rep = quotient_map_check(3)
    assert not rep.passed
    assert rep.checks[0].witness.startswith("indices (")
    monkeypatch.setattr(rook, "_coeff_row", corrupted)
    fuzz = product_rule_fuzz(3)
    assert [c.name for c in fuzz.checks if c.status == "fail"] == ["rule_a", "rule_b", "rule_c"]


def test_no_per_pair_memo():
    # the product is stored only as blocks per (D, A) and rows per size
    # class: 4^5 = 1,024 blocks at n = 5, nothing per pair of symbols
    caches = [f for f in vars(dalg).values() if hasattr(f, "cache_info")]
    for f in caches:
        f.cache_clear()
    assert radical_dim(5) == 84
    assert associativity_check(5, trials=10000, seed=1).passed
    assert not hasattr(dalg, "_pair_product")
    assert dalg._blocks.cache_info().currsize <= 1024
    for f in caches:
        assert f.cache_info().currsize <= 1024, f.__name__


# ---------------------------------------------------------------------------
# associativity rows against the expanded products


@lru_cache(maxsize=None)
def random_row(n, c, b, m):
    # a seeded integer row table, zeros included, in place of `_coeff_row`
    rng = random.Random(f"{n}:{c}:{b}:{m}")
    return tuple(rng.randint(-3, 3) for _ in range(min(b, c) + 1))


def triple_class(n, i, j, k):
    (_, cmask), (bmask, amask), (fmask, _) = (dalg._basis_data(n)[0][x] for x in (i, j, k))
    return (
        cmask.bit_count(),
        bmask.bit_count(),
        fmask.bit_count(),
        (bmask & cmask).bit_count(),
        (amask & fmask).bit_count(),
    )


def expanded_rows(n, i, k, rows):
    """A row per size laid on the block (D, E) of Δᵢ = Δ_{D,C}, Δₖ = Δ_{F,E}."""
    pairs, _ = dalg._basis_data(n)
    blocks = dalg._blocks(n, pairs[i][0], pairs[k][1])
    assert len(rows) == len(blocks)
    return {t: r for r, block in zip(rows, blocks) if r for t in block}


def sample_triples(n):
    dim = d_dim(n)
    if n <= 3:
        return [(i, j, k) for i in range(dim) for j in range(dim) for k in range(dim)]
    rng = random.Random(n)
    return [tuple(rng.randrange(dim) for _ in range(3)) for _ in range({4: 1500, 5: 300}[n])]


@pytest.mark.parametrize("table", ["real", "random"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_triple_rows_match_expansion(n, table, monkeypatch, fresh_rows):
    if table == "random":
        monkeypatch.setattr(dalg, "_coeff_row", random_row)
    mul = dalg._mul_coeffs
    for i, j, k in sample_triples(n):
        left, right = dalg._triple_rows(n, *triple_class(n, i, j, k))
        x, y, z = {i: 1}, {j: 1}, {k: 1}
        assert expanded_rows(n, i, k, left) == mul(n, mul(n, x, y), z), (i, j, k)
        assert expanded_rows(n, i, k, right) == mul(n, x, mul(n, y, z)), (i, j, k)


@pytest.mark.parametrize("target", [(3, 1, 1, 0), (3, 1, 2, 1), (3, 2, 1, 1), (3, 2, 2, 1)])
def test_associativity_witness_is_first_expanded_failure(target, monkeypatch, fresh_rows):
    # one entry off in one row: only some classes fail, and the check must
    # name the same first triple as the term-by-term comparison
    real = dalg._coeff_row

    def corrupted(n, c, b, m):
        row = real(n, c, b, m)
        return row[:-1] + (row[-1] + 1,) if (n, c, b, m) == target else row

    monkeypatch.setattr(dalg, "_coeff_row", corrupted)
    mul = dalg._mul_coeffs
    want = None
    for i, j, k in sample_triples(3):
        x, y, z = {i: 1}, {j: 1}, {k: 1}
        if mul(3, mul(3, x, y), z) != mul(3, x, mul(3, y, z)):
            want = f"indices ({i}, {j}, {k})"
            break
    assert want is not None
    rep = associativity_check(3)
    assert [c.witness for c in rep.checks] == [want]


# ---------------------------------------------------------------------------
# associativity


def test_associativity_exhaustive_small():
    for n in (1, 2, 3):
        rep = associativity_check(n)
        assert rep.passed
        assert rep.context["mode"] == "exhaustive"
        assert rep.data["triples"] == d_dim(n) ** 3


def test_associativity_sampled_n4():
    rep = associativity_check(4, trials=2000, seed=7)
    assert rep.passed
    assert rep.context["mode"] == "sampled"
    assert rep.data["triples"] == 2000


def test_associativity_bad_mode():
    with pytest.raises(ValueError):
        associativity_check(2, mode="fuzzy")


@pytest.mark.parametrize("check", [associativity_check, quotient_map_check])
@pytest.mark.parametrize("trials", [0, -3])
def test_non_positive_trials_rejected(check, trials):
    # a check that would run no cases must not report a pass
    with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
        check(5, trials=trials)


def test_cap_enforced():
    with pytest.raises(ValueError):
        associativity_check(6)
    with pytest.raises(ValueError):
        center_dim(6)


# ---------------------------------------------------------------------------
# unity


def test_unity_n1_is_top_symbol():
    assert unity_find(1) == basis(1, [1], [1]) == reference_unity(1)


def test_unity_n2_closed_form():
    v = {(i, j): basis(2, [i], [j]) for i in (1, 2) for j in (1, 2)}
    w = basis(2, [1, 2], [1, 2])
    expected = Fraction(1, 4) * (
        v[(1, 1)] + v[(2, 2)] - v[(1, 2)] - v[(2, 1)]
    ) + Fraction(1, 2) * w
    assert unity_find(2) == expected == reference_unity(2)


def test_unity_n3_closed_form():
    assert unity_find(3) == reference_unity(3)


def test_unity_is_two_sided_identity():
    e = unity_find(3)
    for idx in (0, 5, 11, 19):
        x = DElement(3, QQ, {idx: QQ.one})
        assert d_mul(e, x) == x
        assert d_mul(x, e) == x
    assert d_mul(e, e) == e


def spy_products(monkeypatch):
    """Record, in order, the orbit representative r of each product z·Δ_r
    that `unity_find` builds its equations from, and a None for each
    product that `d_mul` makes."""
    events = []
    real_mul, real_d_mul = dalg._mul_coeffs, dalg.d_mul

    def mul_coeffs(n, x, y):
        if None not in events:  # the products inside d_mul come after
            events.extend(y)  # y = {r: 1}
        return real_mul(n, x, y)

    def d_mul_spy(x, y):
        events.append(None)
        return real_d_mul(x, y)

    monkeypatch.setattr(dalg, "_mul_coeffs", mul_coeffs)
    monkeypatch.setattr(dalg, "d_mul", d_mul_spy)
    return events


def representatives(n):
    return [o[0] for o in dalg._orbits(n)]


def test_unity_candidate_is_checked_against_every_equation(monkeypatch):
    # a wrong candidate found at full rank is rejected by the products.
    # With the center replaced by span{Δ_{∅,∅}} (central, but without the
    # unity), the first equation, Δ_{∅,∅}·Δ_{[3],[3]} = 3!·Δ_{∅,∅} read at
    # the target Δ_{∅,∅}, is 6·c = 0: it fixes the candidate e = 0 at full
    # rank before the inconsistent one at the target Δ_{[3],[3]}, 0 = 1, is
    # read, and only multiplying e against a representative rejects it
    top = representatives(3)[-1]
    assert top == d_dim(3) - 1
    monkeypatch.setattr(dalg, "_invariant_center", lambda n, field: ({0: 1},))
    events = spy_products(monkeypatch)
    assert unity_find(3) is None
    assert events == [top, None]


def test_unity_candidate_is_checked_against_every_generator_equation(monkeypatch):
    # the equations of the top symbol alone determine the candidate at n = 3,
    # so the elimination stops after reading one orbit of six; the
    # candidate is still multiplied against every orbit's representative,
    # e·Δ_r and Δ_r·e
    reps = representatives(3)
    assert len(reps) == 6 and center_dim(3) == 4
    events = spy_products(monkeypatch)
    assert unity_find(3) == reference_unity(3)
    # one product z·Δ_r per center basis vector z, all with the top symbol
    assert events == [reps[-1]] * 4 + [None] * (2 * len(reps))


@pytest.mark.parametrize("n, p", [(2, 2), (3, 2), (4, 3)])
def test_unity_stops_at_a_right_hand_side_pivot(n, p, monkeypatch):
    # no unity exists here, and the equations of the top symbol already
    # pivot in the right-hand-side column: no candidate, no products
    top = representatives(n)[-1]
    k = len(dalg._invariant_center(n, GF(p)))
    events = spy_products(monkeypatch)
    assert unity_find(n, GF(p)) is None
    assert events == [top] * k


@pytest.mark.parametrize(
    "n, field",
    [(n, f) for n in range(1, 5) for f in (QQ, GF(2), GF(3), GF(5), GF(7))]
    + [(5, QQ), (5, GF(5))],
    ids=str,
)
def test_unity_matches_two_sided_system(n, field):
    # the unity solved in the center against the two-sided system in every
    # symbol, e·g = g = g·e for each generator g
    assert unity_find(n, field) == two_sided_unity(n, field)


def test_no_unity_over_f2_at_n2():
    assert unity_find(2, GF(2)) is None


def test_unity_over_f5_at_n3_reduces_rational_formula():
    assert unity_find(3, GF(5)) == reference_unity(3, GF(5))


def test_reference_unity_unknown_n():
    with pytest.raises(ValueError):
        reference_unity(4)


# ---------------------------------------------------------------------------
# the diagonal S_n-invariants


def inverse_perm(w):
    return tuple(sorted(range(1, len(w) + 1), key=lambda i: w[i - 1]))


def permuted(n, x, left=None, right=None):
    """σ·x·τ for σ = left and τ = right, each a tuple of the images of
    1..n (None for the identity): Δ_{B,A} ↦ Δ_{σB,τ⁻¹A}."""
    def image(S, w):
        return Subset(n, [w[i - 1] for i in S]) if w else S

    inverse = right and inverse_perm(right)
    return DElement(
        n, x.field, {basis_index(n, image(B, left), image(A, inverse)): c for B, A, c in x.items()}
    )


def conjugated(n, x, sigma):
    """σ·x·σ⁻¹, the diagonal action Δ_{B,A} ↦ Δ_{σB,σA}."""
    return permuted(n, x, left=sigma, right=inverse_perm(sigma))


def random_element(n, field, rng, terms=6):
    return DElement(n, field, {rng.randrange(d_dim(n)): rng.randint(-3, 3) for _ in range(terms)})


def random_perm(n, rng):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_permutations_act_as_a_balanced_bimodule(n, field):
    # the identities the invariance argument of the dalg docstring rests on
    rng = random.Random(f"{n}:{field}")
    for _ in range(8):
        x, y = random_element(n, field, rng), random_element(n, field, rng)
        sigma, tau = random_perm(n, rng), random_perm(n, rng)
        assert permuted(n, x, left=sigma) * y == permuted(n, x * y, left=sigma)
        assert x * permuted(n, y, right=tau) == permuted(n, x * y, right=tau)
        assert permuted(n, x, right=tau) * y == x * permuted(n, y, left=tau)
        assert conjugated(n, x * y, sigma) == conjugated(n, x, sigma) * conjugated(n, y, sigma)
        assert conjugated(n, x, sigma) == DElement(n, field, {
            basis_index(n, *(Subset(n, [sigma[i - 1] for i in S]) for S in (B, A))): c
            for B, A, c in x.items()
        })


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5), GF(7)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_invariant_center_commutes_with_every_symbol(n, field):
    # `_invariant_center` commutes with one symbol per orbit only; its
    # vectors are invariant, so they commute with every symbol, over every
    # field, with or without a unity
    rng = random.Random(n)
    symbols = [DElement(n, field, {i: 1}) for i in range(d_dim(n))]
    for z in dalg._invariant_center(n, field):
        z = DElement(n, field, z)
        assert conjugated(n, z, random_perm(n, rng)) == z
        for x in symbols:
            assert z * x == x * z


# (n, p) up to n = 5 where the Δ-algebra has no unity over F_p
NO_UNITY = {(2, 2), (3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (5, 3), (5, 5)}


def center_paths(n, field):
    """(a unity exists, dim of the invariant center, dim of the center from
    the commutator system of every symbol)."""
    full = d_dim(n) - dalg._center_span(n, field).rank()
    return unity_find(n, field) is not None, len(dalg._invariant_center(n, field)), full


def check_center_paths(n, field):
    # where a unity exists the invariant center is the whole center; where
    # none does it is a subspace, a proper one from n = 3 on, so center_dim
    # has to run over every symbol there
    unity, invariant, full = center_paths(n, field)
    assert unity == ((n, field.characteristic) not in NO_UNITY)
    assert center_dim(n, field) == full
    if unity:
        assert invariant == full
    else:  # both are 3 at n = 2 over F_2
        assert invariant < full if n >= 3 else invariant == full
    return invariant, full


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5), GF(7)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_invariant_systems_match_full_systems(n, field):
    invariant, full = check_center_paths(n, field)
    if (n, field) == (5, GF(5)):
        assert (invariant, full) == (6, 21)


def test_corrupted_row_breaks_the_agreement_or_the_unity_check(monkeypatch, fresh_rows):
    # each size class at n = 3 corrupted in turn, its last entry raised by
    # one.  A row table that depends only on sizes keeps the diagonal action
    # an automorphism, so where a unity survives the two centers still
    # agree; only the class that Δ_{∅,∅}·Δ_{∅,∅} alone reads leaves the
    # unity and the center as they were
    real = dalg._coeff_row
    target = None

    def corrupted(n, c, b, m):
        row = real(n, c, b, m)
        return row[:-1] + (row[-1] + 1,) if (c, b, m) == target else row

    monkeypatch.setattr(dalg, "_coeff_row", corrupted)
    unseen = []
    for target in [
        (c, b, m) for c in range(4) for b in range(4) for m in range(max(0, b + c - 3), min(b, c) + 1)
    ]:
        clear_row_caches()
        unity, invariant, full = center_paths(3, QQ)
        assert not unity or invariant == full, target
        if (unity_find(3), full) == (reference_unity(3), 4):
            unseen.append(target)
    assert unseen == [(0, 0, 0)]
    # with |C| = |B| = 2 and |B∩C| = 1 the top symbol's equations still fix
    # a candidate, only the multiplication check rejects it, and the
    # agreement above fails over Q
    target = (2, 2, 1)
    clear_row_caches()
    with pytest.raises(AssertionError):
        check_center_paths(3, QQ)
    events = spy_products(monkeypatch)
    assert unity_find(3) is None
    assert events.count(None) == 1, events


# ---------------------------------------------------------------------------
# center and radical


def test_center_dims_small():
    assert center_dim(2) == 3
    assert center_dim(3) == 4


def reference_center_dim(n, field):
    """The center as the common kernel of x ↦ xΔᵢ − Δᵢx over the basis
    symbols, built from DElement products and solved by the test-local
    Gauss–Jordan nullspace."""
    gens = [DElement(n, field, {i: field.one}) for i in range(d_dim(n))]
    rows = []
    for g in gens:
        images = [d_mul(x, g) - d_mul(g, x) for x in gens]
        rows += [[img.coeff(t) for img in images] for t in range(d_dim(n))]
    return len(gj.nullspace(field, rows, d_dim(n)))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_center_dim_matches_commutator_kernel(n, field):
    assert center_dim(n, field) == reference_center_dim(n, field)


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["Q", "F2"])
def test_empty_symbol_is_central(field):
    # why center_dim never meets a full-rank commutator system
    for n in (1, 2, 3, 4):
        u = DElement.basis(n, Subset(n), Subset(n), field)
        for b, a in basis_pairs(n):
            x = DElement.basis(n, b, a, field)
            w = factorial(b.size) * factorial(n - b.size)
            assert d_mul(u, x) == d_mul(x, u) == w * u


@pytest.mark.parametrize("p, want", [(2, 62), (3, 29), (5, 5)])
def test_center_dim_n4_over_prime_fields(p, want):
    # values recorded with the DElement/nullspace implementation
    assert center_dim(4, GF(p)) == want


def test_radical_dims_small():
    assert [radical_dim(n, cap=6) for n in range(1, 7)] == [0, 3, 5, 39, 84, 530]


def test_radical_dim_matches_nullspace_basis():
    # step 1 of radical_dim: the nullity of G_A, and of the Gram matrix on
    # the unitalization, by an independent Gauss–Jordan nullspace; the
    # latter's vectors all vanish on the adjoined unity
    for n in (1, 2, 3, 4):
        gram = unitalized_gram(n)
        want = gj.nullspace(QQ, gram, len(gram))
        assert all(v[0] == 0 for v in want)
        form = reference_trace_form(n)
        assert radical_dim(n) == len(want) == len(gj.nullspace(QQ, form, len(form)))


def subsets_shift(n, v, up):
    """U (up) or ∂ on {mask: int}: each set goes to the sum of its
    one-larger supersets, or of its one-smaller subsets."""
    out = {}
    for x, c in v.items():
        for i in range(n):
            if (x >> i & 1) != up:
                out[x ^ 1 << i] = out.get(x ^ 1 << i, 0) + c
    return {x: c for x, c in out.items() if c}


def two_row_vector(j):
    """h_j = (e₁−e₂)(e₃−e₄)⋯(e_{2j−1}−e_{2j}) as {mask of a j-set: ±1}."""
    h = {0: 1}
    for i in range(j):
        h = {**{x | 1 << 2 * i: c for x, c in h.items()},
             **{x | 1 << 2 * i + 1: -c for x, c in h.items()}}
    return h


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_theta_is_the_johnson_eigenvalue(n):
    # steps 3 and 4 of radical_dim on whole integer vectors: for h_j in
    # ker ∂ and every c, b in [j, n−j] and m in range,
    # (c−j)!·J^m_{cb}·U^{b−j}h_j = (b−j)!·θ'_j(m;c,b)·U^{c−j}h_j
    for j in range(n // 2 + 1):
        ups = [two_row_vector(j)]
        assert not subsets_shift(n, ups[0], up=False)
        while len(ups) <= n - 2 * j:
            ups.append(subsets_shift(n, ups[-1], up=True))
        for c in range(j, n - j + 1):
            assert ups[c - j]
            rows = [x for x in range(1 << n) if x.bit_count() == c]
            for b in range(j, n - j + 1):
                for m in range(max(0, b + c - n), min(b, c) + 1):
                    got = {}
                    for x in rows:
                        y = sum(v for z, v in ups[b - j].items() if (x & z).bit_count() == m)
                        if y:
                            got[x] = factorial(c - j) * y
                    theta = dalg._theta(n, j, m, c, b)
                    want = {x: factorial(b - j) * theta * v for x, v in ups[c - j].items()}
                    assert got == (want if theta else {}), (j, c, b, m)


def test_two_row_blocks_count_every_symbol():
    # step 3 splits the C(2n,n) symbols into f_{j₁}·f_{j₂} copies of each
    # M_{j₁j₂}, of side n+1−2·max(j₁,j₂); f_j = C(n,j) − C(n,j−1) is the
    # hook-length dimension of S^{(n−j,j)}
    for n in range(1, 9):
        f = [f_lambda(Partition([n - j, j] if j else [n])) for j in range(n // 2 + 1)]
        assert f == [comb(n, j) - (comb(n, j - 1) if j else 0) for j in range(n // 2 + 1)]
        total = sum(
            f[j1] * f[j2] * (n + 1 - 2 * max(j1, j2))
            for j1 in range(len(f))
            for j2 in range(len(f))
        )
        assert total == d_dim(n)


def test_radical_dim_reads_the_eigenvalues(monkeypatch):
    # one θ' value off by one changes a block rank, so the radical moves
    real = dalg._theta

    def corrupted(n, j, m, c, b):
        return real(n, j, m, c, b) + ((n, j, m, c, b) == (4, 1, 1, 2, 2))

    monkeypatch.setattr(dalg, "_theta", corrupted)
    assert radical_dim(4) != 39


def test_radical_rejects_prime_fields():
    with pytest.raises(ValueError):
        radical_dim(2, GF(2))


def radical_n2():
    """v12 - v21, v11 - v22 and 2u - (v11+v12+v21+v22) at n = 2, and the
    span of the three."""
    u = basis(2, [], [])
    v = {(i, j): basis(2, [i], [j]) for i in (1, 2) for j in (1, 2)}
    x2 = v[(1, 2)] - v[(2, 1)]
    x3 = v[(1, 1)] - v[(2, 2)]
    z = 2 * u - v[(1, 1)] - v[(1, 2)] - v[(2, 1)] - v[(2, 2)]
    span = SpanBasis(QQ, d_dim(2))
    for x in (x2, x3, z):
        span.insert(x._terms)
    return [x2, x3, z], span


def test_radical_n2_explicit_description():
    # The radical is spanned by v12 - v21, v11 - v22 and 2u - (v11+v12+v21+v22):
    # the first two square to the third (up to sign) and the third squares to
    # zero.  They are independent, and as many as the radical's dimension.
    (x2, x3, z), span = radical_n2()
    assert d_mul(x2, x2) == z
    assert d_mul(x3, x3) == -1 * z
    assert d_mul(z, z).is_zero()
    assert span.rank() == radical_dim(2) == 3


def test_radical_n2_is_a_nilpotent_ideal():
    # so it lies in the radical, which it fills by the dimension count above
    computed, span = radical_n2()
    generators = [DElement(2, QQ, {i: QQ.one}) for i in range(d_dim(2))]
    for x in computed:
        for g in generators:
            assert span.contains(d_mul(x, g)._terms)
            assert span.contains(d_mul(g, x)._terms)
    squares = [d_mul(x, y) for x in computed for y in computed]
    for p in squares:
        assert span.contains(p._terms)
        for x in computed:
            assert d_mul(p, x).is_zero()


def test_u_minus_offdiagonals_is_not_in_the_radical():
    # A tempting combination that is *not* radical: u - v12 - v21 squares to
    # v11 + v22 - v12 - v21, which satisfies y*y = 4y, so no power of
    # u - v12 - v21 vanishes.
    u = basis(2, [], [])
    v = {(i, j): basis(2, [i], [j]) for i in (1, 2) for j in (1, 2)}
    x1 = u - v[(1, 2)] - v[(2, 1)]
    y = d_mul(x1, x1)
    assert y == v[(1, 1)] + v[(2, 2)] - v[(1, 2)] - v[(2, 1)]
    assert d_mul(y, y) == 4 * y
    _, span = radical_n2()
    assert not span.contains(x1._terms)


# ---------------------------------------------------------------------------
# homomorphism onto rook sums


def test_to_group_algebra_sends_symbols_to_rook_sums():
    for n in (2, 3):
        for b, a in basis_pairs(n):
            x = DElement.basis(n, b, a)
            assert to_group_algebra(x) == nabla(b, a)


@pytest.mark.parametrize("field", (QQ, GF(5)), ids=("Q", "F5"))
def test_to_group_algebra_matches_reference_sums(field):
    # the one integer accumulator against adding the scaled rook sums one
    # by one: int and fractional coefficients, and combinations that cancel
    rng = random.Random(1618)
    for n in range(1, 5):
        pairs = basis_pairs(n)
        # the sum over B of nabla(B, {a}) is the group sum for every a, so
        # the symbols D(B|{1}) minus the symbols D(B|{n}) map to zero
        ends = {(1,): 1, (n,): -1} if n > 1 else {}
        cancel = {i: ends[a.members] for i, (b, a) in enumerate(pairs) if a.members in ends}
        picks = [rng.randrange(len(pairs)) for _ in range(6)]
        draws = [
            {i: rng.randint(-9, 9) for i in picks},
            {i: Fraction(rng.randint(-9, 9), rng.choice((2, 3, 4, 6))) for i in picks},
            cancel,
            {i: Fraction(c, 6) for i, c in cancel.items()} | {0: Fraction(3, 4)},
        ]
        for coeffs in draws:
            x = DElement(n, field, coeffs)
            want = AlgebraElement.zero(n, field)
            for b, a, c in x.items():
                want = want + c * nabla(b, a, field)
            assert to_group_algebra(x) == want, (n, coeffs)
        assert to_group_algebra(DElement(n, field, cancel)).is_zero()


def test_quotient_map_exhaustive_small():
    for n in (2, 3):
        rep = quotient_map_check(n)
        assert rep.passed
        assert rep.data["pairs"] == d_dim(n) ** 2


def test_quotient_map_sampled_n4():
    rep = quotient_map_check(4, trials=60, seed=3)
    assert rep.passed
    assert rep.data["pairs"] == 60


@pytest.mark.parametrize("field", (QQ, GF(5)), ids=("Q", "F5"))
def test_quotient_map_multiplicative_on_random_elements(field):
    rng = random.Random(2718)
    for n in (2, 3, 4):
        dim = d_dim(n)

        def random_element():
            size = rng.randint(1, 6)
            return DElement(n, field, {
                rng.randrange(dim): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                for _ in range(size)
            })

        for _ in range(8):
            x, y = random_element(), random_element()
            assert to_group_algebra(d_mul(x, y)) == algebra_mul(
                to_group_algebra(x), to_group_algebra(y)
            ), (n, x, y)


def test_quotient_map_image_rank_is_catalan():
    for n in (2, 3, 4):
        span = SpanBasis(QQ, factorial(n))
        for b, a in basis_pairs(n):
            span.insert(nabla(b, a)._terms)
        assert span.rank() == len(enumerate_av(n, 3))


# ---------------------------------------------------------------------------
# stats rows


def test_stats_row_n2():
    row = stats(2)
    assert row == {
        "n": 2,
        "dim": 6,
        "center_dim": 3,
        "radical_dim": 3,
        "unity": str(reference_unity(2)),
    }


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["Q", "Fp2"])
def test_stats_solves_the_unity_once(monkeypatch, field):
    # the row's center reads the unity the row already has
    calls = []
    real = dalg.unity_find
    monkeypatch.setattr(dalg, "unity_find", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    row = stats(4, field)
    assert len(calls) == 1
    assert row["center_dim"] == center_dim(4, field)


def test_stats_row_f2_omits_radical():
    row = stats(2, GF(2))
    assert row["radical_dim"] is None
    assert row["unity"] is None


def test_reference_stats_shape():
    rows = reference_stats()
    assert [r["n"] for r in rows] == [2, 3, 4, 5]
    assert [r["dim"] for r in rows] == [6, 20, 70, 252]
    assert [r["center_dim"] for r in rows] == [3, 4, 5, 6]
    assert [r["radical_dim"] for r in rows] == [3, 5, 39, 84]
