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
    _unitalized_gram,
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
from snalg.rook import Subset, delta, nabla, omega, product_rule_fuzz

import gauss_jordan as gj


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gram_matches_brute_force(n):
    dim = d_dim(n)
    tau = reference_traces(n)
    want = [[dim + 1] + tau]
    for i in range(dim):
        row = [tau[i]]
        for j in range(dim):
            row.append(sum(c * tau[t] for t, c in reference_product(n, i, j).items()))
        want.append(row)
    got = _unitalized_gram(n)
    assert got == want
    assert all(type(c) is int for row in got for c in row)


@pytest.fixture
def fresh_rows():
    # the coefficient rows are cached per size class; a test that patches
    # what they are built from must not leave its rows behind
    rows = rook._coeff_row
    rows.cache_clear()
    yield
    rows.cache_clear()


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


def test_unity_candidate_is_checked_against_every_equation(monkeypatch):
    # e_0 = 1 and e_1 = 0 determine a candidate before the last equation,
    # e_0 + e_1 = 0, is reached; only the final check can reject it
    import snalg.dalg

    def equations(n, gens):
        yield {0: 1}, 1
        yield {1: 1}, 0
        yield {0: 1, 1: 1}, 0

    monkeypatch.setattr(snalg.dalg, "_unity_equations", equations)
    assert unity_find(1) is None


def test_unity_candidate_is_checked_against_every_generator_equation(monkeypatch):
    # the candidate is checked by multiplying, e·g = g = g·e for every
    # generator g.  On the generating set at n = 3, the equations with
    # every right-hand side doubled are consistent and determine 2e, not
    # the unity e; the elimination reads them once, stops at full rank,
    # and only the products of the candidate with the generators reject it
    gens = dalg._generators(3, QQ)
    real = list(dalg._unity_equations(3, gens))
    read, products = [], []

    def doubled(n, indices):
        assert (n, indices) == (3, gens)
        read.append(0)
        for cols, rhs in real:
            read[-1] += 1
            yield cols, 2 * rhs

    def spy(x, y):
        products.append((x, y))
        return d_mul(x, y)

    monkeypatch.setattr(dalg, "_unity_equations", doubled)
    monkeypatch.setattr(dalg, "d_mul", spy)
    e = reference_unity(3)
    assert unity_find(3) is None
    assert len(read) == 1 and read[0] < len(real)
    assert products[0][0] == 2 * e
    monkeypatch.setattr(dalg, "_unity_equations", lambda n, indices: iter(real))
    products.clear()
    assert unity_find(3) == e
    assert len(products) == 2 * len(gens)


def test_no_unity_over_f2_at_n2():
    assert unity_find(2, GF(2)) is None


def test_unity_over_f5_at_n3_reduces_rational_formula():
    assert unity_find(3, GF(5)) == reference_unity(3, GF(5))


def test_reference_unity_unknown_n():
    with pytest.raises(ValueError):
        reference_unity(4)


# ---------------------------------------------------------------------------
# the generating set


def block_generators(n):
    """The indices of Δ_{D,R_m} and Δ_{R_m,A}, R_m = {1..m}, over every m
    and all m-subsets D and A."""
    out = set()
    for m in range(n + 1):
        R = Subset(n, range(1, m + 1))
        for members in combinations(range(1, n + 1), m):
            X = Subset(n, members)
            out |= {basis_index(n, X, R), basis_index(n, R, X)}
    return sorted(out)


@pytest.mark.parametrize(
    "n, field",
    [(n, QQ) for n in range(1, 6)] + [(n, GF(p)) for p in (5, 7) for n in range(3, 6)],
    ids=str,
)
def test_generating_set_certified(n, field):
    gens = dalg._generators(n, field)
    assert list(gens) == block_generators(n)
    assert len(gens) == 2 ** (n + 1) - (n + 1)
    assert dalg._words_span(n, field, gens)


@pytest.mark.parametrize("n, p", [(3, 2), (4, 2), (4, 3), (5, 3)])
def test_certificate_refuses_and_falls_back(n, p):
    # the words in G span a proper subalgebra here, so both systems run
    # over every symbol
    assert not dalg._words_span(n, GF(p), tuple(block_generators(n)))
    assert dalg._generators(n, GF(p)) == tuple(range(d_dim(n)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_certificate_needs_the_top_symbol(n):
    # a product of symbols of size below n has only symbols of size below n
    top = basis_index(n, Subset(n).complement(), Subset(n).complement())
    gens = tuple(i for i in block_generators(n) if i != top)
    assert len(gens) == 2 ** (n + 1) - (n + 2)
    assert not dalg._words_span(n, QQ, gens)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5), GF(7)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generator_systems_match_full_systems(n, field, monkeypatch):
    # G against every symbol, certified or not: over F_2 and F_3 the
    # results agree even on a G that does not generate
    want = center_dim(n, field), unity_find(n, field)
    for indices in (block_generators(n), range(d_dim(n))):
        monkeypatch.setattr(dalg, "_generators", lambda n, field: tuple(indices))
        assert (center_dim(n, field), unity_find(n, field)) == want


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
    assert radical_dim(2) == 3
    assert radical_dim(3) == 5
    assert radical_dim(4) == 39


def test_radical_dim_matches_nullspace_basis():
    # the nullity of the Gram matrix by an independent Gauss–Jordan
    # nullspace, whose vectors all vanish on the adjoined unity
    for n in (2, 3, 4):
        gram = _unitalized_gram(n)
        want = gj.nullspace(QQ, gram, len(gram))
        assert all(v[0] == 0 for v in want)
        assert radical_dim(n) == len(want)


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
