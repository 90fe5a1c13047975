"""Tests for rook sums: constructions against brute-force filters, the
product rules, the annihilation identities, and the kappa minpol table."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

from snalg.exactla import GF, QQ
from snalg.groupalg import (
    AlgebraElement,
    add,
    antipode,
    element_min_poly,
    group_sum,
    mul,
    scale,
)
from snalg.perm import Permutation, all_permutations, compose, inverse
from snalg.rook import (
    Subset,
    all_subsets,
    delta,
    delta_D_alpha,
    delta_tilde,
    kappa,
    kappa_rows,
    minpol_table,
    nabla,
    nabla_D_alpha,
    nabla_alpha_D,
    nabla_tilde,
    omega,
    product_rule_a,
    product_rule_b,
    product_rule_c,
    product_rule_fuzz,
    subsets_of_size,
    triangular_annihilation,
)


def brute_filter(n, keep):
    return AlgebraElement(n, QQ, [(w, 1) for w in all_permutations(n) if keep(w)])


def image_set(w, A):
    return frozenset(w(i) for i in A.members)


def random_subset(rng, n, size=None):
    if size is None:
        size = rng.randint(0, n)
    return Subset(n, rng.sample(range(1, n + 1), size))


# -- Subset ------------------------------------------------------------------


def test_subset_basics():
    s = Subset(4, [3, 1])
    assert s.members == (1, 3)
    assert s.size == 2 and len(s) == 2
    assert 1 in s and 2 not in s and 5 not in s
    assert str(s) == "{1,3}"
    assert str(Subset(4)) == "{}"
    assert s.complement().members == (2, 4)
    t = Subset(4, [3, 4])
    assert (s | t).members == (1, 3, 4)
    assert (s & t).members == (3,)
    assert (s - t).members == (1,)
    assert s <= (s | t)
    assert not (s | t) <= s
    assert Subset.full(4).members == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        Subset(3, [4])
    with pytest.raises(ValueError):
        Subset(3, mask=0b1000)
    with pytest.raises(ValueError):
        Subset(3, [1]) | Subset(4, [1])


def test_subset_apply():
    w = Permutation([2, 4, 1, 3])
    assert Subset(4, [1, 2]).apply(w).members == (2, 4)
    with pytest.raises(ValueError):
        Subset(3, [1]).apply(w)


def test_subset_enumeration_order():
    sizes = [s.size for s in all_subsets(3)]
    assert sizes == sorted(sizes)
    assert [s.members for s in subsets_of_size(4, 2)] == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]
    assert len(list(all_subsets(5))) == 32


# -- nabla / nabla_tilde -----------------------------------------------------


def test_nabla_paper_example():
    got = nabla(Subset(4, [2, 3]), Subset(4, [1, 4]))
    want = AlgebraElement(4, QQ, [(Permutation.from_string(s), 1)
                                  for s in ("2143", "2413", "3142", "3412")])
    assert got == want


def test_nabla_tilde_support_size():
    got = nabla_tilde(Subset(4, [1, 2, 3]), Subset(4, [1, 4]))
    assert len(got) == 12
    assert all(c == 1 for _, c in got.items())


def test_nabla_against_brute_force():
    for n in (1, 2, 3, 4):
        for A in all_subsets(n):
            for B in all_subsets(n):
                want = brute_filter(n, lambda w: image_set(w, A) == frozenset(B.members))
                assert nabla(B, A) == want


def test_nabla_tilde_against_brute_force():
    for n in (1, 2, 3, 4):
        for A in all_subsets(n):
            for B in all_subsets(n):
                want = brute_filter(n, lambda w: image_set(w, A) <= frozenset(B.members))
                assert nabla_tilde(B, A) == want


def test_nabla_brute_force_sampled_n5():
    rng = random.Random(501)
    for _ in range(12):
        A = random_subset(rng, 5)
        B = random_subset(rng, 5)
        assert nabla(B, A) == brute_filter(
            5, lambda w: image_set(w, A) == frozenset(B.members)
        )
        assert nabla_tilde(B, A) == brute_filter(
            5, lambda w: image_set(w, A) <= frozenset(B.members)
        )


def test_nabla_simple_properties():
    rng = random.Random(101)
    n = 4
    for _ in range(20):
        A = random_subset(rng, n)
        B = random_subset(rng, n)
        # zero when sizes differ
        if A.size != B.size:
            assert nabla(B, A).is_zero()
        # complement symmetry
        assert nabla(B, A) == nabla(B.complement(), A.complement())
        # tilde vanishes when |A| > |B|, agrees with nabla at equal sizes
        if A.size > B.size:
            assert nabla_tilde(B, A).is_zero()
        if A.size == B.size:
            assert nabla_tilde(B, A) == nabla(B, A)
        # tilde = sum of nabla over equal-size subsets of B
        acc = AlgebraElement.zero(n, QQ)
        for um in combinations(B.members, A.size):
            acc = acc + nabla(Subset(n, um), A)
        assert nabla_tilde(B, A) == acc
        # antipode laws
        assert antipode(nabla(B, A)) == nabla(A, B)
        assert antipode(nabla_tilde(B, A)) == nabla_tilde(A.complement(), B.complement())


def test_nabla_translation_laws():
    rng = random.Random(103)
    n = 4
    for _ in range(15):
        A = random_subset(rng, n)
        B = random_subset(rng, n)
        u = Permutation.unrank(n, rng.randrange(factorial(n)))
        ue = AlgebraElement.from_perm(u)
        assert mul(ue, nabla(B, A)) == nabla(B.apply(u), A)
        assert mul(nabla(B, A), ue) == nabla(B, A.apply(inverse(u)))
        assert mul(ue, nabla_tilde(B, A)) == nabla_tilde(B.apply(u), A)
        assert mul(nabla_tilde(B, A), ue) == nabla_tilde(B, A.apply(inverse(u)))


def test_nabla_over_prime_field():
    f = GF(3)
    a = nabla(Subset(3, [1]), Subset(3, [2]), field=f)
    assert a.field == f
    assert all(c == 1 for _, c in a.items())


# -- omega / delta / delta_tilde ----------------------------------------------


def test_omega_examples():
    n = 4
    empty = Subset(n)
    assert omega(empty, empty) == factorial(n)
    assert omega(Subset.full(n), Subset.full(n)) == factorial(n)
    assert omega(Subset(n, [1, 2]), Subset(n, [2, 3])) == 1
    assert omega(Subset(3, [1]), Subset(3, [1])) == 2


def test_delta_examples():
    n = 3
    D = C = Subset(n, [1])
    assert delta(D, C, 2) == 0  # k > |D|
    for Cs in all_subsets(n):
        Ds = Subset(n, range(1, Cs.size + 1))
        assert delta(Ds, Cs, 0) == factorial(Cs.size) * factorial(n - Cs.size)
    assert delta(D, C, 1) == 2


def test_delta_tilde_examples():
    n = 4
    assert delta_tilde(Subset(n, [1, 2]), Subset(n, [3]), 1) == 0  # |D| > |B|
    empty = Subset(n)
    for k in range(3):
        assert delta_tilde(empty, empty, k) == delta(empty, empty, k)
    # agreement with delta_D_alpha for the indicator weight of subsets of B
    rng = random.Random(41)
    for _ in range(10):
        D = random_subset(rng, n)
        B = random_subset(rng, n)
        alpha = {C: 1 for C in subsets_of_size(n, D.size) if C <= B}
        for k in range(D.size + 1):
            assert delta_D_alpha(D, alpha, k) == delta_tilde(D, B, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_omega_delta_delta_tilde_exhaustive(n):
    # every pair of subsets and every k up to n + 1, against the factorial
    # and binomial formulas written out on member sets
    subsets = [frozenset(s) for r in range(n + 1) for s in combinations(range(1, n + 1), r)]

    def omega_ref(B, C):
        return (
            factorial(len(B & C))
            * factorial(len(B - C))
            * factorial(len(C - B))
            * factorial(n - len(B | C))
        )

    def delta_ref(D, C, k):
        total = 0
        for B in combinations(sorted(D), k):
            j = len(C.intersection(B))
            total += omega_ref(frozenset(B), C) * (-1) ** (k - j) * comb(k, j)
        return total

    ks = range(n + 2)
    want = {(D, C, k): delta_ref(D, C, k) for D in subsets for C in subsets for k in ks}
    unequal = beyond_c = 0
    for X in subsets:
        SX = Subset(n, X)
        for Y in subsets:
            SY = Subset(n, Y)
            assert omega(SX, SY) == omega_ref(X, Y), (X, Y)
            for k in ks:
                assert delta(SX, SY, k) == want[X, Y, k], (X, Y, k)
                tilde = sum(want[X, frozenset(C), k] for C in combinations(sorted(Y), len(X)))
                assert delta_tilde(SX, SY, k) == tilde, (X, Y, k)
                unequal += len(X) != len(Y)
                beyond_c += len(Y) < k <= len(X) and want[X, Y, k] != 0
    assert unequal and (n == 1 or beyond_c)
    if n == 3:
        assert delta(Subset(3, [1, 2]), Subset(3, [1]), 2) == -2


def test_binomial_cancellation_identity():
    for n in range(13):
        for k in range(13):
            total = sum(
                (-1) ** (r - k) * comb(n, r) * comb(r, k) for r in range(n + 1)
            )
            assert total == (1 if n == k else 0)


# -- product rules -------------------------------------------------------------


def check_product_rules(n, D, C, B, A):
    lhs = mul(nabla(D, C), nabla(B, A))
    pa = product_rule_a(D, C, B, A)
    pb = product_rule_b(D, C, B, A)
    pc = product_rule_c(D, C, B, A)
    assert lhs == pa == pb == pc


def test_product_rules_empty_sets():
    n = 3
    e = Subset(n)
    want = scale(factorial(n), group_sum(n))
    assert product_rule_a(e, e, e, e) == want
    assert mul(nabla(e, e), nabla(e, e)) == want


def test_product_rules_singletons():
    n = 4
    check_product_rules(
        n, Subset(n, [1]), Subset(n, [1]), Subset(n, [2]), Subset(n, [2])
    )


def test_product_rules_exhaustive_n3():
    n = 3
    subsets = list(all_subsets(n))
    for A in subsets:
        for B in subsets:
            if A.size != B.size:
                continue
            for C in subsets:
                for D in subsets:
                    if C.size != D.size:
                        continue
                    check_product_rules(n, D, C, B, A)


def test_product_rules_sampled_n4():
    rng = random.Random(707)
    n = 4
    for _ in range(25):
        sa = rng.randint(0, n)
        sc = rng.randint(0, n)
        A = random_subset(rng, n, sa)
        B = random_subset(rng, n, sa)
        C = random_subset(rng, n, sc)
        D = random_subset(rng, n, sc)
        check_product_rules(n, D, C, B, A)


def test_product_rule_a_against_defining_filter():
    """Rule (a) is omega(B, C) times the sum of all w with
    |w(A) ∩ D| = |B ∩ C|; the filter over S_n is the reference."""
    for n in (1, 2, 3, 4):
        same_size = [
            (X, Y)
            for k in range(n + 1)
            for X in subsets_of_size(n, k)
            for Y in subsets_of_size(n, k)
        ]
        reference = {}
        for D, C in same_size:
            for B, A in same_size:
                target = len(set(B.members) & set(C.members))
                key = (D, A, target)
                if key not in reference:
                    reference[key] = brute_filter(
                        n, lambda w: len(image_set(w, A) & set(D.members)) == target
                    )
                want = scale(omega(B, C), reference[key])
                assert product_rule_a(D, C, B, A) == want


def test_product_rules_size_errors():
    n = 3
    with pytest.raises(ValueError):
        product_rule_a(Subset(n), Subset(n), Subset(n, [1]), Subset(n, [1, 2]))
    with pytest.raises(ValueError):
        product_rule_b(Subset(n, [1]), Subset(n), Subset(n), Subset(n))
    big = Subset(9, [1])
    with pytest.raises(ValueError, match="capped"):
        product_rule_b(big, big, big, big)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
def test_product_rule_fuzz_at_six(field):
    # at n = 6 the direct product nabla(D, C) * nabla(B, A) runs coset by coset
    rep = product_rule_fuzz(6, trials=40, seed=5, field=field)
    assert rep.passed and rep.data["cases"] == 40


@pytest.mark.parametrize("n, trials", [(5, 0), (5, -2), (3, 0)])
def test_product_rule_fuzz_refuses_no_trials(n, trials):
    # a sampled check that ran zero cases must not report a pass
    with pytest.raises(ValueError, match="trials"):
        product_rule_fuzz(n, trials=trials)


def test_pair_count_lemma():
    # the number of factorizations w = uv with u(C) = D and v(A) = B is
    # omega(B, C) when |w(A) ∩ D| = |B ∩ C| and 0 otherwise
    rng = random.Random(61)
    cases = []
    for n in (2, 3):
        subsets = list(all_subsets(n))
        for A in subsets:
            for B in subsets:
                if A.size != B.size:
                    continue
                for C in subsets:
                    for D in subsets:
                        if C.size == D.size:
                            cases.append((n, D, C, B, A))
    for _ in range(10):
        n = 4
        sa, sc = rng.randint(0, n), rng.randint(0, n)
        cases.append(
            (n, random_subset(rng, n, sc), random_subset(rng, n, sc),
             random_subset(rng, n, sa), random_subset(rng, n, sa))
        )
    for n, D, C, B, A in cases:
        us = nabla(D, C).support()
        vset = {v.rank() for v in nabla(B, A).support()}
        target = (B.mask & C.mask).bit_count()
        w_coeff = omega(B, C)
        for w in all_permutations(n):
            count = sum(
                1 for u in us if compose(inverse(u), w).rank() in vset
            )
            wa = image_set(w, A)
            expected = w_coeff if len(wa & frozenset(D.members)) == target else 0
            assert count == expected


# -- triangular annihilation ----------------------------------------------------


def random_alpha(rng, n, size, field=QQ):
    alpha = {}
    for C in subsets_of_size(n, size):
        if rng.random() < 0.6:
            if field is QQ:
                alpha[C] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            else:
                alpha[C] = rng.randrange(field.p)
    return alpha


def test_triangular_annihilation_zero_alpha():
    D = Subset(3, [1, 2])
    assert triangular_annihilation(D, {}).is_zero()


def test_triangular_annihilation_random_alpha():
    rng = random.Random(4242)
    for n in (2, 3, 4):
        for D in all_subsets(n):
            for _ in range(3):
                alpha = random_alpha(rng, n, D.size)
                assert triangular_annihilation(D, alpha).is_zero()
                assert triangular_annihilation(D, alpha, mirrored=True).is_zero()


def test_triangular_annihilation_prime_field():
    f = GF(5)
    rng = random.Random(11)
    D = Subset(3, [2, 3])
    alpha = random_alpha(rng, 3, 2, field=f)
    assert triangular_annihilation(D, alpha, field=f).is_zero()


def test_triangular_annihilation_alpha_key_errors():
    D = Subset(3, [1, 2])
    with pytest.raises(ValueError):
        nabla_D_alpha(D, {Subset(3, [1]): 1})
    with pytest.raises(ValueError):
        nabla_alpha_D(D, {Subset(4, [1, 2]): 1})


def test_indicator_alpha_reproduces_tilde_annihilation():
    # alpha = indicator of |D|-subsets of B turns nabla_D_alpha into
    # nabla_tilde(B, D) mirrored, and the theorem into the corollary
    rng = random.Random(99)
    n = 4
    for _ in range(10):
        D = random_subset(rng, n)
        B = random_subset(rng, n)
        alpha = {C: 1 for C in subsets_of_size(n, D.size) if C <= B}
        assert nabla_alpha_D(D, alpha) == nabla_tilde(B, D)
        got = triangular_annihilation(D, alpha, mirrored=True)
        assert got.is_zero()
        # assemble the corollary product directly from delta_tilde
        N = nabla_tilde(B, D)
        one = AlgebraElement.one(n, QQ)
        acc = N
        for k in range(D.size + 1):
            acc = mul(N - scale(delta_tilde(D, B, k), one), acc)
        assert acc.is_zero()


def reference_combination(n, field, terms):
    """The sum of c * nabla(B, A) over ((B, A), c), one add and scale at a
    time."""
    acc = AlgebraElement.zero(n, field)
    for (B, A), c in terms:
        acc = add(acc, scale(c, nabla(B, A, field)))
    return acc


@pytest.mark.parametrize("kind", ("int", "fraction", "zero", "fp-fraction"))
def test_nabla_alpha_combinations_match_reference_sums(kind):
    # one integer accumulator over the common denominator must give the
    # same element as adding the scaled rook sums one by one
    rng = random.Random(kind)
    field = GF(5) if kind == "fp-fraction" else QQ
    draws = {
        "int": lambda: rng.randint(-6, 6),
        "fraction": lambda: Fraction(rng.randint(-9, 9), rng.choice((2, 3, 4, 6))),
        "zero": lambda: rng.choice((0, Fraction(0))),
        # denominators prime to 5; 5/3 and 10 are zero in GF(5)
        "fp-fraction": lambda: rng.choice(
            (Fraction(rng.randint(-9, 9), rng.choice((2, 3, 4, 7))), Fraction(5, 3), 10)
        ),
    }
    nonzero = 0
    for n in range(1, 5):
        for D in all_subsets(n):
            alpha = {C: draws[kind]() for C in subsets_of_size(n, D.size)}
            got = nabla_D_alpha(D, alpha, field)
            mirrored = nabla_alpha_D(D, alpha, field)
            terms = alpha.items()
            assert got == reference_combination(n, field, [((D, C), c) for C, c in terms])
            assert mirrored == reference_combination(n, field, [((C, D), c) for C, c in terms])
            assert got.is_zero() == mirrored.is_zero()
            nonzero += not got.is_zero()
    assert (nonzero == 0) == (kind == "zero")


# -- kappa and the minpol table ---------------------------------------------------


def brute_kappa(n, a, b, c):
    A = Subset(n, range(1, a + 1))
    B = Subset(n, range(a - c + 1, a - c + b + 1))
    return brute_filter(n, lambda w: not (image_set(w, A) & frozenset(B.members)))


def test_kappa_is_the_avoiding_sum():
    for n in (2, 3, 4):
        for a in range(n + 1):
            for b in range(n - a + 1):  # constructible with c = 0
                for c in range(min(a, b) + 1):
                    if a - c + b <= n:
                        assert kappa(n, a, b, c) == brute_kappa(n, a, b, c)


def test_kappa_b0_is_group_sum():
    for n in (1, 2, 3, 4):
        assert kappa(n, 0, 0, 0) == group_sum(n)


def test_kappa_degenerate_parameters_yield_zero():
    assert kappa(3, 2, 1, 2).is_zero()  # c > min(a, b)
    assert kappa(3, 4, 0, 0).is_zero()  # a > n
    assert kappa(3, 2, 3, 1).is_zero()  # a - c + b > n
    # a + b > n with constructible subsets: naturally zero
    assert kappa(3, 2, 2, 0).is_zero()


def test_kappa_minpol_depends_only_on_sizes():
    rng = random.Random(88)
    n = 4
    for _ in range(8):
        a = rng.randint(0, n)
        b = rng.randint(0, n - a)
        c = rng.randint(0, min(a, b))
        reference = element_min_poly(kappa(n, a, b, c))
        # a random (A, B) pair with the same size profile
        A = random_subset(rng, n, a)
        rest = [i for i in range(1, n + 1) if i not in A.members]
        B = Subset(n, list(rng.sample(A.members, c)) + rng.sample(rest, b - c))
        elem = nabla_tilde(B.complement(), A)
        assert element_min_poly(elem) == reference


def test_kappa_rows_order_and_counts():
    assert list(kappa_rows(3)) == [
        (0, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 0), (2, 1, 1),
    ]
    expected_counts = {1: 1, 2: 3, 3: 5, 4: 10, 5: 15, 6: 24}
    for n, count in expected_counts.items():
        assert len(list(kappa_rows(n))) == count


def test_minpol_table_small_against_frozen_values():
    t1 = minpol_table(1)
    assert [(a, b, c, p.format_factored()) for a, b, c, p in t1] == [
        (0, 0, 0, "(x-1)")
    ]
    t2 = minpol_table(2)
    assert [(a, b, c, p.format_factored()) for a, b, c, p in t2] == [
        (0, 0, 0, "(x-2)*x"),
        (1, 1, 0, "(x-1)"),
        (1, 1, 1, "(x-1)*(x+1)"),
    ]
    t3 = minpol_table(3)
    assert [(a, b, c, p.format_factored()) for a, b, c, p in t3] == [
        (0, 0, 0, "(x-6)*x"),
        (1, 1, 0, "(x-4)*(x-1)*x"),
        (1, 1, 1, "(x-4)*x*(x+2)"),
        (2, 1, 0, "(x-2)*x"),
        (2, 1, 1, "(x-2)*x*(x+1)"),
    ]


def test_minpol_table_n4_multiplicity_row():
    rows = {(a, b, c): p for a, b, c, p in minpol_table(4)}
    assert rows[(2, 2, 1)].format_factored() == "(x-4)*x^2*(x+2)"
    assert rows[(2, 2, 2)].format_factored() == "(x-4)*x*(x+4)"


def test_minpol_table_splits_with_bounded_factor_count():
    for n in (1, 2, 3, 4, 5):
        for a, b, c, poly in minpol_table(n):
            assert poly.is_split()
            assert sum(m for _, m in poly.factors) <= a + 2
            assert all(root.denominator == 1 for root, _ in poly.factors)


def test_minpol_table_cap():
    with pytest.raises(ValueError):
        minpol_table(7)
    with pytest.raises(ValueError):
        minpol_table(0)
