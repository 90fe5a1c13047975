"""Tests for the group algebra: ring structure, antipode, sign twist,
bilinear form, board sums and minimal polynomials."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from operator import itemgetter

import pytest

from snalg import groupalg
from snalg.exactla import GF, QQ
from snalg.groupalg import (
    AlgebraElement,
    MinimalPolynomial,
    _board_dfs,
    _board_ranks,
    _coset_ids,
    antipode,
    board_sum,
    dot,
    element_min_poly,
    mul,
    sign_twist,
)
from snalg.perm import (
    ENUMERATION_CAP,
    Permutation,
    all_permutations,
    compose,
    inverse,
    sign,
)
from snalg.rook import Subset, nabla, nabla_tilde
from snalg.setdecomp import SetDecomposition, act, antisymmetrizer, row_sum, tuple_sum


def random_element(rng, n, field=QQ, max_terms=5):
    pairs = []
    for _ in range(rng.randint(0, max_terms)):
        w = Permutation.unrank(n, rng.randrange(factorial(n)))
        if field is QQ:
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        else:
            c = rng.randrange(field.p)
        pairs.append((w, c))
    return AlgebraElement(n, field, pairs)


def test_canonical_form_drops_zeros_and_merges():
    w = Permutation([2, 1, 3])
    a = AlgebraElement(3, QQ, [(w, 2), (w, -2)])
    assert a.is_zero()
    b = AlgebraElement(3, QQ, [(w, 1), (w, 2)])
    assert b.coeff(w) == 3
    assert len(b) == 1


def test_coeff_by_rank_and_by_permutation():
    # coeff reads its key as the constructor does: a lex rank or a permutation
    w = Permutation([2, 4, 1, 3])
    a = AlgebraElement(4, QQ, [(w, Fraction(2, 3)), (7, 5)])
    assert a.coeff(w.rank()) == a.coeff(w) == Fraction(2, 3)
    assert a.coeff(7) == a.coeff(Permutation.unrank(4, 7)) == 5
    assert a.coeff(0) == a.coeff(Permutation([1, 2, 3, 4])) == 0
    with pytest.raises(ValueError, match=r"permutation of \[3\] in k\[S_4\]"):
        a.coeff(Permutation([1, 2, 3]))


def test_from_perm_ranks_by_the_lex_order():
    # the image table up to n = 8, Permutation.rank beyond
    for n in (1, 2, 3, 5, 8, 9):
        perms = [Permutation.unrank(n, r) for r in (0, factorial(n) // 3, factorial(n) - 1)]
        for w in perms:
            assert AlgebraElement.from_perm(w)._terms == {w.rank(): 1}
            assert AlgebraElement(n, QQ, [(w, 3)])._terms == {w.rank(): 3}


def test_size_and_field_mismatch_errors():
    a = AlgebraElement.one(3, QQ)
    b = AlgebraElement.one(4, QQ)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        mul(a, AlgebraElement.one(3, GF(5)))
    with pytest.raises(ValueError):
        AlgebraElement(3, QQ, [(Permutation([1, 2]), 1)])


def test_mul_on_basis_matches_composition():
    for u in all_permutations(4):
        for v in all_permutations(4):
            prod = mul(AlgebraElement.from_perm(u), AlgebraElement.from_perm(v))
            assert prod == AlgebraElement.from_perm(compose(u, v))
    # u against many v at once: v carries the coefficient of its place in
    # the list, so each product uv must land on its own coefficient
    rng = random.Random(41)
    for n in range(5, 9):
        perms = list(all_permutations(n)) if n < 7 else [
            Permutation.unrank(n, r) for r in rng.sample(range(factorial(n)), 720)
        ]
        b = AlgebraElement(n, QQ, [(v, i + 1) for i, v in enumerate(perms)])
        # every u at n = 5, 20 at n = 6, 3 at n = 7 and 8
        for u in perms if n == 5 else rng.sample(perms, 20 if n == 6 else 3):
            want = AlgebraElement(n, QQ, [(compose(u, v), i + 1) for i, v in enumerate(perms)])
            assert mul(AlgebraElement.from_perm(u), b) == want, (n, u)
            v = rng.choice(perms)
            prod = mul(AlgebraElement.from_perm(u), AlgebraElement.from_perm(v))
            assert prod == AlgebraElement.from_perm(compose(u, v))


def test_mul_inverse_gives_identity():
    for w in all_permutations(4):
        prod = mul(AlgebraElement.from_perm(w), AlgebraElement.from_perm(inverse(w)))
        assert prod == AlgebraElement.one(4, QQ)


def test_group_sum_absorbs():
    for n in (2, 3, 4):
        s = nabla(Subset(n), Subset(n))
        assert mul(s, s) == factorial(n) * s


def test_mul_associative_and_unital():
    rng = random.Random(2024)
    for n in (2, 3, 4, 5):
        one = AlgebraElement.one(n, QQ)
        for _ in range(8):
            a = random_element(rng, n)
            b = random_element(rng, n)
            c = random_element(rng, n)
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, one) == a
            assert mul(one, a) == a
        # distributivity while we are here
        a, b, c = (random_element(rng, n) for _ in range(3))
        assert mul(a, b + c) == mul(a, b) + mul(a, c)


def test_mul_over_prime_field_matches_reduction():
    rng = random.Random(77)
    for n, p in ((4, 5), (5, 2), (5, 3)):
        f = GF(p)

        def reduce(x):
            return AlgebraElement(n, f, [(w, int(c)) for w, c in x.items()])

        for _ in range(10):
            aq = random_element(rng, n, QQ)
            bq = random_element(rng, n, QQ)
            # clear denominators so reduction mod p is defined
            aq = 12 * aq
            bq = 12 * bq
            ap, bp = reduce(aq), reduce(bq)
            assert mul(ap, bp) == reduce(mul(aq, bq))
            assert sign_twist(ap) == reduce(sign_twist(aq))
        for members in ((1, 2), (2, 3, n), tuple(range(1, n + 1))):
            U = Subset(n, members)
            assert antisymmetrizer(U, f) == reduce(antisymmetrizer(U, QQ))
    # over F_2, -1 = 1: the antisymmetrizer is the plain sum and sign_twist is trivial
    full = Subset(3, (1, 2, 3))
    group_sum = nabla(Subset(3), Subset(3), GF(2))
    assert antisymmetrizer(full, GF(2)) == group_sum
    assert sign_twist(group_sum) == group_sum


def _compose_product(a, b):
    """The product by a double loop over perm.compose, independent of mul;
    it unranks only the terms, so it stays cheap at n = 9."""
    n = a.n
    vs = [(Permutation.unrank(n, rv), cb) for rv, cb in b._terms.items()]
    acc = {}
    for ru, ca in a._terms.items():
        u = Permutation.unrank(n, ru)
        for v, cb in vs:
            r = compose(u, v).rank()
            acc[r] = acc.get(r, 0) + ca * cb
    den = a._den * b._den
    return AlgebraElement(n, a.field, [(r, Fraction(c, den)) for r, c in acc.items()])


def test_mul_beyond_table_matches_compose():
    rng = random.Random(7)
    for n in (7, 8, 9):
        for field in (QQ, GF(5)):
            for _ in range(4):
                a = random_element(rng, n, field, max_terms=6)
                b = random_element(rng, n, field, max_terms=6)
                assert mul(a, b) == _compose_product(a, b)
            # (1 - s)(1 + s) = 1 - s^2 = 0 for a transposition s: every term cancels
            one = AlgebraElement.one(n, field)
            s = AlgebraElement.from_perm(Permutation([2, 1] + list(range(3, n + 1))), field)
            assert mul(one - s, one + s).is_zero()
            assert _compose_product(one - s, one + s).is_zero()
            if n > ENUMERATION_CAP:
                continue
            # rook sums on the right run the coset branch up to the cap
            for size in (2, n // 2):
                B, A = _random_subset(rng, n, size), _random_subset(rng, n, size)
                rook = nabla(B, A, field)
                assert rook._blocks is not None
                a = random_element(rng, n, field, max_terms=6)
                assert mul(a, rook) == _compose_product(a, rook), (n, field, size)


@lru_cache(maxsize=None)
def _lex_images(n):
    """The 0-based image tuples of S_n in lex order, straight from
    itertools, each with the fixed point n appended so that itemgetter
    returns a tuple even at n = 1, and the lex rank of each."""
    images = [w + (n,) for w in itertools.permutations(range(n))]
    return images, {w: r for r, w in enumerate(images)}


@lru_cache(maxsize=None)
def _product_row(n, ru):
    """The lex rank of (rank ru)(rank rv) for every rv: the image of uv is
    u read at each entry of v."""
    images, ranks = _lex_images(n)
    return [ranks[itemgetter(*v)(images[ru])] for v in images]


def _double_loop_product(a, b):
    """The product by a double loop over every pair of terms, independent
    of mul."""
    acc = [0] * factorial(a.n)
    for ru, ca in a._terms.items():
        row = _product_row(a.n, ru)
        for rv, cb in b._terms.items():
            acc[row[rv]] += ca * cb
    den = a._den * b._den
    return AlgebraElement(a.n, a.field, [(r, Fraction(c, den)) for r, c in enumerate(acc) if c])


def _random_subset(rng, n, size=None):
    if size is None:
        size = rng.randrange(n + 1)
    return Subset(n, rng.sample(range(1, n + 1), size))


def _rook_sums(rng, n, field):
    """One element of each rook-sum family, built on random subsets."""
    A = _random_subset(rng, n)
    B = _random_subset(rng, n, A.size)
    C = _random_subset(rng, n, rng.randrange(A.size, n + 1))
    labels = [rng.randrange(2) for _ in range(n)]
    blocks = [[i for i in range(1, n + 1) if labels[i - 1] == x] for x in (0, 1)]
    Adec = SetDecomposition.from_members(n, blocks)
    w = Permutation.unrank(n, rng.randrange(factorial(n)))
    t = rng.randrange(n)
    a_tuple = rng.sample(range(1, n + 1), t)
    squares = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return {
        "nabla": nabla(B, A, field),
        "nabla_tilde": nabla_tilde(C, A, field),
        "row_sum": row_sum(act(w, Adec), Adec, field),
        "tuple_sum": tuple_sum([w(x) for x in a_tuple], a_tuple, n, field),
        "board_sum equal rows": board_sum(n, [sq for sq in squares if rng.random() < 0.7], field),
        # the derangement board: every row misses a different column
        "board_sum distinct rows": board_sum(n, [(i, j) for i, j in squares if i != j], field),
        "group_sum": nabla(Subset(n), Subset(n), field),
    }


def _left_factors(rng, n, field):
    w = Permutation.unrank(n, rng.randrange(factorial(n)))
    A = _random_subset(rng, n)
    random_terms = [
        (rng.randrange(factorial(n)), Fraction(rng.randint(-9, 9), rng.randint(2, 5)))
        for _ in range(rng.randint(2, 12))
    ]
    if field.characteristic:
        random_terms = [(r, c.numerator) for r, c in random_terms]
    return [
        AlgebraElement.from_perm(w, field),
        nabla_tilde(_random_subset(rng, n, rng.randrange(A.size, n + 1)), A, field),
        AlgebraElement(n, field, random_terms),
        AlgebraElement.zero(n, field),
    ]


def test_coset_mul_matches_double_loop():
    rng = random.Random(307)
    fractional = 0
    for n in range(1, 7):
        for field in (QQ, GF(2), GF(3)):
            for _ in range(2 if n < 6 else 1):
                for name, b in _rook_sums(rng, n, field).items():
                    for a in _left_factors(rng, n, field):
                        fractional += a._den > 1
                        assert mul(a, b) == _double_loop_product(a, b), (n, field, name)
                    # the coset path holds for any b constant on the cosets
                    # of its Young subgroup, not only for coefficients 1
                    scaled = (Fraction(-3, 2) if field is QQ else -1) * b
                    scaled._blocks = b._blocks
                    a = _left_factors(rng, n, field)[2]
                    assert mul(a, scaled) == _double_loop_product(a, scaled), (n, field, name)
    assert fractional > 0
    # a board whose rows all differ keeps no Young subgroup
    assert board_sum(3, [(1, 1), (2, 1), (2, 2), (3, 3)])._blocks is None
    assert nabla(Subset(4), Subset(4))._blocks == bytes(4)
    assert nabla(Subset(4, (1, 3)), Subset(4, (2, 4)))._blocks == bytes((0, 1, 0, 1))


def test_elements_derived_from_rook_sums_take_the_plain_path():
    rng = random.Random(311)
    for n in (3, 6):
        for field in (QQ, GF(3)):
            one = AlgebraElement.one(n, field)
            for name, rook in _rook_sums(rng, n, field).items():
                derived = [
                    (Fraction(1, 2) if field is QQ else 2) * rook,
                    rook + one,
                    antipode(rook),
                    mul(one, rook),
                ]
                for x in derived:
                    assert x._blocks is None and not x._signed, name
                    # a permutation and a random element on the left
                    for a in _left_factors(rng, n, field)[::2]:
                        assert mul(a, x) == _double_loop_product(a, x), (n, field, name)
                # the sign twist keeps the blocks, signed
                twisted = sign_twist(rook)
                assert twisted._blocks == rook._blocks, name
                assert twisted._signed == (rook._blocks is not None), name
                for a in _left_factors(rng, n, field)[::2]:
                    assert mul(a, twisted) == _double_loop_product(a, twisted), (n, field, name)
            U = _random_subset(rng, n, n - 1)
            signed = antisymmetrizer(U, field)
            # one block for U, one for each point outside it
            assert len({signed._blocks[i - 1] for i in U.members}) == 1
            assert len(set(signed._blocks)) == 2 and signed._signed
            for a in _left_factors(rng, n, field):
                assert mul(a, signed) == _double_loop_product(a, signed)


def _signed_right_factors(rng, n, field):
    """An antisymmetrizer for every size |U| = 1..n, and the sign twist of
    each rook-sum family once and twice."""
    factors = {
        f"antisymmetrizer |U| = {size}": antisymmetrizer(_random_subset(rng, n, size), field)
        for size in range(1, n + 1)
    }
    for name, rook in _rook_sums(rng, n, field).items():
        factors[f"sign_twist({name})"] = sign_twist(rook)
        factors[f"sign_twist^2({name})"] = sign_twist(sign_twist(rook))
    return factors


def test_signed_coset_mul_matches_double_loop(monkeypatch):
    rng = random.Random(317)
    calls = []
    real = groupalg._coset_ids
    monkeypatch.setattr(groupalg, "_coset_ids", lambda n, blocks: calls.append(n) or real(n, blocks))
    branches = Counter()
    for n in (3, 5, 6):
        for field in (QQ, GF(2), GF(3), GF(7)):
            for name, b in _signed_right_factors(rng, n, field).items():
                twice = name.startswith("sign_twist^2")
                # an antisymmetrizer of one point is the identity, a board of
                # distinct rows has no Young subgroup: no blocks, no sign
                assert b._signed == (b._blocks is not None and not twice), name
                # a permutation, a rook sum and a random element on the left
                for a in _left_factors(rng, n, field)[:3]:
                    del calls[:]
                    assert mul(a, b) == _double_loop_product(a, b), (n, field, name)
                    if b._blocks is None:
                        assert not calls
                        continue
                    order = 1
                    for x in set(b._blocks):
                        order *= factorial(b._blocks.count(x))
                    work = len(a) * len(b)
                    assert bool(calls) == (work // order + factorial(n) < work), (n, name)
                    branches[b._signed, bool(calls)] += 1
    # signed and unsigned right factors each run both branches of the rule
    assert set(branches) == {(s, c) for s in (False, True) for c in (False, True)}, branches
    # one permutation times a rook sum: |Y| pairs beat the n! write-back
    rook = nabla(Subset(6, (1, 2, 3)), Subset(6, (4, 5, 6)))
    s1 = AlgebraElement.from_perm(Permutation([2, 1, 3, 4, 5, 6]))
    del calls[:]
    assert mul(s1, rook) == _double_loop_product(s1, rook) and not calls


def _set_partitions(n):
    """Every partition of positions 0..n-1 as block labels by first
    appearance (restricted growth strings)."""
    out = [()]
    for _ in range(n):
        out = [lab + (x,) for lab in out for x in range(max(lab, default=-1) + 2)]
    return out


def test_coset_tables_are_young_subgroup_cosets():
    rng = random.Random(313)
    for n in range(1, 7):
        perms = list(all_permutations(n))
        partitions = _set_partitions(n)
        # every partition up to n = 5, 15 of the 203 at n = 6
        for labels in partitions if n < 6 else rng.sample(partitions, 15):
            blocks = bytes(labels)
            ids, images, members = _coset_ids(n, blocks)
            order = 1
            for x in set(labels):
                order *= factorial(labels.count(x))
            sizes = Counter(ids)
            assert set(sizes.values()) == {order}
            assert sorted(sizes) == list(range(factorial(n) // order))
            assert len(images) == len(sizes)
            for c in range(len(images)):
                coset = members[c * order : (c + 1) * order]
                assert list(coset) == [r for r, i in enumerate(ids) if i == c]
                # byte j of the image holds the block sent to column j
                w = perms[coset[0]]
                assert images[c] == sum(1 << labels[i] << 8 * (w(i + 1) - 1) for i in range(n))
            # the sum of Y is the board letting each position take the
            # positions of its block
            young = board_sum(n, [
                (i + 1, j + 1) for i in range(n) for j in range(n) if labels[i] == labels[j]
            ])
            assert young._blocks == (blocks if order > 1 else None)
            ys = [y for y in perms if all(labels[y(i + 1) - 1] == labels[i] for i in range(n))]
            assert young == AlgebraElement(n, QQ, [(y, 1) for y in ys])
            for w in rng.sample(perms, min(len(perms), 3)):
                coset = [r for r, c in enumerate(ids) if c == ids[w.rank()]]
                want = AlgebraElement(n, QQ, [(r, 1) for r in coset])
                assert mul(AlgebraElement.from_perm(w), young) == want
                assert want == AlgebraElement(n, QQ, [(compose(w, y), 1) for y in ys])


def assert_canonical(a):
    terms = list(a._terms.values())
    assert all(type(c) is int for c in terms)
    if a.field.characteristic:
        assert a._den == 1
        assert all(1 <= c < a.field.p for c in terms)
    else:
        assert a._den > 0
        assert all(terms)
        assert gcd(a._den, *terms) == 1


def test_canonical_form_after_every_operation():
    rng = random.Random(31)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(10):
            a = random_element(rng, 4, field)
            b = random_element(rng, 4, field)
            for x in (
                a, a + b, a - a, Fraction(3, 7) * a, 0 * a, mul(a, b),
                sign_twist(a), antipode(a),
            ):
                assert_canonical(x)
    e = Permutation([1, 2, 3])
    half = AlgebraElement(3, QQ, [(Permutation([2, 1, 3]), Fraction(1, 2)), (e, 1)])
    assert half._den == 2 and sorted(half._terms.values()) == [1, 2]
    assert [half.coeff(Permutation.unrank(3, r)) for r in range(3)] == [1, 0, Fraction(1, 2)]
    assert (2 * half)._den == 1


def test_construction_paths_agree():
    rng = random.Random(37)
    for field in (QQ, GF(5)):
        for _ in range(10):
            a = random_element(rng, 4, field)
            b = random_element(rng, 4, field)
            one = AlgebraElement.one(4, field)
            assert AlgebraElement(4, field, list(a.items())) == a
            assert AlgebraElement(4, field, {w.rank(): c for w, c in a.items()}) == a
            assert b + (a - b) == a
            assert -1 * (-1 * a) == a
            assert mul(one, a) == a
            assert Fraction(1, 3) * (3 * a) == a
            assert dot(a, one) == a.coeff(Permutation([1, 2, 3, 4]))


def test_antipode_involution_and_antihom():
    rng = random.Random(11)
    for n in (3, 4):
        for _ in range(10):
            a = random_element(rng, n)
            b = random_element(rng, n)
            assert antipode(antipode(a)) == a
            assert antipode(mul(a, b)) == mul(antipode(b), antipode(a))


def test_sign_twist_involution_and_hom():
    rng = random.Random(13)
    for n in (3, 4):
        for _ in range(10):
            a = random_element(rng, n)
            b = random_element(rng, n)
            assert sign_twist(sign_twist(a)) == a
            assert sign_twist(mul(a, b)) == mul(sign_twist(a), sign_twist(b))
    w = Permutation([2, 1, 3])
    assert sign_twist(AlgebraElement.from_perm(w)) == AlgebraElement(
        3, QQ, [(w, sign(w))]
    )


def test_dot_identities():
    rng = random.Random(17)
    for w in all_permutations(3):
        e = AlgebraElement.from_perm(w)
        assert dot(e, e) == 1
    e = Permutation([1, 2, 3, 4])
    for _ in range(12):
        a = random_element(rng, 4)
        b = random_element(rng, 4)
        assert dot(a, b) == mul(antipode(a), b).coeff(e)
        assert dot(a, b) == mul(b, antipode(a)).coeff(e)
        assert dot(a, b) == mul(antipode(b), a).coeff(e)
        assert dot(a, b) == mul(a, antipode(b)).coeff(e)
        assert dot(a, b) == dot(antipode(a), antipode(b))
        assert dot(a, b) == dot(b, a)


def test_board_sum_examples():
    n = 4
    diag = board_sum(n, [(i, i) for i in range(1, n + 1)])
    assert diag == AlgebraElement.one(n, QQ)
    full = board_sum(n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)])
    assert full == nabla(Subset(n), Subset(n))
    offdiag = board_sum(n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j])
    derangements = [
        w for w in all_permutations(n) if all(w(i) != i for i in range(1, n + 1))
    ]
    assert len(derangements) == 9
    assert offdiag == AlgebraElement(n, QQ, [(w, 1) for w in derangements])
    with pytest.raises(ValueError):
        board_sum(3, [(0, 1)])


def test_board_sum_matches_filter_on_random_boards():
    rng = random.Random(151)
    n = 5
    squares = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for density in (0.3, 0.6, 0.9):
        for _ in range(8):
            board = [sq for sq in squares if rng.random() < density]
            allowed = set(board)
            want = AlgebraElement(n, QQ, [
                (w, 1)
                for w in all_permutations(n)
                if all((i, w(i)) in allowed for i in range(1, n + 1))
            ])
            assert board_sum(n, board) == want
            assert board_sum(n, board + board[:3], GF(3)) == AlgebraElement(n, GF(3), [
                (w, 1) for w, _ in want.items()
            ])


def test_board_ranks_are_sorted_lex_ranks():
    # n <= ENUMERATION_CAP reads coset tables, checked against the
    # depth-first search, which runs by itself only beyond the cap
    rng = random.Random(152)
    for n in range(1, ENUMERATION_CAP + 1):
        full = (1 << n) - 1
        boards = [(full,) * n] + [
            tuple(rng.randrange(1 << n) | rng.choice((0, full)) for _ in range(n))
            for _ in range(20 if n < 7 else 3)
        ]
        # repeated rows drawn from 2 or 3 distinct masks, one of them empty
        for distinct in (2, 3):
            for _ in range(8 if n < 7 else 2):
                masks = [rng.randrange(1, 1 << n) for _ in range(distinct - 1)]
                masks.append(rng.choice((0, full, masks[0] | rng.randrange(1 << n))))
                boards.append(tuple(rng.choice(masks) for _ in range(n)))
        for rows in boards:
            ranks = list(_board_ranks(n, rows))
            assert ranks == _board_dfs(n, rows)
            if n == ENUMERATION_CAP:
                continue  # a filter over all 8! per board is slow: the DFS is the reference
            want = [
                Permutation(w).rank()
                for w in itertools.permutations(range(1, n + 1))
                if all(rows[i] >> (w[i] - 1) & 1 for i in range(n))
            ]
            assert ranks == sorted(want)
    assert _board_ranks(4, (15,) * 4) == tuple(range(24))
    assert _board_ranks(3, (3, 0, 3)) == ()
    # every nabla and nabla_tilde board, sizes of B and A equal or not
    for n in range(1, 7):
        full = (1 << n) - 1
        for bmask in range(1 << n):
            for amask in range(1 << n):
                for rest in (full ^ bmask, full):
                    rows = tuple(bmask if amask >> i & 1 else rest for i in range(n))
                    assert list(_board_ranks(n, rows)) == _board_dfs(n, rows)
    # beyond the cap: a sparse n = 9 board with equal rows, listed by the
    # depth-first search, keeps no Young subgroup and multiplies pair by pair
    n = 9
    pairs = ((1, 2), (3, 4), (8, 9))
    board = [(i, j) for p in pairs for i in p for j in p] + [(5, 5), (6, 6), (7, 7), (7, 6)]
    rows = [0] * n
    for i, j in board:
        rows[i - 1] |= 1 << (j - 1)
    want = []
    for flips in itertools.product((False, True), repeat=len(pairs)):
        img = list(range(1, n + 1))
        for (i, j), flip in zip(pairs, flips):
            if flip:
                img[i - 1], img[j - 1] = j, i
        want.append(Permutation(img))
    assert list(_board_ranks(n, tuple(rows))) == sorted(w.rank() for w in want)
    rook = board_sum(n, board)
    assert rook._blocks is None
    assert rook == AlgebraElement(n, QQ, [(w, 1) for w in want])
    a = AlgebraElement(n, QQ, [(w, Fraction(i + 1, 2)) for i, w in enumerate(want[1:4])])
    a = a + AlgebraElement.from_perm(Permutation([9, 1, 2, 3, 4, 5, 6, 7, 8]), QQ, 3)
    assert mul(a, rook) == _compose_product(a, rook)
    assert mul(rook, a) == _compose_product(rook, a)


def test_derangement_board_sum_is_central():
    for n in (2, 3, 4, 5):
        board = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        d = board_sum(n, board)
        for w in all_permutations(n):
            e = AlgebraElement.from_perm(w)
            assert mul(d, e) == mul(e, d)


def test_items_of_a_large_element_unrank_only_its_terms(monkeypatch):
    # listing one term at n = 9 must not build all 9! permutations
    import snalg.groupalg as groupalg

    real = groupalg.permutation_basis
    built = []
    monkeypatch.setattr(groupalg, "permutation_basis", lambda n: built.append(n) or real(n))
    w = Permutation([3, 1, 4, 9, 5, 2, 6, 8, 7])
    a = AlgebraElement.from_perm(w, coeff=Fraction(-2, 3))
    assert list(a.items()) == [(w, Fraction(-2, 3))]
    assert a.support() == [w]
    assert repr(a) == "-2/3*[314952687]"
    assert 9 not in built


def test_min_poly_identity():
    p = element_min_poly(AlgebraElement.one(3, QQ))
    assert p.coeffs == (Fraction(-1), Fraction(1))
    assert p.format_factored() == "(x-1)"


def test_min_poly_transposition():
    # an involution s has s^2 = 1, so minpol x^2 - 1 = (x-1)(x+1)
    s = AlgebraElement.from_perm(Permutation([2, 1, 3]))
    p = element_min_poly(s)
    assert p.coeffs == (Fraction(-1), Fraction(0), Fraction(1))
    assert p.format_factored() == "(x-1)*(x+1)"


def test_min_poly_group_sum():
    # the group sum squares to 3! times itself: minpol (x - 3!) x
    p = element_min_poly(nabla(Subset(3), Subset(3)))
    assert p.format_factored() == "(x-6)*x"


def test_min_poly_annihilates_and_antipode_invariant():
    rng = random.Random(23)
    for _ in range(6):
        a = random_element(rng, 3, max_terms=3)
        p = element_min_poly(a)
        assert sum((c * a**k for k, c in enumerate(p.coeffs)), AlgebraElement.zero(3)).is_zero()
        assert element_min_poly(antipode(a)) == p
        assert element_min_poly(a) == p  # deterministic


def test_min_poly_rejects_prime_field():
    with pytest.raises(ValueError):
        element_min_poly(AlgebraElement.one(3, GF(5)))


def test_min_poly_formatting():
    p = MinimalPolynomial([Fraction(0), Fraction(0), Fraction(-4), Fraction(0), Fraction(0), Fraction(1)])
    # x^5 - 4x^2 = x^2 (x^3 - 4): does not split over Q
    assert not p.is_split()
    assert p.format_coeffs() == "x^5 - 4*x^2"
    with pytest.raises(ValueError):
        p.format_factored()
    q = MinimalPolynomial([Fraction(0), Fraction(-8), Fraction(2), Fraction(1)])
    # x^3 + 2x^2 - 8x = (x-2)*x*(x+4)
    assert q.is_split()
    assert q.format_factored() == "(x-2)*x*(x+4)"
    r = MinimalPolynomial([Fraction(0), Fraction(0), Fraction(1)])
    assert r.format_factored() == "x^2"


def test_min_poly_rational_roots():
    # (x - 1/2)(x + 3) = x^2 + 5/2 x - 3/2
    p = MinimalPolynomial([Fraction(-3, 2), Fraction(5, 2), Fraction(1)])
    assert p.factors == ((Fraction(-3), 1), (Fraction(1, 2), 1))[::-1]


def test_power_operator():
    s = AlgebraElement.from_perm(Permutation([2, 3, 1]))
    assert s ** 3 == AlgebraElement.one(3, QQ)
    assert s ** 0 == AlgebraElement.one(3, QQ)
