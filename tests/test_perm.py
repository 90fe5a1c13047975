"""Tests for permutations, monotone subsequences and avoidance classes."""

from itertools import combinations
from math import factorial

import pytest

from snalg.perm import (
    ENUMERATION_CAP,
    Permutation,
    all_permutations,
    avoids_decr,
    avoids_incr,
    compose,
    enumerate_av,
    enumerate_av_prime,
    erdos_szekeres_decomposition,
    identity,
    inverse,
    lds_length,
    lis_ending_lengths,
    lis_length,
    lis_starting_lengths,
    sign,
)


def brute_lis(oln, increasing=True):
    """Longest monotone subsequence by exhausting all position subsets."""
    n = len(oln)
    best = 0
    for size in range(n, 0, -1):
        for pos in combinations(range(n), size):
            vals = [oln[j] for j in pos]
            ok = all(a < b for a, b in zip(vals, vals[1:])) if increasing else all(
                a > b for a, b in zip(vals, vals[1:])
            )
            if ok:
                return size
    return best


def brute_sign(oln):
    inv = sum(
        1
        for i in range(len(oln))
        for j in range(i + 1, len(oln))
        if oln[i] > oln[j]
    )
    return -1 if inv % 2 else 1


def test_constructor_validates():
    with pytest.raises(ValueError):
        Permutation([1, 1, 2])
    with pytest.raises(ValueError):
        Permutation([2, 3])


def test_one_indexed_call_and_oln():
    w = Permutation([2, 4, 1, 3])
    assert w.n == 4
    assert [w(i) for i in range(1, 5)] == [2, 4, 1, 3]
    assert w.oln == (2, 4, 1, 3)


def test_string_roundtrip_small():
    for w in all_permutations(5):
        s = w.to_string()
        assert "," not in s
        assert Permutation.from_string(s) == w


def test_string_roundtrip_large():
    w = Permutation([10, 2, 3, 4, 5, 6, 7, 8, 9, 1])
    s = w.to_string()
    assert s == "10,2,3,4,5,6,7,8,9,1"
    assert Permutation.from_string(s) == w


def test_string_empty():
    e = Permutation([])
    assert e.to_string() == ""
    assert Permutation.from_string("") == e


def test_compose_convention():
    u = Permutation([2, 1, 3])
    v = Permutation([1, 3, 2])
    uv = compose(u, v)
    for i in range(1, 4):
        assert uv(i) == u(v(i))


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_group_laws():
    for u in all_permutations(4):
        assert compose(u, identity(4)) == u
        assert compose(identity(4), u) == u
        assert compose(u, inverse(u)) == identity(4)
        assert compose(inverse(u), u) == identity(4)
    ws = list(all_permutations(3))
    for u in ws:
        for v in ws:
            for x in ws:
                assert compose(compose(u, v), x) == compose(u, compose(v, x))


def test_sign_matches_inversions_and_is_a_character():
    for w in all_permutations(5):
        assert sign(w) == brute_sign(w.oln)
    for u in all_permutations(4):
        for v in all_permutations(4):
            assert sign(compose(u, v)) == sign(u) * sign(v)


def test_rank_unrank_lex_order():
    for n in range(6):
        perms = list(all_permutations(n))
        assert len(perms) == factorial(n)
        for r, w in enumerate(perms):
            assert w.rank() == r
            assert Permutation.unrank(n, r) == w
    with pytest.raises(ValueError):
        Permutation.unrank(3, 6)


def test_permutations_ordered_by_lex_rank():
    perms = list(all_permutations(4))
    for i, u in enumerate(perms):
        for j, v in enumerate(perms):
            assert (u < v) == (i < j)


def reversal(n):
    """The order-reversing permutation i -> n+1-i."""
    return Permutation(range(n, 0, -1))


def test_w0_reverses():
    assert reversal(4).oln == (4, 3, 2, 1)
    assert compose(reversal(4), reversal(4)) == identity(4)


def test_monotone_lengths_against_brute_force():
    for n in range(7):
        for w in all_permutations(n):
            if n > 0:
                assert lis_length(w) == brute_lis(w.oln, increasing=True)
                assert lds_length(w) == brute_lis(w.oln, increasing=False)
    assert lis_length(Permutation([])) == 0
    assert lds_length(Permutation([])) == 0


def test_avoidance_definitions():
    for w in all_permutations(5):
        assert avoids_incr(w, 3) == (brute_lis(w.oln, True) < 3)
        assert avoids_decr(w, 3) == (brute_lis(w.oln, False) < 3)
    with pytest.raises(ValueError):
        avoids_incr(identity(3), 0)


def test_avoidance_counts():
    # Catalan numbers for pattern length 3.
    assert len(enumerate_av(4, 3)) == 14
    assert len(enumerate_av(6, 3)) == 132
    assert len(enumerate_av(5, 4)) == 103
    # m = 1 excludes everything, m = n+1 excludes nothing.
    assert enumerate_av(3, 1) == []
    assert len(enumerate_av(3, 4)) == 6
    # Reversal swaps increasing and decreasing runs.
    for n in range(6):
        for m in range(1, n + 2):
            assert len(enumerate_av(n, m)) == len(enumerate_av_prime(n, m))


def test_avoidance_prime_via_w0():
    for n in range(6):
        left = set(compose(reversal(n), w).oln for w in enumerate_av(n, 3))
        right = set(w.oln for w in enumerate_av_prime(n, 3))
        assert left == right


def test_enumeration_lex_sorted_and_capped():
    avs = enumerate_av(5, 3)
    assert avs == sorted(avs)
    with pytest.raises(ValueError):
        enumerate_av(ENUMERATION_CAP + 1, 3)
    with pytest.raises(ValueError):
        enumerate_av_prime(ENUMERATION_CAP + 1, 3)


def test_lis_ending_lengths():
    w = Permutation([2, 4, 1, 3])
    assert lis_ending_lengths(w) == [1, 2, 1, 2]
    for v in all_permutations(5):
        lengths = lis_ending_lengths(v)
        assert max(lengths, default=0) == lis_length(v)


def test_lis_starting_lengths_match_brute_force():
    # an increasing subsequence starting at w(j) is w(j) followed by one of
    # the values after position j that exceed w(j)
    for n in range(8):
        for w in all_permutations(n):
            oln = w.oln
            want = [1 + brute_lis([x for x in oln[j + 1 :] if x > v]) for j, v in enumerate(oln)]
            assert lis_starting_lengths(w) == want, oln


def test_erdos_szekeres_blocks():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for v in enumerate_av(n, k + 1):
                dec = erdos_szekeres_decomposition(v, k)
                assert dec.n == n
                assert len(dec.blocks) == k
                seen = set()
                for i, block in enumerate(dec.blocks, start=1):
                    vals = [v(j) for j in sorted(block)]
                    assert all(a > b for a, b in zip(vals, vals[1:]))
                    seen |= set(block)
                assert seen == set(range(1, n + 1))


def test_erdos_szekeres_requires_enough_blocks():
    with pytest.raises(ValueError):
        erdos_szekeres_decomposition(Permutation([1, 2, 3]), 2)
