"""Tests for the triangular bases and verification suite of the ideals
I_k and J_k."""

import random
from itertools import combinations, product
from math import factorial

import pytest

from snalg.exactla import GF, QQ, SpanBasis
from snalg.groupalg import AlgebraElement, mul, sign_twist
from snalg.ideals import (
    IdealBasis,
    build_I_basis,
    build_J_basis,
    cross_char_intersection,
    increasing_witness,
    mixed_quotient_check,
    orthogonal_complement_check,
    sign_twisted,
    tuple_sum_span_check,
    twin_check,
    verify_row_main,
)
from snalg.perm import Permutation, all_permutations, enumerate_av, enumerate_av_prime
from snalg.rook import Subset
from snalg.setdecomp import SetDecomposition, act, antisymmetrizer, row_sum, random_set_composition


def brute_witness(v, k):
    """Reference: smallest (k+1)-subset of positions carrying an increasing
    subsequence, by exhaustive search in lexicographic order."""
    n = v.n
    for positions in combinations(range(1, n + 1), k + 1):
        values = [v(p) for p in positions]
        if all(x < y for x, y in zip(values, values[1:])):
            return Subset(n, positions)
    return None


class TestIncreasingWitness:
    def test_examples(self):
        assert increasing_witness(Permutation([3, 5, 1, 4, 2]), 1) == Subset(5, [1, 2])
        assert increasing_witness(Permutation([2, 1, 4, 3, 5]), 2) == Subset(5, [1, 3, 5])

    def test_matches_brute_force(self):
        for n in (3, 4, 5):
            for v in all_permutations(n):
                for k in range(0, n):
                    expected = brute_witness(v, k)
                    if expected is None:
                        with pytest.raises(ValueError):
                            increasing_witness(v, k)
                    else:
                        U = increasing_witness(v, k)
                        assert U == expected
                        values = [v(p) for p in U.members]
                        assert all(x < y for x, y in zip(values, values[1:]))


class TestBases:
    def test_I_counts(self):
        assert len(build_I_basis(4, 2)) == 14
        assert len(build_I_basis(3, 0)) == 0
        assert len(build_I_basis(3, 3)) == 6
        assert len(build_I_basis(3, 5)) == 6

    def test_J_counts(self):
        assert len(build_J_basis(5, 2)) == 120 - 42
        assert len(build_J_basis(3, 3)) == 0
        assert len(build_J_basis(2, 0)) == 2

    def test_smallest_J_example(self):
        basis = build_J_basis(2, 1)
        assert len(basis) == 1
        assert basis.elements[0] == AlgebraElement.from_perm(
            Permutation([1, 2])
        ) - AlgebraElement.from_perm(Permutation([2, 1]))

    def test_I_triangular(self):
        for n, k in ((3, 1), (4, 2), (4, 1), (5, 2)):
            basis = build_I_basis(n, k)
            for v, e in zip(basis.leaders, basis.elements):
                assert e.coeff(v) == QQ.one
                assert all(w.rank() <= v.rank() for w, _ in e.items())

    def test_J_triangular(self):
        for n, k in ((3, 1), (4, 2), (4, 1), (5, 2)):
            basis = build_J_basis(n, k)
            for v, e in zip(basis.leaders, basis.elements):
                assert e.coeff(v) == QQ.one
                assert all(w.rank() >= v.rank() for w, _ in e.items())

    def test_I_span_matches_all_row_sums(self):
        n = 3
        for k in (1, 2, 3):
            ispan = build_I_basis(n, k).span()
            brute = SpanBasis(QQ, factorial(n))
            for alabels in product(range(k), repeat=n):
                A = SetDecomposition.from_members(
                    n, [[i + 1 for i in range(n) if alabels[i] == j] for j in range(k)]
                )
                for blabels in product(range(k), repeat=n):
                    B = SetDecomposition.from_members(
                        n,
                        [[i + 1 for i in range(n) if blabels[i] == j] for j in range(k)],
                    )
                    brute.insert(row_sum(B, A).to_vector())
            assert brute == ispan

    def test_J_span_matches_all_generators(self):
        for n, k in ((3, 1), (4, 2)):
            jspan = build_J_basis(n, k).span()
            brute = SpanBasis(QQ, factorial(n))
            for v in all_permutations(n):
                ve = AlgebraElement.from_perm(v)
                for members in combinations(range(1, n + 1), k + 1):
                    brute.insert(
                        mul(ve, antisymmetrizer(Subset(n, members))).to_vector()
                    )
            assert brute == jspan

    def test_padded_decompositions_stay_in_I(self):
        rng = random.Random(41)
        n, k = 4, 3
        ispan = build_I_basis(n, k).span()
        for _ in range(10):
            A = random_set_composition(rng, n, k - 1)
            w = all_permutations(n)
            w = list(w)[rng.randrange(24)]
            B = act(w, A)
            pad = k - A.length
            empty = Subset(n, [])
            spots = sorted(rng.sample(range(A.length + pad), pad))
            ablocks, bblocks = list(A.blocks), list(B.blocks)
            for s in spots:
                ablocks.insert(s, empty)
                bblocks.insert(s, empty)
            Apad = SetDecomposition(n, ablocks)
            Bpad = SetDecomposition(n, bblocks)
            assert Apad.length == k
            assert ispan.contains(row_sum(Bpad, Apad).to_vector())

    def test_cap(self):
        with pytest.raises(ValueError):
            build_I_basis(7, 2)
        with pytest.raises(ValueError):
            verify_row_main(6, 2)


class TestVerifyRowMain:
    def test_small_rational_cases(self):
        rep = verify_row_main(3, 1)
        assert rep.passed, str(rep)
        assert rep.data["rank_I"] == 1 and rep.data["rank_J"] == 5
        rep = verify_row_main(4, 2)
        assert rep.passed, str(rep)
        assert rep.data["rank_I"] == 14 and rep.data["rank_J"] == 10

    def test_edge_k_values(self):
        for n in (2, 3):
            for k in (0, n, n + 1):
                rep = verify_row_main(n, k)
                assert rep.passed, str(rep)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_refuses_no_trials(self, trials):
        # the sampled spanning checks must not pass after zero cases
        with pytest.raises(ValueError, match="trials"):
            verify_row_main(3, 1, trials=trials)

    def test_prime_field_coprime_runs_direct_sum(self):
        rep = verify_row_main(4, 2, GF(7))
        assert rep.passed, str(rep)
        assert all(c.status == "pass" for c in rep.checks if c.name == "direct_sum")

    def test_prime_field_dividing_skips_direct_sum(self):
        rep = verify_row_main(3, 1, GF(2))
        assert rep.passed, str(rep)
        statuses = {c.name: c.status for c in rep.checks}
        assert statuses["direct_sum"] == "skip"

    def test_report_serialization(self):
        rep = verify_row_main(3, 2)
        obj = rep.to_json_obj()
        assert obj["passed"] is True
        assert obj["context"] == {"n": 3, "k": 2, "field": "Q"}
        assert {c["name"] for c in obj["checks"]} >= {"ranks", "mutual_annihilation"}


class TestComplements:
    # every k at n <= 4: J_0 is everything, J_k = 0 for k >= n
    def test_orthogonal_complement(self):
        for n in range(1, 5):
            for k in range(n + 1):
                rep = orthogonal_complement_check(n, k)
                assert rep.passed, str(rep)

    def test_orthogonal_complement_prime_field(self):
        for n in range(1, 5):
            for k in range(n + 1):
                rep = orthogonal_complement_check(n, k, GF(5))
                assert rep.passed, str(rep)


class TestTupleSumSpan:
    def test_small_cases(self):
        for n, k in ((2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 1), (4, 2)):
            rep = tuple_sum_span_check(n, k)
            assert rep.passed, str(rep)

    def test_k_zero_is_group_sum_line(self):
        rep = tuple_sum_span_check(4, 0)
        assert rep.data["rank_tuple_span"] == 1

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            tuple_sum_span_check(4, 3)


class TestTwinAndMixed:
    def test_twin_small(self):
        for n in (2, 3, 4):
            for k in range(0, n + 1):
                rep = twin_check(n, k)
                assert rep.passed, str(rep)

    def test_twin_counts(self):
        rep = twin_check(4, 2)
        assert rep.data["count_Av"] == 14 and rep.data["count_Av_prime"] == 14

    def test_mixed_quotient_rational(self):
        rep = mixed_quotient_check(4, 2, 2)
        assert rep.passed, str(rep)
        expected = len(
            {v.rank() for v in enumerate_av_prime(4, 3)}
            - {v.rank() for v in enumerate_av(4, 3)}
        )
        assert rep.data["quotient_size"] == expected

    def test_mixed_quotient_trivial_cases(self):
        rep = mixed_quotient_check(3, 1, 3)
        assert rep.passed, str(rep)
        rep = mixed_quotient_check(3, 3, 1)
        assert rep.passed, str(rep)
        assert rep.data["rank_sum"] == 6

    def test_mixed_quotient_prime_field(self):
        rep = mixed_quotient_check(3, 1, 1, GF(3))
        assert rep.passed, str(rep)

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_mixed_quotient_ranks_agree_over_q_and_f7(self, n):
        # 7 does not divide n! for n <= 5, so the ranks must agree
        for k in range(1, n):
            for l in range(1, n):
                q = mixed_quotient_check(n, k, l, QQ)
                f7 = mixed_quotient_check(n, k, l, GF(7))
                assert q.passed and f7.passed, (k, l)
                assert q.data == f7.data, (k, l)


class TestCrossChar:
    def test_published_data_point(self):
        assert cross_char_intersection(3, QQ) == 4
        assert cross_char_intersection(3, GF(2)) == 5

    def test_tiny_case(self):
        assert cross_char_intersection(2, QQ) == 2


class TestSignTwisted:
    def test_involution_and_kind(self):
        basis = build_J_basis(3, 1)
        twisted = sign_twisted(basis)
        assert twisted.kind == "sign-twisted-J"
        back = sign_twisted(twisted)
        assert back.kind == "J"
        assert all(a == b for a, b in zip(back.elements, basis.elements))
