"""Tests for set decompositions, row-to-row sums, antisymmetrizers and
tuple sums."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from snalg.exactla import GF, QQ
from snalg.groupalg import AlgebraElement, antipode, mul, sign_twist
from snalg.perm import Permutation, all_permutations, compose, identity, inverse
from snalg.rook import Subset, nabla
from snalg.setdecomp import (
    SetDecomposition,
    act,
    antisymmetrizer,
    is_composition,
    random_set_composition,
    row_sum,
    strip_empty,
    tuple_sum,
)


def brute_row_sum(Bdec, Adec, field=QQ):
    """Reference: filter all of S_n by the defining block conditions."""
    n = Adec.n
    total = AlgebraElement.zero(n, field)
    for w in all_permutations(n):
        if all(a.apply(w) == b for a, b in zip(Adec.blocks, Bdec.blocks)):
            total = total + AlgebraElement.from_perm(w, field)
    return total


def filtered_sum(n, keep, field=QQ, sign=False):
    """Reference: the (signed) sum of the w in S_n, as itertools image
    tuples, that pass `keep`; the sign is counted from inversions."""
    terms = []
    for img in permutations(range(1, n + 1)):
        if keep(img):
            inversions = sum(img[i] > img[j] for i in range(n) for j in range(i + 1, n))
            terms.append((Permutation(img), (-1) ** inversions if sign else 1))
    return AlgebraElement(n, field, terms)


class TestSetDecomposition:
    def test_validation(self):
        d = SetDecomposition.from_members(3, [[1, 3], [], [2]])
        assert d.length == 3
        assert str(d) == "({1,3}|{}|{2})"
        with pytest.raises(ValueError):
            SetDecomposition.from_members(3, [[1, 2], [2, 3]])
        with pytest.raises(ValueError):
            SetDecomposition.from_members(3, [[1, 2]])
        with pytest.raises(ValueError):
            SetDecomposition(3, [Subset(4, [1, 2, 3, 4])])

    def test_positional_equality(self):
        d1 = SetDecomposition.from_members(3, [[1, 2], [3]])
        d2 = SetDecomposition.from_members(3, [[3], [1, 2]])
        d3 = SetDecomposition.from_members(3, [[1, 2], [3]])
        assert d1 != d2
        assert d1 == d3
        assert hash(d1) == hash(d3)
        assert d1 != SetDecomposition.from_members(3, [[1, 2], [], [3]])

    def test_is_composition_and_strip(self):
        d = SetDecomposition.from_members(3, [[1, 3], [], [2]])
        assert not is_composition(d)
        assert strip_empty(d) == SetDecomposition.from_members(3, [[1, 3], [2]])
        assert is_composition(strip_empty(d))
        singletons = SetDecomposition.from_members(4, [[1], [2], [3], [4]])
        assert is_composition(singletons)
        assert strip_empty(singletons) == singletons

    def test_act(self):
        d = SetDecomposition.from_members(4, [[1, 3], [2], [4]])
        e = identity(4)
        assert act(e, d) == d
        u = Permutation([2, 3, 1, 4])
        v = Permutation([4, 1, 2, 3])
        assert act(u, act(v, d)) == act(compose(u, v), d)
        assert act(u, d) == SetDecomposition.from_members(4, [[2, 1], [3], [4]])


class TestRowSum:
    def test_worked_example(self):
        A = SetDecomposition.from_members(4, [[3], [1, 2], [4]])
        B = SetDecomposition.from_members(4, [[1], [2, 4], [3]])
        expected = AlgebraElement.from_perm(
            Permutation([2, 4, 1, 3])
        ) + AlgebraElement.from_perm(Permutation([4, 2, 1, 3]))
        assert row_sum(B, A) == expected

    def test_singleton_blocks_give_single_permutation(self):
        rng = random.Random(5)
        for n in range(1, 6):
            perms = list(all_permutations(n))
            u = perms[rng.randrange(len(perms))]
            A = SetDecomposition.from_members(n, [[i] for i in range(1, n + 1)])
            B = SetDecomposition.from_members(n, [[u(i)] for i in range(1, n + 1)])
            assert row_sum(B, A) == AlgebraElement.from_perm(u)

    def test_two_blocks_equal_nabla(self):
        rng = random.Random(7)
        for n in (3, 4, 5):
            for _ in range(5):
                amask = rng.randrange(1 << n)
                bmask = rng.randrange(1 << n)
                A, B = Subset(n, mask=amask), Subset(n, mask=bmask)
                Adec = SetDecomposition(n, [A, A.complement()])
                Bdec = SetDecomposition(n, [B, B.complement()])
                assert row_sum(Bdec, Adec) == nabla(B, A)

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for n in (3, 4):
            for _ in range(10):
                A = random_set_composition(rng, n, 3)
                B = random_set_composition(rng, n, 3)
                if A.length != B.length:
                    continue
                assert row_sum(B, A) == brute_row_sum(B, A)

    def test_size_mismatch_is_zero(self):
        A = SetDecomposition.from_members(4, [[1], [2, 3, 4]])
        B = SetDecomposition.from_members(4, [[1, 2], [3, 4]])
        assert row_sum(B, A).is_zero()

    def test_length_mismatch_raises(self):
        A = SetDecomposition.from_members(3, [[1], [2, 3]])
        B = SetDecomposition.from_members(3, [[1], [2], [3]])
        with pytest.raises(ValueError):
            row_sum(B, A)

    def test_block_permutation_invariance(self):
        rng = random.Random(13)
        n = 4
        for _ in range(8):
            A = random_set_composition(rng, n, 3)
            B = random_set_composition(rng, n, A.length)
            while B.length != A.length:
                B = random_set_composition(rng, n, A.length)
            order = list(range(A.length))
            rng.shuffle(order)
            A2 = SetDecomposition(n, [A.blocks[i] for i in order])
            B2 = SetDecomposition(n, [B.blocks[i] for i in order])
            assert row_sum(B2, A2) == row_sum(B, A)

    def test_aligned_empty_blocks_removable(self):
        A = SetDecomposition.from_members(4, [[2, 3], [], [1, 4]])
        B = SetDecomposition.from_members(4, [[1, 2], [], [3, 4]])
        assert row_sum(B, A) == row_sum(strip_empty(B), strip_empty(A))

    def test_antipode_swaps_arguments(self):
        rng = random.Random(17)
        for n in (3, 4):
            for _ in range(6):
                A = random_set_composition(rng, n, 3)
                B = random_set_composition(rng, n, A.length)
                while B.length != A.length:
                    B = random_set_composition(rng, n, A.length)
                assert antipode(row_sum(B, A)) == row_sum(A, B)

    def test_translation_law(self):
        rng = random.Random(19)
        n = 4
        perms = list(all_permutations(n))
        for _ in range(6):
            A = random_set_composition(rng, n, 3)
            B = random_set_composition(rng, n, A.length)
            while B.length != A.length:
                B = random_set_composition(rng, n, A.length)
            u = perms[rng.randrange(len(perms))]
            v = perms[rng.randrange(len(perms))]
            lhs = mul(
                AlgebraElement.from_perm(u),
                mul(row_sum(B, A), AlgebraElement.from_perm(v)),
            )
            rhs = row_sum(act(u, B), act(inverse(v), A))
            assert lhs == rhs

    def test_prime_field(self):
        A = SetDecomposition.from_members(3, [[1, 2], [3]])
        total = row_sum(A, A, GF(2))
        assert total.field is GF(2)
        assert len(total) == 2


class TestAntisymmetrizer:
    def test_small_supports_give_identity(self):
        for n in (2, 4):
            assert antisymmetrizer(Subset(n, [])) == AlgebraElement.one(n)
            assert antisymmetrizer(Subset(n, [2])) == AlgebraElement.one(n)

    def test_explicit_two_element_case(self):
        a = antisymmetrizer(Subset(3, [1, 3]))
        expected = AlgebraElement.one(3) - AlgebraElement.from_perm(
            Permutation([3, 2, 1])
        )
        assert a == expected

    def test_signed_sum_over_embedded_subgroup(self):
        U = Subset(4, [1, 2, 4])
        a = antisymmetrizer(U)
        assert len(a) == 6
        for w, c in a.items():
            assert all(w(i) == i for i in range(1, 5) if i not in U)
            from snalg.perm import sign

            assert c == Fraction(sign(w))

    def test_every_subset_of_5_matches_signed_filter(self):
        n = 5
        for mask in range(1 << n):
            U = Subset(n, mask=mask)

            def fixes_rest(img):
                return all(img[i - 1] == i for i in range(1, n + 1) if i not in U)

            for field in (QQ, GF(3)):
                want = filtered_sum(n, fixes_rest, field, sign=True)
                assert antisymmetrizer(U, field) == want

    def test_antipode_fixes(self):
        for members in ([1, 2], [2, 3, 4], [1, 2, 3, 4]):
            a = antisymmetrizer(Subset(4, members))
            assert antipode(a) == a

    def test_conjugation_law(self):
        rng = random.Random(23)
        n = 5
        perms = list(all_permutations(n))
        for _ in range(6):
            U = Subset(n, mask=rng.randrange(1 << n))
            v = perms[rng.randrange(len(perms))]
            ve = AlgebraElement.from_perm(v)
            assert mul(ve, antisymmetrizer(U)) == mul(antisymmetrizer(U.apply(v)), ve)

    def test_subset_span_containment(self):
        from snalg.exactla import SpanBasis

        n = 4
        perms = list(all_permutations(n))
        for umembers, vmembers in (
            ([1, 2, 3], [1, 3]),
            ([1, 2, 3, 4], [2, 3, 4]),
            ([2, 4], []),
        ):
            U, V = Subset(n, umembers), Subset(n, vmembers)
            span = SpanBasis(QQ, len(perms))
            av = antisymmetrizer(V)
            for w in perms:
                span.insert(mul(av, AlgebraElement.from_perm(w)).to_vector())
            au = antisymmetrizer(U)
            for w in perms:
                vec = mul(au, AlgebraElement.from_perm(w)).to_vector()
                assert span.contains(vec)


class TestTupleSum:
    def test_forced_identity(self):
        n = 4
        a = (1, 2, 3, 4, 4, 4)
        assert tuple_sum(a, a, n) == AlgebraElement.one(n)

    def test_inconsistent_constraints_vanish(self):
        assert tuple_sum((1, 2), (3, 3), 4).is_zero()

    def test_matches_direct_filter(self):
        rng = random.Random(29)
        n = 4
        for _ in range(10):
            k = rng.randrange(1, 4)
            a = tuple(rng.randrange(1, n + 1) for _ in range(k))
            b = tuple(rng.randrange(1, n + 1) for _ in range(k))
            total = AlgebraElement.zero(n, QQ)
            for w in all_permutations(n):
                if all(w(ai) == bi for ai, bi in zip(a, b)):
                    total = total + AlgebraElement.from_perm(w)
            assert tuple_sum(b, a, n) == total

    def test_repeated_and_colliding_entries_match_filter(self):
        n = 4
        cases = [
            ((3, 3, 4), (1, 1, 2)),  # a repeats with the same image
            ((3, 3), (1, 2)),  # two entries collide on one image
            ((1, 3), (2, 2)),  # a repeats with two images
            ((2, 1, 2, 4), (1, 2, 1, 4)),
        ]
        rng = random.Random(37)
        for _ in range(20):
            k = rng.randrange(1, 6)
            cases.append((
                tuple(rng.randrange(1, 3) for _ in range(k)),
                tuple(rng.randrange(1, 4) for _ in range(k)),
            ))
        for field in (QQ, GF(3)):
            for b, a in cases:
                want = filtered_sum(
                    n, lambda img: all(img[ai - 1] == bi for ai, bi in zip(a, b)), field
                )
                assert tuple_sum(b, a, n, field) == want, (b, a)

    def test_fixed_points_equal_twisted_antisymmetrizer(self):
        n = 5
        for a in ((1,), (2, 4), (1, 3, 5)):
            rest = Subset(n, [i for i in range(1, n + 1) if i not in a])
            assert tuple_sum(a, a, n) == sign_twist(antisymmetrizer(rest))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            tuple_sum((1, 2), (1,), 3)
        with pytest.raises(ValueError):
            tuple_sum((1, 5), (1, 2), 3)


def test_small_boards_beyond_s8():
    """Row and tuple sums enumerate only the board, so n = 9 is cheap when
    the board admits few permutations."""
    n = 9
    u = Permutation([2, 1, 4, 3, 6, 5, 8, 9, 7])
    singletons = SetDecomposition.from_members(n, [[i] for i in range(1, n + 1)])
    assert row_sum(act(u, singletons), singletons) == AlgebraElement.from_perm(u)
    a = tuple(range(1, n + 1))
    assert tuple_sum(tuple(u(i) for i in a), a, n, GF(5)) == AlgebraElement.from_perm(u, GF(5))
    swap = Permutation([2, 1, 3, 4, 5, 6, 7, 8, 9])
    assert tuple_sum(a[2:], a[2:], n) == AlgebraElement(
        n, QQ, [(identity(n), 1), (swap, 1)]
    )


class TestRandomComposition:
    def test_yields_compositions(self):
        rng = random.Random(31)
        for _ in range(20):
            d = random_set_composition(rng, 5, 3)
            assert is_composition(d)
            assert d.length <= 3
            assert Subset(5, [i for b in d.blocks for i in b.members]) == Subset.full(5)
