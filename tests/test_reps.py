"""Tests for partitions, tableau counts, module actions, and annihilator
verification."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

import pytest

from snalg.exactla import GF, QQ
from snalg.groupalg import AlgebraElement, mul, sign_twist
import snalg.reps as reps
from snalg.ideals import IdealBasis, build_I_basis, build_J_basis
from snalg.perm import (
    Permutation,
    all_permutations,
    compose,
    enumerate_av,
    enumerate_av_prime,
    inverse,
)
from snalg.reps import (
    Partition,
    annihilator_check_N,
    annihilator_check_V,
    count_identity_check,
    entry_action,
    f_lambda,
    partitions,
    place_action,
    specht_annihilation_check,
    syt_count,
    transpose,
    two_sided_count_check,
    young_symmetrizers,
)
from snalg.rook import Subset, nabla
from snalg.setdecomp import antisymmetrizer

import gauss_jordan as gj


class TestPartition:
    def test_validation(self):
        assert Partition([3, 1, 1]).parts == (3, 1, 1)
        with pytest.raises(ValueError):
            Partition([1, 2])
        with pytest.raises(ValueError):
            Partition([2, 0])

    def test_serialization(self):
        lam = Partition([4, 2, 1])
        assert str(lam) == "4+2+1"
        assert str(Partition([])) == "0"

    def test_shape_data(self):
        lam = Partition([3, 2])
        assert lam.n == 5 and lam.length == 2 and lam.first == 3
        assert Partition([]).first == 0

    def test_transpose(self):
        assert transpose(Partition([3, 2])) == Partition([2, 2, 1])
        assert transpose(Partition([4])) == Partition([1, 1, 1, 1])
        for n in range(0, 7):
            for lam in partitions(n):
                assert transpose(transpose(lam)) == lam

    def test_partition_counts(self):
        expected = [1, 1, 2, 3, 5, 7, 11]
        for n, count in enumerate(expected):
            assert len(partitions(n)) == count
        assert [p.parts for p in partitions(4)] == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]


class TestTableauCounts:
    def test_examples(self):
        assert f_lambda(Partition([5])) == 1
        assert f_lambda(Partition([2, 1])) == 2
        assert f_lambda(Partition([2, 2])) == 2
        assert f_lambda(Partition([3, 1])) == 3
        assert f_lambda(Partition([1, 1, 1])) == 1

    def test_hook_formula_matches_backtracking(self):
        for n in range(0, 7):
            for lam in partitions(n):
                assert f_lambda(lam) == syt_count(lam)

    def test_square_sum_is_factorial(self):
        for n in range(0, 7):
            assert sum(f_lambda(lam) ** 2 for lam in partitions(n)) == factorial(n)


class TestCountIdentities:
    def test_first_identity_small(self):
        for n in range(1, 6):
            for k in range(0, n + 2):
                assert count_identity_check(n, k)

    def test_explicit_value(self):
        restricted = sum(
            f_lambda(lam) ** 2 for lam in partitions(4) if lam.length <= 2
        )
        assert restricted == 2**2 + 3**2 + 1**2 == 14

    def test_two_sided_small(self):
        for n in range(1, 5):
            for k in range(0, n + 1):
                for l in range(0, n + 1):
                    assert two_sided_count_check(n, k, l)

    def test_two_sided_example(self):
        assert two_sided_count_check(5, 2, 2)
        both = sum(
            1
            for w in all_permutations(5)
            if not any(
                w(a) < w(b) and w(b) < w(c)
                for a in range(1, 6)
                for b in range(a + 1, 6)
                for c in range(b + 1, 6)
            )
            and not any(
                w(a) > w(b) and w(b) > w(c)
                for a in range(1, 6)
                for b in range(a + 1, 6)
                for c in range(b + 1, 6)
            )
        )
        expected = sum(
            f_lambda(lam) ** 2
            for lam in partitions(5)
            if lam.length <= 2 and lam.first <= 2
        )
        assert both == expected


def _place_images(n, k, perms):
    """Brute-force place action, one image list per w: the letter at place
    i moves to place w(i), so place j of the image reads place w⁻¹(j)."""
    words = list(product(range(k), repeat=n))
    index = {x: r for r, x in enumerate(words)}
    out = []
    for w in perms:
        source = [inverse(w)(j) - 1 for j in range(1, n + 1)]
        out.append([index[tuple(map(x.__getitem__, source))] for x in words])
    return out


def _entry_images(n, k, perms):
    """Brute-force entry action, one image list per w: each letter t
    becomes w(t)."""
    words = list(product(range(1, n + 1), repeat=k))
    index = {x: r for r, x in enumerate(words)}
    out = []
    for w in perms:
        image = (None,) + w.oln
        out.append([index[tuple(map(image.__getitem__, x))] for x in words])
    return out


class TestModuleActions:
    def test_entry_action_single_copy_is_natural(self):
        action = entry_action(4, 1)
        for w in all_permutations(4):
            assert action.index_action(w) == [w(i) - 1 for i in range(1, 5)]

    def test_entry_action_explicit(self):
        action = entry_action(3, 2)
        t = Permutation([2, 1, 3])
        images = action.index_action(t)
        # e_(1,3) has index 0*3+2 = 2 and maps to e_(2,3) with index 5.
        assert images[2] == 5

    def test_place_action_swap(self):
        action = place_action(2, 2)
        images = action.index_action(Permutation([2, 1]))
        # Basis order: (1,1), (1,2), (2,1), (2,2).
        assert images == [0, 2, 1, 3]

    def test_place_action_trivial_for_k1(self):
        action = place_action(3, 1)
        assert action.dim == 1
        for w in all_permutations(3):
            assert action.index_action(w) == [0]

    def test_actions_match_brute_force_word_maps(self):
        # every k with dim <= MODULE_DIM_CAP for n >= 2 (k <= 64 for the
        # place action, k <= 12 for the entry action); n = 1 up to those k
        for n in range(1, 6):
            perms = list(all_permutations(n))
            for k in range(1, 65):
                if k**n <= reps.MODULE_DIM_CAP:
                    action = place_action(n, k)
                    want = _place_images(n, k, perms)
                    assert [action.index_action(w) for w in perms] == want, (n, k)
            for k in range(0, 13):
                if n**k <= reps.MODULE_DIM_CAP:
                    action = entry_action(n, k)
                    want = _entry_images(n, k, perms)
                    assert [action.index_action(w) for w in perms] == want, (n, k)

    def test_homomorphism_exhaustive(self):
        for n in range(1, 5):
            perms = list(all_permutations(n))
            for action in (place_action(n, 2), place_action(n, 3), entry_action(n, 2)):
                for u in perms:
                    iu = action.index_action(u)
                    for v in perms:
                        iuv = action.index_action(compose(u, v))
                        assert [iu[x] for x in action.index_action(v)] == iuv

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            place_action(6, 5)


def _flattened(action, w, field):
    """The 0/1 matrix of ρ(w), flattened row-major to length d²."""
    d = action.dim
    vec = [field.zero] * (d * d)
    for t, s in enumerate(action.index_action(w)):
        vec[s * d + t] = field.one
    return vec


def _matrix(action, a):
    """Σ_w coeff_a(w)·ρ(w) as d rows of field scalars, by brute force."""
    field = a.field
    d = action.dim
    rows = [[field.zero] * d for _ in range(d)]
    for w, c in a.items():
        for t, s in enumerate(action.index_action(w)):
            rows[s][t] = field.normalize(rows[s][t] + c)
    return rows


class TestApplyElement:
    """An element of k[S_n] applied to a tensor module, through the
    predicate ρ(a) = 0."""

    def test_identity_element(self):
        action = place_action(3, 2)
        assert not reps._acts_as_zero(action, AlgebraElement.one(3))
        assert reps._acts_as_zero(action, AlgebraElement.zero(3))
        with pytest.raises(ValueError, match="size mismatch"):
            reps._acts_as_zero(action, AlgebraElement.one(4))

    def test_antisymmetrizer_kills_place_module(self):
        for n, k in ((3, 2), (4, 2), (4, 3)):
            action = place_action(n, k)
            assert reps._acts_as_zero(action, antisymmetrizer(Subset(n, range(1, k + 2))))
            # a word with k distinct letters on k places survives their antisymmetrizer
            assert not reps._acts_as_zero(action, antisymmetrizer(Subset(n, range(1, k + 1))))

    def test_twisted_I_kills_entry_module(self):
        n, k = 4, 2
        action = entry_action(n, k)
        for e in build_I_basis(n, n - k - 1).elements:
            assert reps._acts_as_zero(action, sign_twist(e))
            assert not reps._acts_as_zero(action, e)

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
    def test_matches_sum_of_permutation_matrices(self, field):
        """Random elements of the annihilating ideal, some with one random
        term added, against the brute-force matrix sum; both answers
        occur."""
        rng = random.Random(5)
        n = 4
        perms = list(all_permutations(n))
        cases = (
            (place_action(n, 2), build_J_basis(n, 2, field).elements),
            (entry_action(n, 1), [sign_twist(e) for e in build_I_basis(n, 2, field).elements]),
        )
        seen = set()
        for action, ideal in cases:
            for _ in range(8):
                a = AlgebraElement.zero(n, field)
                for e in rng.sample(ideal, 3):
                    a = a + Fraction(rng.randint(-9, 9), rng.randint(1, 4)) * e
                if rng.random() < 0.5:
                    a = a + AlgebraElement.from_perm(rng.choice(perms), field, rng.randint(1, 6))
                zero = not any(any(row) for row in _matrix(action, a))
                assert reps._acts_as_zero(action, a) == zero
                seen.add(zero)
        assert seen == {True, False}

    def test_entries_reduced_mod_p(self):
        # S_3 acts trivially on V_1^{⊗3}, so 3 + 4·s_1 acts as 7
        action = place_action(3, 1)
        s1 = Permutation([2, 1, 3])
        for field, zero in ((QQ, False), (GF(7), True)):
            a = AlgebraElement(3, field, [(Permutation([1, 2, 3]), 3), (s1, 4)])
            assert reps._acts_as_zero(action, a) == zero


class TestImageRank:
    """`_image_rank`, read on the transpose, against the rank of the
    flattened matrices ρ(w) by dense Gauss–Jordan elimination."""

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=["Q", "F2", "F7"])
    def test_matches_rank_of_flattened_matrices(self, field):
        rng = random.Random(23)
        for n in range(1, 5):
            perms = list(all_permutations(n))
            actions = [(place_action(n, k), k) for k in (2, 3)]
            actions += [(entry_action(n, k), k) for k in (1, 2)]
            for action, k in actions:
                row_sets = [
                    perms,
                    enumerate_av(n, k + 1),
                    enumerate_av_prime(n, k + 1),
                    rng.sample(perms, rng.randint(0, len(perms))),
                ]
                for row_set in row_sets:
                    want = gj.rank(
                        field, [_flattened(action, w, field) for w in row_set], action.dim**2
                    )
                    assert reps._image_rank(action, row_set, field) == want, (action, field)


class TestAnnihilatorChecks:
    def test_V_small_cases(self):
        rep = annihilator_check_V(3, 2)
        assert rep.passed, str(rep)
        assert rep.data["image_rank"] == 5
        rep = annihilator_check_V(4, 1)
        assert rep.passed, str(rep)
        assert rep.data["image_rank"] == 1
        rep = annihilator_check_V(4, 2)
        assert rep.passed, str(rep)
        assert rep.data["image_rank"] == 14

    def test_V_prime_field(self):
        rep = annihilator_check_V(3, 2, GF(5))
        assert rep.passed, str(rep)

    def test_N_small_cases(self):
        rep = annihilator_check_N(3, 1)
        assert rep.passed, str(rep)
        assert rep.data["image_rank"] == 5
        rep = annihilator_check_N(4, 1)
        assert rep.passed, str(rep)
        assert rep.data["image_rank"] == 10
        rep = annihilator_check_N(3, 0)
        assert rep.passed, str(rep)
        assert rep.data["image_rank"] == 1

    def test_N_large_k_skips_ideal(self):
        rep = annihilator_check_N(2, 3)
        assert rep.passed, str(rep)
        statuses = {c.name: c.status for c in rep.checks}
        assert statuses["ideal_annihilates"] == "skip"
        assert rep.data["image_rank"] == 2

    def test_cap(self):
        with pytest.raises(ValueError):
            annihilator_check_V(6, 2)

    def test_row_sets_are_the_avoiders(self, monkeypatch):
        """The rows each check feeds to `_image_rank`, against a brute-force
        filter on the longest monotone subsequences, for every k whose module
        is within the dimension cap."""
        calls = []
        monkeypatch.setattr(
            reps, "_image_rank", lambda action, perms, field: calls.append([w.oln for w in perms]) or 0
        )

        def longest(w, increasing):
            return max(
                size
                for size in range(len(w) + 1)
                for sub in combinations(w, size)
                if all((a < b) == increasing for a, b in zip(sub, sub[1:]))
            )

        for n in range(1, 6):
            perms = list(permutations(range(1, n + 1)))
            lis = {w: longest(w, True) for w in perms}
            lds = {w: longest(w, False) for w in perms}
            for k in range(1, n + 2):
                if k**n <= reps.MODULE_DIM_CAP:
                    calls.clear()
                    annihilator_check_V(n, k)
                    assert calls == [
                        perms,
                        [w for w in perms if lis[w] <= k],
                        [w for w in perms if lds[w] <= k],
                    ], (n, k)
            for k in range(n + 2):
                if n**k <= reps.MODULE_DIM_CAP:
                    calls.clear()
                    annihilator_check_N(n, k)
                    assert calls == [
                        perms,
                        [w for w in perms if lis[w] >= n - k],
                        [w for w in perms if lds[w] >= n - k],
                    ], (n, k)


class TestSpecht:
    def test_young_symmetrizers_trivial_and_sign(self):
        a, b = young_symmetrizers(Partition([3]))
        assert a == nabla(Subset(3), Subset(3)) and b == AlgebraElement.one(3)
        a, b = young_symmetrizers(Partition([1, 1, 1]))
        assert a == AlgebraElement.one(3)
        assert b == antisymmetrizer(Subset(3, [1, 2, 3]))

    def test_small_reports(self):
        for n, k in ((3, 1), (3, 2), (4, 1), (4, 2)):
            rep = specht_annihilation_check(n, k)
            assert rep.passed, str(rep)
            assert len(rep.data["span_ranks"]) == len(partitions(n))

    def test_span_ranks_recorded(self):
        rep = specht_annihilation_check(4, 2)
        ranks = rep.data["span_ranks"]
        assert set(ranks) == {str(lam) for lam in partitions(4)}
        assert all(r >= 1 for r in ranks.values())

    def test_check_names_split_by_length(self):
        rep = specht_annihilation_check(3, 1)
        names = {c.name for c in rep.checks}
        assert "J_kills_3" in names
        assert "I_kills_2+1" in names and "I_kills_1+1+1" in names


def _plus_identity(basis, index):
    """`basis` with the identity permutation added to element `index`."""
    elements = list(basis.elements)
    elements[index] = elements[index] + AlgebraElement.one(basis.n, basis.field)
    return IdealBasis(basis.n, basis.k, basis.field, basis.kind, elements, basis.leaders)


class TestAnnihilatorWitness:
    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
    def test_V_reports_first_corrupted_J_element(self, monkeypatch, field):
        monkeypatch.setattr(reps, "build_J_basis", lambda *a: _plus_identity(build_J_basis(*a), 2))
        rep = annihilator_check_V(4, 2, field)
        check = {c.name: c for c in rep.checks}["ideal_annihilates"]
        leader = build_J_basis(4, 2, field).leaders[2]
        assert check.status == "fail"
        assert check.witness == f"J-basis element for {leader.oln}"

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
    def test_N_reports_first_corrupted_I_element(self, monkeypatch, field):
        monkeypatch.setattr(reps, "build_I_basis", lambda *a: _plus_identity(build_I_basis(*a), 1))
        rep = annihilator_check_N(4, 1, field)
        check = {c.name: c for c in rep.checks}["ideal_annihilates"]
        leader = build_I_basis(4, 2, field).leaders[1]
        assert check.status == "fail"
        assert check.witness == f"twisted I-basis element for {leader.oln}"
