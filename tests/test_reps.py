"""Tests for partitions, tableau counts, module actions, and annihilator
verification."""

import random
from fractions import Fraction
from math import factorial

import pytest

from snalg.exactla import GF, QQ
from snalg.groupalg import AlgebraElement, mul, sign_twist
import snalg.reps as reps
from snalg.ideals import IdealBasis, build_I_basis, build_J_basis
from snalg.perm import Permutation, all_permutations, compose
from snalg.reps import (
    ModuleAction,
    Partition,
    annihilator_check_N,
    annihilator_check_V,
    apply_element,
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
from snalg.rook import Subset
from snalg.setdecomp import antisymmetrizer


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
        assert Partition.from_string("4+2+1") == lam
        assert str(Partition([])) == "0"
        assert Partition.from_string("0") == Partition([])

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


class TestModuleActions:
    def test_entry_action_single_copy_is_natural(self):
        action = entry_action(4, 1)
        for w in all_permutations(4):
            images, signs = action.index_action(w)
            assert signs == [1] * 4
            assert images == [w(i) - 1 for i in range(1, 5)]

    def test_entry_action_explicit(self):
        action = entry_action(3, 2)
        t = Permutation([2, 1, 3])
        images, _ = action.index_action(t)
        # e_(1,3) has index 0*3+2 = 2 and maps to e_(2,3) with index 5.
        assert images[2] == 5

    def test_place_action_swap(self):
        action = place_action(2, 2)
        images, _ = action.index_action(Permutation([2, 1]))
        # Basis order: (1,1), (1,2), (2,1), (2,2).
        assert images == [0, 2, 1, 3]

    def test_place_action_trivial_for_k1(self):
        action = place_action(3, 1)
        assert action.dim == 1
        for w in all_permutations(3):
            assert action.index_action(w) == ([0], [1])

    def test_homomorphism_sampled(self):
        rng = random.Random(3)
        for action in (place_action(4, 2), entry_action(4, 2)):
            perms = list(all_permutations(4))
            for _ in range(20):
                u = perms[rng.randrange(24)]
                v = perms[rng.randrange(24)]
                iu, _ = action.index_action(u)
                iv, _ = action.index_action(v)
                iuv, _ = action.index_action(compose(u, v))
                assert [iu[x] for x in iv] == iuv

    def test_matrix_convention(self):
        action = entry_action(3, 1)
        w = Permutation([2, 3, 1])
        m = action.matrix(w)
        for j in range(3):
            col = [m.rows[i][j] for i in range(3)]
            assert col[w(j + 1) - 1] == QQ.one
            assert sum(1 for x in col if x) == 1

    def test_vectorized_is_int_flattened_matrix(self):
        # the sign-twisted permutation module: odd w give −1 entries,
        # p − 1 over F_p
        action = ModuleAction(3, 3, [[1, 0, 2], [0, 2, 1]], [[-1] * 3, [-1] * 3])
        for field in (QQ, GF(5)):
            for w in all_permutations(3):
                vec = action.vectorized(w, field)
                assert all(type(x) is int for x in vec)
                flat = [x for row in action.matrix(w, field).rows for x in row]
                assert vec == flat
                assert (field.normalize(-1) in vec) == (-1 in action.index_action(w)[1])

    def test_invalid_generators_rejected(self):
        with pytest.raises(ValueError):
            ModuleAction(2, 2, [[0, 0]])
        with pytest.raises(ValueError):
            ModuleAction(2, 2, [[1, 0]], [[1, 2]])
        with pytest.raises(ValueError):
            ModuleAction(3, 2, [[1, 0]])

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            place_action(6, 5)


class TestApplyElement:
    def test_identity_element(self):
        action = place_action(3, 2)
        m = apply_element(action, AlgebraElement.one(3))
        assert m.rows == [
            [QQ.one if i == j else QQ.zero for j in range(8)] for i in range(8)
        ]

    def test_antisymmetrizer_kills_place_module(self):
        for n, k in ((3, 2), (4, 2), (4, 3)):
            action = place_action(n, k)
            U = Subset(n, range(1, k + 2))
            m = apply_element(action, antisymmetrizer(U))
            assert all(not any(row) for row in m.rows)

    def test_twisted_I_kills_entry_module(self):
        n, k = 4, 2
        action = entry_action(n, k)
        for e in build_I_basis(n, n - k - 1).elements:
            m = apply_element(action, sign_twist(e))
            assert all(not any(row) for row in m.rows)

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
    def test_matches_sum_of_permutation_matrices(self, field):
        rng = random.Random(5)
        # the sign-twisted permutation module of S_3 carries −1 entries
        twisted = ModuleAction(3, 3, [[1, 0, 2], [0, 2, 1]], [[-1] * 3, [-1] * 3])
        for action in (place_action(4, 2), entry_action(4, 2), twisted):
            n = action.n
            perms = list(all_permutations(n))
            terms = [
                (rng.choice(perms), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                for _ in range(6)
            ]
            a = AlgebraElement(n, field, terms)
            want = [[field.zero] * action.dim for _ in range(action.dim)]
            for w, c in a.items():
                m = action.matrix(w, field)
                for i in range(action.dim):
                    for j in range(action.dim):
                        want[i][j] = field.normalize(want[i][j] + c * m.rows[i][j])
            assert apply_element(action, a).rows == want

    def test_entries_reduced_mod_p(self):
        # S_3 acts trivially on V_1^{⊗3}, so 3 + 4·s_1 acts as 7
        action = place_action(3, 1)
        s1 = Permutation([2, 1, 3])
        for field, want in ((QQ, 7), (GF(7), 0)):
            a = AlgebraElement(3, field, [(Permutation([1, 2, 3]), 3), (s1, 4)])
            assert apply_element(action, a).rows == [[want]]


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


class TestSpecht:
    def test_young_symmetrizers_trivial_and_sign(self):
        from snalg.groupalg import group_sum

        a, b = young_symmetrizers(Partition([3]))
        assert a == group_sum(3) and b == AlgebraElement.one(3)
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
