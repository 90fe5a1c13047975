"""Tests for the triangular bases and verification suite of the ideals
I_k and J_k."""

import random
from itertools import combinations, product
from math import factorial

import pytest

import snalg.ideals as ideals
from snalg.exactla import GF, QQ, SpanBasis, span_intersection_dim
from snalg.groupalg import AlgebraElement, dot, mul, sign_twist
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
                    brute.insert(row_sum(B, A)._terms)
            assert brute == ispan

    def test_J_span_matches_all_generators(self):
        for n, k in ((3, 1), (4, 2)):
            jspan = build_J_basis(n, k).span()
            brute = SpanBasis(QQ, factorial(n))
            for v in all_permutations(n):
                ve = AlgebraElement.from_perm(v)
                for members in combinations(range(1, n + 1), k + 1):
                    brute.insert(
                        mul(ve, antisymmetrizer(Subset(n, members)))._terms
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
            assert ispan.contains(row_sum(Bpad, Apad)._terms)

    def test_cap(self):
        with pytest.raises(ValueError):
            build_I_basis(7, 2)
        with pytest.raises(ValueError):
            verify_row_main(6, 2)

    @pytest.mark.parametrize("build", [build_I_basis, build_J_basis], ids=["I", "J"])
    def test_cached_span_is_handed_out_as_a_copy(self, build):
        basis = build(4, 2)
        assert build(4, 2) is basis
        first = basis.span()
        rank, rows = first.rank(), first.rows
        assert rank < 24
        for r in range(24):
            first.insert({r: 1})
        assert first.rank() == 24
        again = basis.span()
        assert again is not first
        assert again.rank() == rank and again.rows == rows

    @pytest.mark.parametrize("build", [build_I_basis, build_J_basis], ids=["I", "J"])
    def test_cache_keeps_fields_apart(self, build):
        q, f7 = build(4, 2, QQ), build(4, 2, GF(7))
        assert q is not f7
        assert q.field == QQ and f7.field == GF(7)
        assert all(e.field == QQ for e in q) and all(e.field == GF(7) for e in f7)
        assert q.span().field == QQ and f7.span().field == GF(7)
        assert build(4, 2, GF(7)) is f7 and build(4, 2, QQ) is q


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


def exhaustive_annihilation_witness(ibasis, jbasis):
    """Reference for check (ii): every pair, both orders."""
    for i, ei in zip(ibasis.leaders, ibasis.elements):
        for j, ej in zip(jbasis.leaders, jbasis.elements):
            if not mul(ei, ej).is_zero() or not mul(ej, ei).is_zero():
                return f"I[{i.oln}] vs J[{j.oln}]"
    return None


def exhaustive_orthogonality_witness(ibasis, jbasis):
    """Reference for check (iii): every pair dotted."""
    for i, ei in zip(ibasis.leaders, ibasis.elements):
        for j, ej in zip(jbasis.leaders, jbasis.elements):
            if dot(ei, ej):
                return f"I[{i.oln}] vs J[{j.oln}]"
    return None


def eliminated_completion_rank(basis, added):
    """Reference for check (vi): the rank by elimination."""
    n_fact = factorial(basis.n)
    span = basis.span()
    for r in added:
        vec = [0] * n_fact
        vec[r] = 1
        span.insert(vec)
    return span.rank()


def corrupted(basis, index, extra=None):
    """`basis` with `extra` (default the identity permutation) added to
    element `index`."""
    elements = list(basis.elements)
    if extra is None:
        extra = AlgebraElement.one(basis.n, basis.field)
    elements[index] = elements[index] + extra
    return IdealBasis(basis.n, basis.k, basis.field, basis.kind, elements, basis.leaders)


def with_extra_line(field):
    """A builder of I-bases for (4, 2) with one more element, 1 + s_1, led
    by 4321.  The line of 1 + s_1 is stable under s_1 on both sides and
    killed by a_X, but span(I) plus it is no ideal."""
    build = ideals.build_I_basis
    extra = AlgebraElement.one(4, field) + AlgebraElement.from_perm(Permutation([2, 1, 3, 4]), field)

    def builder(*a, **kw):
        b = build(*a, **kw)
        return IdealBasis(
            4, 2, field, "I", [*b.elements, extra], [*b.leaders, Permutation([4, 3, 2, 1])]
        )

    return builder


def checks_of(rep):
    return {c.name: c for c in rep.checks}


class TestAnnihilationCertificate:
    """Checks (ii), (iii), (iv) and (vi) of `verify_row_main` are decided by
    certificates; their verdicts, notes and witnesses must be those of the
    exhaustive computations."""

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
    def test_verdicts_match_exhaustive_loops(self, field):
        for n in range(1, 5):
            for k in range(n + 2):
                rep = verify_row_main(n, k, field)
                checks = checks_of(rep)
                ib, jb = build_I_basis(n, k, field), build_J_basis(n, k, field)
                want = exhaustive_annihilation_witness(ib, jb)
                assert want is None
                assert checks["mutual_annihilation"].status == "pass"
                assert checks["mutual_annihilation"].witness is None
                assert exhaustive_orthogonality_witness(ib, jb) is None
                assert checks["orthogonality"].status == "pass"
                n_fact = factorial(n)
                av = {v.rank() for v in ib.leaders}
                irank = eliminated_completion_rank(ib, [r for r in range(n_fact) if r not in av])
                jrank = eliminated_completion_rank(jb, av)
                assert checks["quotient_bases"].note == (
                    f"I-completion {irank}, J-completion {jrank}"
                )
                ispan, jspan = ib.span(), jb.span()
                inter = span_intersection_dim(ispan, jspan)
                assert checks["direct_sum"].note == (
                    f"sum rank {ispan.rank() + jspan.rank() - inter}, intersection {inter}"
                )
                assert [c.name for c in rep.checks] == [
                    "ranks",
                    "mutual_annihilation",
                    "orthogonality",
                    "direct_sum",
                    "sampled_row_sums_in_I",
                    "sampled_generators_in_J",
                    "quotient_bases",
                    "antipode_stability",
                    "single_generator",
                ]

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
    def test_certificate_closes_on_true_bases(self, field):
        # the fallback loop is not what makes the real cases pass
        for n in range(2, 5):
            for k in range(1, n):
                ib, jb = build_I_basis(n, k, field), build_J_basis(n, k, field)
                aX = antisymmetrizer(Subset(n, range(1, k + 2)), field)
                assert ideals._closure_witness(ib, ib.span(), "I") is None, (n, k)
                assert all(mul(e, aX).is_zero() and mul(aX, e).is_zero() for e in ib), (n, k)
                assert ideals._closure_witness(jb, jb.span(), "J") is None, (n, k)
                assert ideals._generator_witness(jb, jb.span(), aX) is None, (n, k)

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
    @pytest.mark.parametrize("target", ["I", "I-extra", "aX", "J"])
    def test_mutations_fail_with_exhaustive_witness(self, monkeypatch, field, target):
        n, k = 4, 2
        X = Subset(n, range(1, k + 2))
        # 1 + s_1 is killed by a_X on both sides
        s1 = AlgebraElement.from_perm(Permutation([2, 1, 3, 4]), field)
        extra = AlgebraElement.one(n, field) + s1
        assert mul(extra, antisymmetrizer(X, field)).is_zero()
        assert mul(antisymmetrizer(X, field), extra).is_zero()
        if target == "I":
            # so only part (a) of the certificate can stop an I element
            # plus 1 + s_1
            build = ideals.build_I_basis
            monkeypatch.setattr(
                ideals, "build_I_basis", lambda *a, **kw: corrupted(build(*a, **kw), 5, extra)
            )
        elif target == "I-extra":
            # I plus the line of 1 + s_1, which is stable under s_1 on both
            # sides: only s_2 or s_3 in part (a) can stop it
            with_extra = with_extra_line(field)
            monkeypatch.setattr(ideals, "build_I_basis", with_extra)
            ib = with_extra(n, k, field)
            assert ideals._closure_witness(ib, ib.span(), "I") == (
                "s_2·I[(4, 3, 2, 1)] not in span(I)"
            )
        elif target == "J":
            build = ideals.build_J_basis
            monkeypatch.setattr(
                ideals, "build_J_basis", lambda *a, **kw: corrupted(build(*a, **kw), 3)
            )
        else:
            # symmetrizers in place of antisymmetrizers: J becomes the
            # sign-twist of J_k, still generated by the one corrupted a_X,
            # so only part (b) of the certificate can stop it
            antisym = ideals.antisymmetrizer
            monkeypatch.setattr(
                ideals, "antisymmetrizer", lambda U, fld=QQ: sign_twist(antisym(U, fld))
            )
            # J is built from the patched a_X, not served from the cache
            monkeypatch.setattr(ideals, "_bases", {})
        rep = verify_row_main(n, k, field)
        want = exhaustive_annihilation_witness(
            ideals.build_I_basis(n, k, field), ideals.build_J_basis(n, k, field)
        )
        assert want is not None
        check = checks_of(rep)["mutual_annihilation"]
        assert check.status == "fail"
        assert check.witness == want

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
    def test_direct_sum_falls_back_to_elimination(self, monkeypatch, field):
        # I plus the line of 1 + s_1 is no ideal, so the certificate does
        # not close, and (iv) finds the intersection with J by elimination
        n, k = 4, 2
        with_extra = with_extra_line(field)
        monkeypatch.setattr(ideals, "build_I_basis", with_extra)
        checks = checks_of(verify_row_main(n, k, field))
        ispan, jspan = with_extra(n, k, field).span(), build_J_basis(n, k, field).span()
        inter = span_intersection_dim(ispan, jspan)
        assert inter == 1
        assert checks["direct_sum"].status == "fail"
        assert checks["direct_sum"].note == (
            f"sum rank {ispan.rank() + jspan.rank() - inter}, intersection {inter}"
        )

    @pytest.mark.parametrize(
        "mutation, want",
        [
            ("drop-aX", "a_X not in span(J)"),
            ("corrupt", "J[(1, 2, 4, 3)] is not (vσ)·a_X·σ⁻¹"),
            ("avoider-leader", "J[(4, 3, 2, 1)] is not (vσ)·a_X·σ⁻¹"),
            ("left", "s_3·J[(1, 2, 3, 4)] not in span(J)"),
            ("right", "J[(1, 2, 3, 4)]·s_3 not in span(J)"),
        ],
        ids=["drop-aX", "corrupt", "avoider-leader", "left", "right"],
    )
    def test_generator_witness_names_the_open_part(self, monkeypatch, mutation, want):
        n, k = 4, 2
        jb = build_J_basis(n, k)
        aX = antisymmetrizer(Subset(n, range(1, k + 2)))
        assert jb.leaders[0] == Permutation([1, 2, 3, 4]) and jb.elements[0] == aX
        if mutation == "drop-aX":
            # no other element has the identity in its support
            basis = IdealBasis(n, k, QQ, "J", jb.elements[1:], jb.leaders[1:])
        elif mutation == "corrupt":
            basis = corrupted(jb, 1)
        elif mutation == "avoider-leader":
            # a leader with no increasing 3-subsequence has no witness U
            leaders = list(jb.leaders)
            leaders[3] = Permutation([4, 3, 2, 1])
            basis = IdealBasis(n, k, QQ, "J", jb.elements, leaders)
        else:
            # span{a_X} and span{a_X, s_3·a_X}: translates of a_X, closed
            # under s_1 and s_2, but not under s_3 on the left or the right
            s3 = Permutation([1, 2, 4, 3])
            elements, leaders = [aX], [jb.leaders[0]]
            if mutation == "right":
                elements.append(mul(AlgebraElement.from_perm(s3), aX))
                leaders.append(s3)
            basis = IdealBasis(n, k, QQ, "J", elements, leaders)
        assert ideals._generator_witness(basis, basis.span(), aX) == want
        monkeypatch.setattr(ideals, "build_J_basis", lambda *a, **kw: basis)
        check = checks_of(verify_row_main(n, k))["single_generator"]
        assert check.status == "fail"
        assert check.witness == want
        assert check.note == ""

    def test_orthogonality_falls_back_to_dot_loop(self, monkeypatch):
        # with a J element moved off J, (ii) fails, and (iii) reports the
        # first pair whose dot product is nonzero
        n, k = 4, 2
        build = ideals.build_J_basis
        monkeypatch.setattr(
            ideals, "build_J_basis", lambda *a, **kw: corrupted(build(*a, **kw), 0)
        )
        rep = verify_row_main(n, k)
        checks = checks_of(rep)
        assert checks["mutual_annihilation"].status == "fail"
        want = exhaustive_orthogonality_witness(build_I_basis(n, k), ideals.build_J_basis(n, k))
        assert want is not None
        assert checks["orthogonality"].status == "fail"
        assert checks["orthogonality"].witness == want

    def test_orthogonality_needs_antipode_stability(self, monkeypatch):
        # x = (1 + s_1)·s_2·(1 − s_1) squares to zero, so I = J = span{x}
        # annihilate each other, but S(x) is not a multiple of x and
        # ⟨x, x⟩ = 4
        n, k = 3, 1
        s1 = AlgebraElement.from_perm(Permutation([2, 1, 3]))
        s2 = AlgebraElement.from_perm(Permutation([1, 3, 2]))
        one = AlgebraElement.one(n)
        x = mul(mul(one + s1, s2), one - s1)
        assert mul(x, x).is_zero() and dot(x, x) == 4
        lead = Permutation([3, 2, 1])
        for name, kind in (("build_I_basis", "I"), ("build_J_basis", "J")):
            monkeypatch.setattr(
                ideals, name, lambda *a, kind=kind, **kw: IdealBasis(n, k, QQ, kind, [x], [lead])
            )
        checks = checks_of(verify_row_main(n, k))
        assert checks["mutual_annihilation"].status == "pass"
        assert checks["antipode_stability"].status == "fail"
        assert checks["orthogonality"].status == "fail"
        assert checks["orthogonality"].witness == f"I[{lead.oln}] vs J[{lead.oln}]"

    def test_completion_rank_falls_back_to_elimination(self):
        n, k = 4, 2
        ib = build_I_basis(n, k)
        av = {v.rank() for v in ib.leaders}
        others = [r for r in range(24) if r not in av]
        assert ideals._completion_rank(ib, ib.span(), others) == 24
        # leaders and added ranks short of all n! ranks
        assert ideals._completion_rank(ib, ib.span(), others[1:]) == 23
        # leader coefficient 2: not unitriangular, still full rank over Q
        doubled = IdealBasis(n, k, QQ, "I", [2 * e for e in ib.elements], ib.leaders)
        assert ideals._completion_rank(doubled, doubled.span(), others) == 24
        # a zero element
        zero = AlgebraElement.zero(n)
        holed = IdealBasis(n, k, QQ, "I", [zero, *ib.elements[1:]], ib.leaders)
        assert ideals._completion_rank(holed, holed.span(), others) == 23

    def test_completion_rank_checks_support_side(self):
        # u_1 + u_2 led at rank 1 has support above its leader, so for kind
        # "I" the rows are not triangular, and they repeat a row led at 2
        n = 3
        u = [AlgebraElement.from_perm(w) for w in all_permutations(n)]
        leaders = [Permutation([1, 3, 2]), Permutation([2, 1, 3])]
        basis = IdealBasis(n, 1, QQ, "I", [u[1] + u[2], u[2] + u[1]], leaders)
        assert ideals._completion_rank(basis, basis.span(), [0, 3, 4, 5]) == 5
        # the same rows are triangular the other way round for kind "J",
        # but the row led at 2 then has support below its leader
        basis = IdealBasis(n, 1, QQ, "J", [u[1] + u[2], u[2] + u[1]], leaders)
        assert ideals._completion_rank(basis, basis.span(), [0, 3, 4, 5]) == 5


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
