"""Tests for the triangular bases and verification suite of the ideals
I_k and J_k."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import factorial

import pytest

import snalg.ideals as ideals
from snalg.exactla import GF, QQ, SpanBasis
from snalg.groupalg import AlgebraElement, antipode, dot, mul, sign_twist
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

import span_elimination


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


def intersection_dim(s, t):
    """Reference: dim(s ∩ t) = rank s + rank t − rank(s + t), the sum by
    elimination."""
    return s.rank() + t.rank() - span_elimination.sum_rank(s, t)


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
                inter = intersection_dim(ispan, jspan)
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
                assert ideals._closure_witness(ib, "I") is None, (n, k)
                assert all(mul(e, aX).is_zero() and mul(aX, e).is_zero() for e in ib), (n, k)
                assert ideals._closure_witness(jb, "J") is None, (n, k)
                assert ideals._generator_witness(jb, aX) is None, (n, k)

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
            assert ideals._closure_witness(ib, "I") == (
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
        inter = intersection_dim(ispan, jspan)
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
        assert ideals._generator_witness(basis, aX) == want
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
        assert ideals._completion_rank(ib, others) == 24
        # leaders and added ranks short of all n! ranks
        assert ideals._completion_rank(ib, others[1:]) == 23
        # leader coefficient 2: not unitriangular, still full rank over Q
        doubled = IdealBasis(n, k, QQ, "I", [2 * e for e in ib.elements], ib.leaders)
        assert ideals._completion_rank(doubled, others) == 24
        # a zero element
        zero = AlgebraElement.zero(n)
        holed = IdealBasis(n, k, QQ, "I", [zero, *ib.elements[1:]], ib.leaders)
        assert ideals._completion_rank(holed, others) == 23

    def test_completion_rank_checks_support_side(self):
        # u_1 + u_2 led at rank 1 has support above its leader, so for kind
        # "I" the rows are not triangular, and they repeat a row led at 2
        n = 3
        u = [AlgebraElement.from_perm(w) for w in all_permutations(n)]
        leaders = [Permutation([1, 3, 2]), Permutation([2, 1, 3])]
        basis = IdealBasis(n, 1, QQ, "I", [u[1] + u[2], u[2] + u[1]], leaders)
        assert ideals._completion_rank(basis, [0, 3, 4, 5]) == 5
        # the same rows are triangular the other way round for kind "J",
        # but the row led at 2 then has support below its leader
        basis = IdealBasis(n, 1, QQ, "J", [u[1] + u[2], u[2] + u[1]], leaders)
        assert ideals._completion_rank(basis, [0, 3, 4, 5]) == 5


FIELDS = [QQ, GF(2), GF(3), GF(7)]
FIELD_IDS = ["Q", "Fp2", "Fp3", "Fp7"]


def spy_products(monkeypatch):
    """Record every (a, b) that `ideals` multiplies, in order."""
    products = []
    real = ideals.mul
    monkeypatch.setattr(ideals, "mul", lambda a, b: products.append((a, b)) or real(a, b))
    return products


def antipode_stable(basis, span):
    """Check (vii) of `verify_row_main` for one basis."""
    return all(span.contains(antipode(e)._terms) for e in basis)


def left_closed_by_two(basis, span):
    """Reference: s_1·e and c·e in `span` for every element e, with
    c = (1 2 … n)."""
    n, field = basis.n, basis.field
    gens = [Permutation([2, 1, *range(3, n + 1)]), Permutation([*range(2, n + 1), 1])]
    return all(
        span.contains(mul(AlgebraElement.from_perm(g, field), e)._terms)
        for g in gens
        for e in basis
    )


def mutated_bases(field):
    """The mutated bases of the tests above, and a left ideal, at
    (n, k) = (4, 2), by name, with the kind the closure witness names them
    by."""
    n, k = 4, 2
    ib, jb = build_I_basis(n, k, field), build_J_basis(n, k, field)
    aX = jb.elements[0]
    s3_perm = Permutation([1, 2, 4, 3])
    s3 = AlgebraElement.from_perm(s3_perm, field)
    s1 = AlgebraElement.from_perm(Permutation([2, 1, 3, 4]), field)
    leaders = list(jb.leaders)
    leaders[3] = Permutation([4, 3, 2, 1])
    # 𝒜·(1 + s_1) is closed on the left only
    cosets = [w for w in all_permutations(n) if w(1) < w(2)]
    one_s1 = AlgebraElement.one(n, field) + s1
    left_ideal = [mul(AlgebraElement.from_perm(w, field), one_s1) for w in cosets]
    return {
        "left-ideal": (IdealBasis(n, k, field, "I", left_ideal, cosets), "I"),
        "I": (corrupted(ib, 5, one_s1), "I"),
        "I-extra": (with_extra_line(field)(n, k, field), "I"),
        "J": (corrupted(jb, 3), "J"),
        "aX": (sign_twisted(jb), "J"),
        "drop-aX": (IdealBasis(n, k, field, "J", jb.elements[1:], jb.leaders[1:]), "J"),
        "corrupt": (corrupted(jb, 1), "J"),
        "avoider-leader": (IdealBasis(n, k, field, "J", jb.elements, leaders), "J"),
        "left": (IdealBasis(n, k, field, "J", [aX], jb.leaders[:1]), "J"),
        "right": (IdealBasis(n, k, field, "J", [aX, mul(s3, aX)], [jb.leaders[0], s3_perm]), "J"),
    }


class TestOneSidedClosure:
    """Where the antipode preserves a span, its two-sided closure is
    decided by left products with s_1 and the n-cycle alone."""

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
    def test_true_bases_take_two_left_products_per_element(self, monkeypatch, field):
        n, k = 4, 2
        ib, jb = build_I_basis(n, k, field), build_J_basis(n, k, field)
        elements = [*ib.elements, *jb.elements]
        aX = antisymmetrizer(Subset(n, range(1, k + 2)), field)
        s1, s2, s3, c = (
            AlgebraElement.from_perm(Permutation(g), field)
            for g in ([2, 1, 3, 4], [1, 3, 2, 4], [1, 2, 4, 3], [2, 3, 4, 1])
        )
        products = spy_products(monkeypatch)
        assert verify_row_main(n, k, field).passed

        def of_basis(x, family=elements):
            return any(x is e for e in family)

        assert not [(a, b) for a, b in products if of_basis(a) and b in (s1, s2, s3)]
        assert not [(a, b) for a, b in products if a == aX and of_basis(b, ib.elements)]
        left = [(a, b) for a, b in products if len(a) == 1 and of_basis(b)]
        assert len(left) == 2 * len(elements)
        for e in elements:
            assert [a for a, b in left if b is e] == [s1, c]

    @pytest.mark.parametrize("stable", [False, True], ids=["off-J", "negated"])
    def test_a_X_times_e_is_multiplied_unless_the_antipode_fixes_a_X(self, monkeypatch, stable):
        # an antipode that moves a_X off span(J) fails (vii), so the closure
        # is scanned on both sides; one that negates a_X keeps (vii) but
        # breaks S(a_X) = a_X; either way a_X·e is multiplied out
        n, k = 4, 2
        ib, jb = build_I_basis(n, k), build_J_basis(n, k)
        aX, one = jb.elements[0], AlgebraElement.one(n)
        real = ideals.antipode
        moved = (lambda x: -real(x)) if stable else (lambda x: real(x) + one)
        monkeypatch.setattr(ideals, "antipode", lambda x: moved(x) if x == aX else real(x))
        products = spy_products(monkeypatch)
        checks = checks_of(verify_row_main(n, k))
        assert checks["antipode_stability"].status == ("pass" if stable else "fail")
        assert checks["mutual_annihilation"].status == "pass"
        s3 = AlgebraElement.from_perm(Permutation([1, 2, 4, 3]))
        for e in ib:
            assert any(a == aX and b is e for a, b in products)
            assert any(a is e and b == s3 for a, b in products) is not stable

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_verdict_matches_two_sided_scan(self, field):
        for n in range(1, 5):
            for k in range(n + 2):
                ib, jb = build_I_basis(n, k, field), build_J_basis(n, k, field)
                for basis, name in ((ib, "I"), (jb, "J")):
                    span = basis.span()
                    assert antipode_stable(basis, span), (n, k, name)
                    assert ideals._closure_witness(basis, name) is None, (n, k, name)
                    assert ideals._closure_witness(basis, name, True) is None, (n, k, name)
                    if n > 1:
                        assert left_closed_by_two(basis, span), (n, k, name)
        open_stable = []
        for label, (basis, name) in mutated_bases(field).items():
            span = basis.span()
            stable = antipode_stable(basis, span)
            scan = ideals._closure_witness(basis, name)
            assert ideals._closure_witness(basis, name, stable) == scan, label
            if stable:
                assert left_closed_by_two(basis, span) == (scan is None), label
                if scan is not None:
                    open_stable.append(label)
            elif label == "left-ideal":
                # closed on the left, open on the right: the antipode is
                # what the one-sided certificate needs
                assert left_closed_by_two(basis, span)
                assert scan == "I[(1, 2, 3, 4)]·s_2 not in span(I)"
        # these open spans are fixed by the antipode (the line of 1 + s_1,
        # the line of a_X, ...), so they reach the fallback scan
        assert open_stable == ["I", "I-extra", "drop-aX", "corrupt", "left"]

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("n, per_element", [(1, 0), (2, 1)])
    def test_small_groups(self, monkeypatch, field, n, per_element):
        # S_1 is trivial, so nothing is multiplied; in S_2, s_1 = c
        products = spy_products(monkeypatch)
        for k in range(n + 2):
            assert verify_row_main(n, k, field).passed
            ib, jb = build_I_basis(n, k, field), build_J_basis(n, k, field)
            for basis, name in ((ib, "I"), (jb, "J")):
                products.clear()
                assert ideals._closure_witness(basis, name, True) is None
                assert len(products) == per_element * len(basis)
        # span{1} in k[S_2] is fixed by the antipode but is no ideal
        one = IdealBasis(2, 1, field, "I", [AlgebraElement.one(2, field)], [Permutation([1, 2])])
        witness = ideals._closure_witness(one, "I", True)
        assert witness == "s_1·I[(1, 2)] not in span(I)"


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


class TestIdealBasisInput:
    def test_leaders_and_elements_must_pair_up(self):
        ib = build_I_basis(4, 2)
        with pytest.raises(ValueError, match="14 elements, 13 leaders"):
            IdealBasis(4, 2, QQ, "I", ib.elements, ib.leaders[1:])
        with pytest.raises(ValueError, match="13 elements, 14 leaders"):
            IdealBasis(4, 2, QQ, "I", ib.elements[1:], ib.leaders)


def true_bases(n, k, field):
    """I_k, J_k and their sign twists."""
    ib, jb = build_I_basis(n, k, field), build_J_basis(n, k, field)
    return [ib, jb, sign_twisted(ib), sign_twisted(jb)]


def minus(v, w):
    return {j: v.get(j, 0) - w.get(j, 0) for j in {*v, *w}}


def probe_vectors(basis, rng):
    """The elements, every unit vector, s_1·e for every element e, and ten
    seeded random integer vectors."""
    n, n_fact = basis.n, factorial(basis.n)
    vectors = [e._terms for e in basis] + [{r: 1} for r in range(n_fact)]
    if n > 1:
        s1 = AlgebraElement.from_perm(Permutation([2, 1, *range(3, n + 1)]), basis.field)
        vectors += [mul(s1, e)._terms for e in basis]
    for _ in range(10):
        support = rng.sample(range(n_fact), min(n_fact, rng.randint(1, 6)))
        vectors.append({r: rng.choice([-3, -2, -1, 1, 2, 3]) for r in support})
    return vectors


def assert_residues_agree(basis, span, vectors):
    """reduce, contains and rank of `basis` against its reduced span: the
    residue is empty exactly on the span, differs from v by a span element,
    and vanishes at every leader (or pivot)."""
    assert basis.rank() == span.rank()
    rows = basis._leading()
    leads = set(rows) if rows is not None else set(span.pivots)
    for v in vectors:
        res = basis.reduce(v)
        inside = span.contains(v)
        assert basis.contains(v) == inside == (not res), v
        assert leads.isdisjoint(res), v
        assert span.contains(minus(v, res)), v


class TestResidue:
    """`IdealBasis.reduce`, `contains` and `rank` read off the triangular
    leaders must answer as the reduced span does."""

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_true_bases_agree_with_reduced_span(self, field):
        rng = random.Random(2929)
        p = field.characteristic
        for n in range(1, 6):
            for k in range(n + 1):
                for basis in true_bases(n, k, field):
                    rows = basis._leading()
                    assert rows is not None, (n, k, basis.kind)
                    assert basis.rank() == len(basis)
                    assert all(basis.contains(e._terms) for e in basis)
                    # a unit vector off the leaders is its own residue
                    for r in range(factorial(n)):
                        if r not in rows:
                            assert basis.reduce({r: 1}) == {r: 1}
                            assert basis.reduce({r: -1}) == {r: p - 1 if p else -1}
                    assert_residues_agree(basis, basis.span(), probe_vectors(basis, rng))

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_rank_rule_is_the_rank_of_the_union(self, field):
        for n in range(1, 6):
            n_fact = factorial(n)
            for k in range(n + 1):
                ib = build_I_basis(n, k, field)
                pairs = [(ib, build_J_basis(n, k, field)), (ib, sign_twisted(ib))]
                pairs += [
                    (ib, sign_twisted(build_J_basis(n, l, field))) for l in range(n + 1)
                ]
                for a, b in pairs:
                    base, residues = ideals._sum(a, b)
                    assert base is (a if len(a) >= len(b) else b)
                    want = a.span()
                    for e in b:
                        want.insert(e._terms)
                    assert base.rank() + residues.rank() == want.rank(), (n, k, b.kind)
                # the completion by every second rank, or none
                for added in (range(0, n_fact, 2), ()):
                    want = ib.span()
                    for r in added:
                        want.insert({r: 1})
                    assert ideals._completion_rank(ib, added) == want.rank(), (n, k)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_checks_match_elimination(self, field):
        for n in range(1, 6):
            for k in range(n + 1):
                new, old = twin_check(n, k, field), span_elimination.twin_check(n, k, field)
                assert new.to_json_obj() == old.to_json_obj(), (n, k)
                for l in range(n + 1):
                    new = mixed_quotient_check(n, k, l, field)
                    old = span_elimination.mixed_quotient_check(n, k, l, field)
                    assert new.to_json_obj() == old.to_json_obj(), (n, k, l)
            want = span_elimination.cross_char_intersection(n, field)
            assert cross_char_intersection(n, field) == want, n

    def test_checks_match_elimination_at_n6(self):
        for k, l, field, rank in [
            (2, 2, QQ, 588),
            (3, 2, GF(7), 613),
            (4, 1, QQ, 719),
            (2, 4, QQ, 132),
            (1, 3, GF(3), 207),
        ]:
            new = mixed_quotient_check(6, k, l, field, cap=6)
            old = span_elimination.mixed_quotient_check(6, k, l, field, cap=6)
            assert new.to_json_obj() == old.to_json_obj(), (k, l)
            assert new.passed and new.data["rank_sum"] == rank
        # the twin checks of the ideal-suite steps
        for k, field in [(2, QQ), (2, GF(7)), (2, GF(2)), (3, QQ), (4, QQ)]:
            new = twin_check(6, k, field, cap=6)
            old = span_elimination.twin_check(6, k, field, cap=6)
            assert new.to_json_obj() == old.to_json_obj(), (k, field)
        for field, dim in ((QQ, 0), (GF(2), 132)):
            assert cross_char_intersection(6, field, cap=6) == dim
            assert span_elimination.cross_char_intersection(6, field, cap=6) == dim

    def test_the_smaller_family_is_reduced(self, monkeypatch):
        # every residue is taken modulo the larger family; in twin_check the
        # unit vectors are reduced modulo I_k only when they are fewer
        calls = []
        real = IdealBasis.reduce
        monkeypatch.setattr(
            IdealBasis, "reduce", lambda self, v: calls.append(len(self)) or real(self, v)
        )
        n = 5
        sides = set()
        for k in range(n + 1):
            size_I = len(build_I_basis(n, k))
            for l in range(n + 1):
                size_J = len(build_J_basis(n, l))
                calls.clear()
                rep = mixed_quotient_check(n, k, l)
                # the smaller family's elements, then the completion's units
                reduced = min(size_I, size_J) + rep.data["quotient_size"]
                assert calls == [max(size_I, size_J)] * reduced, (k, l)
                sides.add(size_I > size_J)
            calls.clear()
            twin_check(n, k)
            units = 120 - size_I
            assert calls == ([size_I] * units if size_I >= units else []), k
            sides.add(size_I >= units)
        assert sides == {False, True}

    def test_true_bases_reduce_no_span(self, monkeypatch):
        # the certified path and the three rank checks read only the leaders
        reduced = []
        real = IdealBasis._reduced
        monkeypatch.setattr(
            IdealBasis, "_reduced", lambda self: reduced.append(self) or real(self)
        )
        for field in (QQ, GF(2), GF(7)):
            for n in range(1, 6):
                for k in range(n + 1):
                    assert verify_row_main(n, k, field).passed, (n, k)
                    twin_check(n, k, field)
                    mixed_quotient_check(n, k, n - k, field)
                cross_char_intersection(n, field)
        assert reduced == []

    @pytest.mark.parametrize(
        "field, mutation",
        [
            (field, mutation)
            for field in (QQ, GF(7))
            for mutation in ("coefficient-2", "repeated-leader", "support-beyond")
        ]
        # over F_p every element has denominator 1
        + [(QQ, "denominator")],
        ids=lambda x: getattr(x, "name", x),
    )
    def test_other_bases_take_the_reduced_span(self, monkeypatch, field, mutation):
        n, k = 4, 2
        ib, jb = build_I_basis(n, k, field), build_J_basis(n, k, field)
        elements, leaders = list(ib.elements), list(ib.leaders)
        if mutation == "coefficient-2":
            elements[3] = 2 * elements[3]
        elif mutation == "repeated-leader":
            elements.append(elements[5])
            leaders.append(leaders[5])
        elif mutation == "support-beyond":
            # the last permutation, 4321, lies above every other leader
            elements[0] = elements[0] + AlgebraElement.from_perm(Permutation([4, 3, 2, 1]), field)
        else:
            elements[3] = Fraction(1, 2) * elements[3]
            assert elements[3]._den == 2
        basis = IdealBasis(n, k, field, "I", elements, leaders)
        assert basis._leading() is None
        assert_residues_agree(basis, basis.span(), probe_vectors(basis, random.Random(7)))

        def patched(*args, **kwargs):
            return basis

        monkeypatch.setattr(ideals, "build_I_basis", patched)
        monkeypatch.setattr(span_elimination, "build_I_basis", patched)
        reports = [
            verify_row_main(n, k, field).to_json_obj(),
            twin_check(n, k, field).to_json_obj(),
            mixed_quotient_check(n, k, 1, field).to_json_obj(),
        ]
        # the reference: every answer from the reduced span, as for any basis
        # before the leaders were read
        assert reports[1] == span_elimination.twin_check(n, k, field).to_json_obj()
        assert reports[2] == span_elimination.mixed_quotient_check(n, k, 1, field).to_json_obj()
        monkeypatch.setattr(IdealBasis, "_leading", lambda self: None)
        assert reports[0] == verify_row_main(n, k, field).to_json_obj()
        checks = {c["name"]: c for c in reports[0]["checks"]}
        if mutation == "repeated-leader":
            assert checks["ranks"]["status"] == "fail"
            assert checks["ranks"]["note"] == "I: 14 (expect 14), J: 10 (expect 10)"
        elif mutation != "support-beyond":
            # the same span as I_2
            monkeypatch.undo()
            assert reports[0] == verify_row_main(n, k, field).to_json_obj()
