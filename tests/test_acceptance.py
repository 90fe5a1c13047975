"""Acceptance suite: eleven end-to-end criteria, one printed verdict line
per criterion.  Each criterion re-derives its expected values from scratch
(brute-force enumeration or the embedded reference tables) and enforces its
runtime budget."""

import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

from snalg.cli import main as cli_main
from snalg.dalg import (
    associativity_check,
    center_dim,
    d_dim,
    radical_dim,
    reference_unity,
    unity_find,
)
from snalg.exactla import GF, QQ
from snalg.ideals import (
    build_I_basis,
    build_J_basis,
    cross_char_intersection,
    mixed_quotient_check,
    verify_row_main,
)
from snalg.perm import enumerate_av
from snalg.report import Report
from snalg.reps import (
    annihilator_check_N,
    annihilator_check_V,
    count_identity_check,
    two_sided_count_check,
)
from snalg.rook import (
    Subset,
    all_subsets,
    product_rule_fuzz,
    subsets_of_size,
    triangular_annihilation,
)

TESTS_DIR = Path(__file__).resolve().parent


def _criterion(number: int, label: str, budget_s: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {number:2d} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        print(
            f"criterion {number:2d} ({label}): FAIL "
            f"[{elapsed:.1f}s over budget {budget_s:.0f}s]"
        )
        assert elapsed <= budget_s
    print(f"criterion {number:2d} ({label}): PASS [{elapsed:.1f}s / {budget_s:.0f}s]")


def test_criterion_01_minpol_golden_tables(tmp_path):
    sink = str(tmp_path / "golden.txt")

    def body():
        start = time.perf_counter()
        for n in range(1, 6):
            assert cli_main(["minpol-table", "--n", str(n), "--golden", "--out", sink]) == 0
        assert time.perf_counter() - start <= 10.0
        start = time.perf_counter()
        assert cli_main(["minpol-table", "--n", "6", "--golden", "--out", sink]) == 0
        assert time.perf_counter() - start <= 600.0

    _criterion(1, "minpol golden tables", 610.0, body)


def test_criterion_02_product_rule_equivalence():
    def body():
        for n in range(1, 5):
            rep = product_rule_fuzz(n)
            assert rep.passed and rep.context["mode"] == "exhaustive"
        rep = product_rule_fuzz(5, trials=200, seed=0)
        assert rep.passed and rep.data["cases"] == 200

    _criterion(2, "product-rule equivalence", 300.0, body)


def test_criterion_03_ideal_ranks():
    def body():
        for n in range(1, 6):
            n_fact = factorial(n)
            for k in range(n + 1):
                avoiders = len(enumerate_av(n, k + 1))
                assert build_I_basis(n, k).span().rank() == avoiders
                assert build_J_basis(n, k).span().rank() == n_fact - avoiders
        catalan = [1, 2, 5, 14, 42]
        for n in range(1, 6):
            assert build_I_basis(n, 2).span().rank() == catalan[n - 1]

    _criterion(3, "ideal ranks", 120.0, body)


def test_criterion_04_annihilation_and_decomposition():
    def body():
        for n in range(1, 6):
            for k in range(n + 1):
                rep = verify_row_main(n, k)
                assert rep.passed, rep

    _criterion(4, "mutual annihilation and decomposition", 180.0, body)


def test_criterion_05_triangular_annihilation():
    def body():
        for n in range(1, 6):
            for D in all_subsets(n):
                for B in all_subsets(n):
                    alpha = {
                        C: QQ.one
                        for C in subsets_of_size(n, D.size)
                        if C.mask & B.mask == C.mask
                    }
                    assert triangular_annihilation(D, alpha, mirrored=True).is_zero()
        rng = random.Random(55)
        for n in range(1, 5):
            for D in all_subsets(n):
                for _ in range(100):
                    alpha = {
                        C: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                        for C in subsets_of_size(n, D.size)
                        if rng.random() < 0.7
                    }
                    assert triangular_annihilation(D, alpha).is_zero()

    _criterion(5, "triangular annihilation", 180.0, body)


def test_criterion_06_tensor_annihilators():
    def body():
        for n, k, expected in ((3, 2, 5), (4, 2, 14), (4, 3, 23), (5, 2, 42)):
            assert expected == len(enumerate_av(n, k + 1))
            rep = annihilator_check_V(n, k)
            assert rep.passed, rep
            assert rep.data["image_rank"] == expected
        for n, k in ((3, 1), (4, 1), (4, 2), (5, 2)):
            expected = factorial(n) - len(enumerate_av(n, n - k))
            rep = annihilator_check_N(n, k)
            assert rep.passed, rep
            assert rep.data["image_rank"] == expected

    _criterion(6, "tensor-module annihilators", 300.0, body)


def test_criterion_07_dalg_stats():
    def body():
        assert [d_dim(n) for n in range(2, 6)] == [6, 20, 70, 252]
        assert [center_dim(n) for n in range(2, 6)] == [3, 4, 5, 6]
        assert [radical_dim(n) for n in range(2, 6)] == [3, 5, 39, 84]
        for n in (1, 2, 3):
            assert unity_find(n) == reference_unity(n)
        assert unity_find(2, GF(2)) is None
        for n in (1, 2, 3):
            rep = associativity_check(n)
            assert rep.passed and rep.context["mode"] == "exhaustive"
        for n in (4, 5):
            rep = associativity_check(n, trials=10000, seed=0)
            assert rep.passed and rep.data["triples"] == 10000

    _criterion(7, "Δ-algebra stats", 600.0, body)


def test_criterion_08_counting_identities():
    def body():
        for n in range(1, 7):
            for k in range(n + 1):
                assert count_identity_check(n, k)
        for n in range(1, 6):
            for k in range(n + 1):
                for l in range(n + 1):
                    assert two_sided_count_check(n, k, l)

    _criterion(8, "counting identities", 60.0, body)


def test_criterion_09_mixed_quotient():
    def body():
        for field in (QQ, GF(3)):
            for n in range(1, 6):
                for k in range(n + 1):
                    for l in range(n + 1):
                        rep = mixed_quotient_check(n, k, l, field)
                        assert rep.passed, rep

    _criterion(9, "mixed quotient", 180.0, body)


def test_criterion_10_cross_characteristic():
    def body():
        assert cross_char_intersection(3, QQ) == 4
        assert cross_char_intersection(3, GF(2)) == 5

    _criterion(10, "cross-characteristic intersection", 10.0, body)


def test_criterion_11_property_suites():
    files = [
        str(TESTS_DIR / "test_groupalg.py"),   # antipode, sign-twist, dot identities
        str(TESTS_DIR / "test_rook.py"),       # rook-sum simple properties, pair counts
        str(TESTS_DIR / "test_setdecomp.py"),  # row-sum properties, antisymmetrizers
    ]

    def body():
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *files],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    _criterion(11, "property suites standalone", 120.0, body)
