"""Tests for the command-line front end: exit codes, output formats,
golden-table diffing, and byte-determinism."""

import json
from pathlib import Path

import pytest

from snalg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# ---------------------------------------------------------------------------
# minpol-table


def test_minpol_table_n1_single_row(capsys):
    code, out = run(capsys, "minpol-table", "--n", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split() == ["1", "0", "0", "0", "(x-1)"]


def test_minpol_table_golden_passes_small(capsys):
    for n in ("1", "2", "3", "4"):
        code, out = run(capsys, "minpol-table", "--n", n, "--golden")
        assert code == 0
        assert out.startswith("golden table match")


def test_minpol_table_golden_mismatch_exits_1(capsys, monkeypatch):
    from snalg import cli

    real = cli.golden_minpol_rows(2)
    # one wrong row, and one reference row missing
    monkeypatch.setattr(cli, "golden_minpol_rows", lambda n: [(*real[0][:4], "x"), real[1]])
    code, out = run(capsys, "minpol-table", "--n", "2", "--golden")
    assert code == 1
    assert out.splitlines() == [
        f"row 0: computed {real[0]} != reference {(*real[0][:4], 'x')}",
        f"row 2: computed {real[2]} != reference None",
        "golden table: MISMATCH",
    ]


def test_minpol_table_json_row_count(capsys):
    code, out = run(capsys, "minpol-table", "--n", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 10
    assert rows[0] == {"n": 4, "a": 0, "b": 0, "c": 0, "minpol": "(x-24)*x"}


def test_minpol_table_tsv_matches_embedded_reference(capsys):
    from importlib import resources

    code, out = run(capsys, "minpol-table", "--n", "5", "--format", "tsv")
    assert code == 0
    text = resources.files("snalg").joinpath("data/minpol_table.tsv").read_text()
    want = [
        line for line in text.strip().splitlines()[1:] if line.startswith("5\t")
    ]
    assert out.strip().splitlines()[1:] == want


def test_minpol_table_cap(capsys):
    code = main(["minpol-table", "--n", "9"])
    capsys.readouterr()
    assert code == 2


# ---------------------------------------------------------------------------
# ideal-suite


def test_ideal_suite_n2_k0(capsys):
    code, out = run(capsys, "ideal-suite", "--n", "2", "--k", "0", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert [r["report"] for r in reports] == ["verify_row_main", "twin_check"]
    assert reports[0]["data"] == {"rank_I": 0, "rank_J": 2}
    assert all(r["passed"] for r in reports)


def test_ideal_suite_failure_prints_the_witness(capsys, monkeypatch):
    # the J-basis corrupted as in test_ideals: the identity added to J[3]
    from snalg import ideals
    from test_ideals import corrupted, exhaustive_annihilation_witness

    build = ideals.build_J_basis
    monkeypatch.setattr(ideals, "build_J_basis", lambda *a, **kw: corrupted(build(*a, **kw), 3))
    witness = exhaustive_annihilation_witness(
        ideals.build_I_basis(4, 2), ideals.build_J_basis(4, 2)
    )
    assert witness is not None
    code, out = run(capsys, "ideal-suite", "--n", "4", "--k", "2")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "verify_row_main(n=4, k=2, field=Q): FAIL"
    assert f"  [fail] mutual_annihilation [witness: {witness}]" in lines
    code, out = run(capsys, "ideal-suite", "--n", "4", "--k", "2", "--format", "json")
    assert code == 1
    report = json.loads(out)[0]
    assert report["passed"] is False
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["mutual_annihilation"] == {
        "name": "mutual_annihilation", "status": "fail", "witness": witness
    }


def test_ideal_suite_prime_field(capsys):
    code, out = run(
        capsys, "ideal-suite", "--n", "3", "--k", "1", "--field", "Fp:7"
    )
    assert code == 0
    assert "direct_sum" in out
    assert "[fail]" not in out


# ---------------------------------------------------------------------------
# other commands


def test_product_fuzz_text(capsys):
    code, out = run(capsys, "product-fuzz", "--n", "3")
    assert code == 0
    assert "rule_a" in out and "rule_b" in out and "rule_c" in out


def test_annihilators_tsv(capsys):
    code, out = run(capsys, "annihilators", "--n", "3", "--k", "2", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "report\tcheck\tstatus\tnote"
    assert all("\tpass\t" in line or line.endswith("pass\t") or "\tskip\t" in line
               for line in lines[1:] if "\t" in line)


def test_dalg_stats_json(capsys):
    code, out = run(capsys, "dalg-stats", "--n", "4", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["dim"] == 70
    assert row["center_dim"] == 5
    assert row["radical_dim"] == 39


def test_counts_example(capsys):
    code, out = run(capsys, "counts", "--n", "5", "--k", "2")
    assert code == 0
    assert "42 = 42" in out


def test_counts_with_l(capsys):
    code, out = run(capsys, "counts", "--n", "4", "--k", "2", "--l", "3")
    assert code == 0
    assert "two_sided_count" in out


def test_mixed_quotient(capsys):
    code, out = run(
        capsys, "mixed-quotient", "--n", "3", "--k", "1", "--l", "2",
        "--field", "Fp:3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)[0]["passed"] is True


def test_cross_char_defaults_to_both_fields(capsys):
    code, out = run(capsys, "cross-char", "--n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 3, "intersection_dims": {"Q": 4, "F2": 5}}


def test_cross_char_single_field(capsys):
    code, out = run(capsys, "cross-char", "--n", "2", "--field", "Q", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 2, "intersection_dims": {"Q": 2}}


# ---------------------------------------------------------------------------
# plumbing


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ideal-suite", "--n", "3"])  # missing --k
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_bad_field_spec_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ideal-suite", "--n", "3", "--k", "1", "--field", "Fp:4"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("p, message", [
    ((2**17 - 1) * (2**61 - 1), "is not prime"),
    (561, "is not prime"),
    ((2**31 - 1) * (2**61 - 1), "is too large"),
    (2**89 - 1, "is too large"),
])
def test_field_spec_beyond_exact_primality_exits_2(capsys, p, message):
    with pytest.raises(SystemExit) as exc:
        main(["dalg-stats", "--n", "2", "--field", f"Fp:{p}"])
    assert exc.value.code == 2
    assert f"error: argument --field: {p} {message}" in capsys.readouterr().err


def test_large_prime_field_spec_runs(capsys):
    p = 2**61 - 1
    assert main(["dalg-stats", "--n", "2", "--field", f"Fp:{p}", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["unity"] is not None


def test_cap_violation_exits_2(capsys):
    # every capped subcommand reports the one n-range message on stderr
    for argv, n, cap in (
        (["ideal-suite", "--n", "6", "--k", "2"], 6, 5),
        (["annihilators", "--n", "6", "--k", "2"], 6, 5),
        (["dalg-stats", "--n", "7"], 7, 5),
        (["product-fuzz", "--n", "9"], 9, 8),
        (["minpol-table", "--n", "7"], 7, 6),
        (["minpol-table", "--n", "0"], 0, 6),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == "", argv
        assert captured.err == f"error: n = {n} outside supported range 1..{cap}\n", argv


def test_out_writes_file_and_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        code = main(
            ["ideal-suite", "--n", "3", "--k", "2", "--seed", "11",
             "--format", "json", "--out", str(target)]
        )
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())[0]["passed"] is True


def test_out_to_a_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    assert main(["counts", "--n", "3", "--k", "1", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(target) in captured.err
    assert "Traceback" not in captured.err


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process: a run of calls with different
    # subcommands, fields and defaults prints what each call prints with a
    # parser of its own
    import snalg.cli as cli

    argvs = [
        ["ideal-suite", "--n", "3", "--k", "1", "--field", "Fp:7", "--seed", "4"],
        ["counts", "--n", "4", "--k", "2", "--l", "3"],
        ["ideal-suite", "--n", "3", "--k", "2", "--format", "json"],
        ["counts", "--n", "4", "--k", "2"],
        ["cross-char", "--n", "3", "--format", "json"],
        ["dalg-stats", "--n", "3", "--field", "Fp:2", "--format", "tsv"],
    ]
    alone = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    parser = cli._build_parser()
    assert [run(capsys, *argv) for argv in argvs] == alone
    assert cli._build_parser() is parser
    # a bad --k after good calls still exits 2
    with pytest.raises(SystemExit) as exc:
        main(["ideal-suite", "--n", "3", "--k", "4"])
    assert exc.value.code == 2
    assert "argument --k: must be in 0..3 for --n 3, got 4" in capsys.readouterr().err
    assert run(capsys, *argvs[0]) == alone[0]


def test_stdout_deterministic(capsys):
    _, first = run(capsys, "counts", "--n", "4", "--k", "2", "--format", "json")
    _, second = run(capsys, "counts", "--n", "4", "--k", "2", "--format", "json")
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["product-fuzz", "--n", "5", "--trials", "-3"],
        ["product-fuzz", "--n", "3", "--trials", "0"],
        ["ideal-suite", "--n", "3", "--k", "1", "--trials", "-1"],
        ["ideal-suite", "--n", "3", "--k", "1", "--trials", "many"],
    ],
)
def test_non_positive_trials_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--trials" in err
    assert "Traceback" not in err


def test_arithmetic_errors_exit_2(capsys, monkeypatch):
    import snalg.cli

    def underdetermined(*args, **kwargs):
        raise ArithmeticError("unity system is underdetermined")

    monkeypatch.setattr(snalg.cli, "dalg_stats", underdetermined)
    assert main(["dalg-stats", "--n", "2"]) == 2
    assert capsys.readouterr().err == "error: unity system is underdetermined\n"

    def division(*args, **kwargs):
        from fractions import Fraction

        from snalg.exactla import GF

        return GF(3).normalize(Fraction(1, 3))

    monkeypatch.setattr(snalg.cli, "product_rule_fuzz", division)
    assert main(["product-fuzz", "--n", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, flag, accepted",
    [
        (["ideal-suite", "--n", "3", "--k", "-1"], "--k", "0..3"),
        (["ideal-suite", "--n", "3", "--k", "4"], "--k", "0..3"),
        (["annihilators", "--n", "3", "--k", "0"], "--k", "1..3"),
        (["counts", "--n", "4", "--k", "5"], "--k", "0..4"),
        (["counts", "--n", "4", "--k", "2", "--l", "-1"], "--l", "0..4"),
        (["mixed-quotient", "--n", "3", "--k", "1", "--l", "4"], "--l", "0..3"),
    ],
)
def test_out_of_range_index_exit_2(capsys, argv, flag, accepted):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be in {accepted}" in err
    assert "pattern length" not in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# byte identity with recorded output: the prime-field elimination path, the
# rook-sum and group-algebra path over Q, and the Δ-algebra unity over Q and
# F_7 (over F_3 there is none)

GUARDED = {
    "product_fuzz_n5_t40_s3": ["product-fuzz", "--n", "5", "--trials", "40", "--seed", "3"],
    "minpol_table_n5_golden": ["minpol-table", "--n", "5", "--golden"],
    "counts_n5_k2_l2": ["counts", "--n", "5", "--k", "2", "--l", "2"],
    "ideal_suite_n4_k2": ["ideal-suite", "--n", "4", "--k", "2"],
    "ideal_suite_n4_k2_fp7": ["ideal-suite", "--n", "4", "--k", "2", "--field", "Fp:7"],
    "ideal_suite_n5_k2": ["ideal-suite", "--n", "5", "--k", "2"],
    "ideal_suite_n5_k2_fp7": ["ideal-suite", "--n", "5", "--k", "2", "--field", "Fp:7"],
    "mixed_quotient_n4_k2_l1_fp3": [
        "mixed-quotient", "--n", "4", "--k", "2", "--l", "1", "--field", "Fp:3"
    ],
    "annihilators_n4_k2_fp7": ["annihilators", "--n", "4", "--k", "2", "--field", "Fp:7"],
    "annihilators_n5_k2": ["annihilators", "--n", "5", "--k", "2"],
    "annihilators_n5_k2_fp7": ["annihilators", "--n", "5", "--k", "2", "--field", "Fp:7"],
    "cross_char_n4": ["cross-char", "--n", "4"],
    "dalg_stats_n4": ["dalg-stats", "--n", "4"],
    "dalg_stats_n4_fp3": ["dalg-stats", "--n", "4", "--field", "Fp:3"],
    "dalg_stats_n4_fp7": ["dalg-stats", "--n", "4", "--field", "Fp:7"],
}


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("name", sorted(GUARDED))
def test_stdout_matches_recorded_bytes(capsys, name, fmt, ext):
    want = (Path(__file__).parent / "data" / f"{name}.{ext}").read_text()
    code, out = run(capsys, *GUARDED[name], "--format", fmt)
    assert code == 0
    assert out == want


def test_ideal_goldens_match_in_reverse_order_with_a_warm_cache(capsys):
    # the ideal bases and their spans are built once per process; a later
    # command reads them warm, so every order must print the same bytes
    names = sorted(n for n in GUARDED if n.startswith(("ideal_suite", "mixed_quotient")))
    cases = [(name, fmt, ext) for name in names for fmt, ext in (("text", "txt"), ("json", "json"))]
    for name, fmt, _ in cases:
        run(capsys, *GUARDED[name], "--format", fmt)
    for name, fmt, ext in reversed(cases):
        want = (Path(__file__).parent / "data" / f"{name}.{ext}").read_text()
        code, out = run(capsys, *GUARDED[name], "--format", fmt)
        assert code == 0
        assert out == want, (name, fmt)
