"""Job lists of the four benchmark workloads and the checks on their output.

A job is one `snalg.cli.main(argv)` call or one public library call, plus a
check of its output.  `build_jobs` is imported by the child process after
`snalg`, so generating the list is part of the measured set-up time.

Reference values come from outside the code under test wherever that is
cheap: avoider counts by brute force over itertools permutations, the
Δ-algebra rows from the shipped reference table, and the radical dimension
84 at n = 5 from the paper's table.
"""

from __future__ import annotations

import contextlib
import io
import json
from bisect import bisect_left
from itertools import permutations
from math import comb, factorial

WORKLOADS = ("ideal-q", "ideal-fp", "delta", "kappa")


class Job:
    """One call and its check.  `run()` returns None on success or a
    one-line reason for the failure."""

    def __init__(self, label: str, call, check):
        self.label = label
        self._call = call
        self._check = check

    def run(self):
        return self._check(self._call())


def _avoider_count(n: int, m: int) -> int:
    """Permutations of [n] with no increasing subsequence of length m,
    counted by patience sorting, independently of snalg.perm."""
    count = 0
    for w in permutations(range(n)):
        piles: list[int] = []
        for x in w:
            i = bisect_left(piles, x)
            if i == len(piles):
                piles.append(x)
            else:
                piles[i] = x
        count += len(piles) < m
    return count


def _cli(argv):
    """Run the CLI in-process; return (exit code, stdout text)."""
    from snalg.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _cli_job(argv, check_payload=None):
    """A CLI job run with `--format json`.  It fails on a non-zero exit, on
    any report with passed false, and on `check_payload` returning a
    reason."""
    argv = list(argv) + ["--format", "json"]

    def check(result):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        if text.startswith("golden table"):
            payload = text
        else:
            payload = json.loads(text)
            reports = payload if isinstance(payload, list) else [payload]
            for r in reports:
                if isinstance(r, dict) and r.get("passed") is False:
                    return f"report {r.get('report')} did not pass"
        return check_payload(payload) if check_payload else None

    return Job(" ".join(argv[:-2]), lambda: _cli(argv), check)


def _expect(what, got, want):
    return None if got == want else f"{what} = {got}, expected {want}"


def _report_job(label, call, count_key, want_count):
    """A library job returning a Report that must pass and must have run
    exactly `want_count` cases."""

    def check(rep):
        if not rep.passed:
            return f"{rep.name} did not pass"
        return _expect(count_key, rep.data.get(count_key), want_count)

    return Job(label, call, check)


def _ideal_jobs(n, field, quotient_field, seed, skew):
    """ideal-suite for every k, mixed-quotient for k, l in 1..n-1, and the
    annihilators at k = 2.  `skew` is added to one reference value; the
    self-test sets it to show the gate reports a failure."""
    jobs = []
    n_fact = factorial(n)
    for k in range(n + 1):
        av = _avoider_count(n, k + 1) + (skew if k == 0 else 0)

        def ranks(payload, av=av):
            data = payload[0]["data"]
            return _expect("rank_I", data["rank_I"], av) or _expect(
                "rank_J", data["rank_J"], n_fact - av
            )

        argv = ["ideal-suite", "--n", str(n), "--k", str(k), "--seed", str(seed)]
        if field != "Q":
            argv += ["--field", field]
        jobs.append(_cli_job(argv, ranks))
    for k in range(1, n):
        for l in range(1, n):
            argv = ["mixed-quotient", "--n", str(n), "--k", str(k), "--l", str(l)]
            if quotient_field != "Q":
                argv += ["--field", quotient_field]
            jobs.append(_cli_job(argv))
    argv = ["annihilators", "--n", str(n), "--k", "2"]
    if field != "Q":
        argv += ["--field", field]
    jobs.append(_cli_job(argv))
    return jobs


def _cross_char_job(n, want):
    def dims(payload):
        return _expect("intersection_dims", payload["intersection_dims"], want)

    return _cli_job(["cross-char", "--n", str(n)], dims)


def _delta_jobs(stats_n, big_n, seed, trials, pairs, skew):
    from snalg import dalg

    reference = {row["n"]: row for row in dalg.reference_stats()}

    def stats_row(payload):
        want = reference[stats_n]
        for key in ("dim", "center_dim", "radical_dim"):
            reason = _expect(key, payload[key], want[key])
            if reason:
                return reason
        return None

    radical = reference[big_n]["radical_dim"] + skew
    # exhaustive below n = 4, so the expected count is then every pair
    want_pairs = pairs if stats_n > 3 else comb(2 * stats_n, stats_n) ** 2
    return [
        _cli_job(["dalg-stats", "--n", str(stats_n)], stats_row),
        Job(
            f"radical_dim({big_n})",
            lambda: dalg.radical_dim(big_n),
            lambda got: _expect("radical_dim", got, radical),
        ),
        _report_job(
            f"associativity_check({big_n}, trials={trials}, seed={seed})",
            lambda: dalg.associativity_check(
                big_n, mode="sampled", trials=trials, seed=seed
            ),
            "triples",
            trials,
        ),
        _report_job(
            f"quotient_map_check({stats_n}, trials={pairs}, seed={seed})",
            lambda: dalg.quotient_map_check(stats_n, trials=pairs, seed=seed),
            "pairs",
            want_pairs,
        ),
    ]


def _kappa_jobs(n, seed, trials, skew):
    from snalg.rook import golden_minpol_rows

    rows = len(golden_minpol_rows(n))
    # product-fuzz is exhaustive for n <= 4: every same-size quadruple
    same_size = sum(comb(n, k) ** 2 for k in range(n + 1))
    cases = (trials if n > 4 else same_size**2) + skew

    def golden(text):
        return _expect("golden rows", text.strip(), f"golden table match: {rows} rows")

    def fuzz(payload):
        return _expect("cases", payload[0]["data"]["cases"], cases)

    k = n // 2
    return [
        _cli_job(["minpol-table", "--n", str(n), "--golden"], golden),
        _cli_job(
            ["product-fuzz", "--n", str(n), "--trials", str(trials), "--seed", str(seed)],
            fuzz,
        ),
        _cli_job(["counts", "--n", str(n), "--k", str(k), "--l", str(k)]),
    ]


def build_jobs(workload: str, seed: int, tiny: bool = False, skew: int = 0) -> list[Job]:
    """The job list of `workload`.  `tiny` selects the n <= 3 variant used
    by the self-test; `skew` falsifies one reference value."""
    if workload == "ideal-q":
        return _ideal_jobs(3 if tiny else 5, "Q", "Q", seed, skew)
    if workload == "ideal-fp":
        n = 3 if tiny else 5
        jobs = _ideal_jobs(n, "Fp:7", "Fp:3", seed, skew)
        # dim(I_2 ∩ sign-twisted I_2) over Q and F_2: the n = 3 values are
        # the paper's; the n = 4 values were recorded at the seed commit
        want = {"Q": 4, "F2": 5} if tiny else {"Q": 4, "F2": 14}
        return jobs + [_cross_char_job(3 if tiny else 4, want)]
    if workload == "delta":
        if tiny:
            return _delta_jobs(3, 3, seed, 200, 400, skew)
        return _delta_jobs(4, 5, seed, 10000, 500, skew)
    if workload == "kappa":
        return _kappa_jobs(3 if tiny else 6, seed, 20 if tiny else 200, skew)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
