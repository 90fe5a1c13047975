"""Command-line front end: reproduce the reference tables and run the
verification suites with seeded determinism.

Subcommands: minpol-table, ideal-suite, product-fuzz, annihilators,
dalg-stats, counts, mixed-quotient, cross-char.  Exit codes: 0 on success,
1 when a verification fails, 2 on usage errors.  For a fixed command line
(including --seed) the output is byte-identical between runs; timings are
never printed.
"""

from __future__ import annotations

import argparse
import json
import sys

from snalg.dalg import DALG_CAP, stats as dalg_stats
from snalg.exactla import GF, QQ
from snalg.ideals import (
    VERIFY_CAP,
    cross_char_intersection,
    mixed_quotient_check,
    twin_check,
    verify_row_main,
)
from snalg.perm import enumerate_av
from snalg.report import Report
from snalg.reps import (
    ANNIHILATOR_CAP,
    annihilator_check_N,
    annihilator_check_V,
    count_identity_check,
    f_lambda,
    partitions,
    two_sided_count_check,
)
from snalg.rook import (
    MINPOL_TABLE_MAX_N,
    golden_minpol_rows,
    minpol_table,
    product_rule_fuzz,
)

__all__ = ["main"]


def _parse_field(text: str):
    """'Q' for the rationals, 'Fp:<p>' for a prime field."""
    if text == "Q":
        return QQ
    if text.startswith("Fp:"):
        try:
            return GF(int(text[3:]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    raise argparse.ArgumentTypeError(f"field must be 'Q' or 'Fp:<p>', got {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _render_reports(reports: list[Report], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([r.to_json_obj() for r in reports], indent=2)
    if fmt == "tsv":
        lines = ["report\tcheck\tstatus\tnote"]
        for r in reports:
            for c in r.checks:
                lines.append(f"{r.name}\t{c.name}\t{c.status}\t{c.note}")
        return "\n".join(lines)
    return "\n\n".join(str(r) for r in reports)


def _render_table(header: list[str], rows: list[list[str]], fmt: str) -> str:
    """Text or tsv; each caller writes its own JSON."""
    if fmt == "tsv":
        return "\n".join(["\t".join(header)] + ["\t".join(row) for row in rows])
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    out = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        out.append("  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip())
    return "\n".join(out)


def _cap(default: int, n: int, unsafe: bool) -> int:
    return max(default, n) if unsafe else default


def cmd_minpol_table(args) -> tuple[str, int]:
    cap = _cap(MINPOL_TABLE_MAX_N, args.n, args.unsafe_cap)
    computed = [
        (args.n, a, b, c, poly.format_factored())
        for a, b, c, poly in minpol_table(args.n, cap=cap)
    ]
    if args.golden:
        golden = golden_minpol_rows(args.n)
        mismatches = []
        for i in range(max(len(computed), len(golden))):
            got = computed[i] if i < len(computed) else None
            want = golden[i] if i < len(golden) else None
            if got != want:
                mismatches.append(f"row {i}: computed {got} != reference {want}")
        if mismatches:
            return "\n".join(mismatches + ["golden table: MISMATCH"]), 1
        return f"golden table match: {len(computed)} rows", 0
    header = ["n", "a", "b", "c", "minpol"]
    if args.format == "json":
        return json.dumps([dict(zip(header, row)) for row in computed], indent=2), 0
    rows = [[str(x) for x in row] for row in computed]
    return _render_table(header, rows, args.format), 0


def cmd_ideal_suite(args) -> tuple[str, int]:
    cap = _cap(VERIFY_CAP, args.n, args.unsafe_cap)
    reports = [
        verify_row_main(
            args.n, args.k, args.field, trials=args.trials, seed=args.seed, cap=cap
        ),
        twin_check(args.n, args.k, args.field, cap=cap),
    ]
    ok = all(r.passed for r in reports)
    return _render_reports(reports, args.format), 0 if ok else 1


def cmd_product_fuzz(args) -> tuple[str, int]:
    rep = product_rule_fuzz(args.n, trials=args.trials, seed=args.seed, field=args.field)
    return _render_reports([rep], args.format), 0 if rep.passed else 1


def cmd_annihilators(args) -> tuple[str, int]:
    cap = _cap(ANNIHILATOR_CAP, args.n, args.unsafe_cap)
    reports = [
        annihilator_check_V(args.n, args.k, args.field, cap=cap),
        annihilator_check_N(args.n, args.k, args.field, cap=cap),
    ]
    ok = all(r.passed for r in reports)
    return _render_reports(reports, args.format), 0 if ok else 1


def cmd_dalg_stats(args) -> tuple[str, int]:
    cap = _cap(DALG_CAP, args.n, args.unsafe_cap)
    row = dalg_stats(args.n, args.field, cap=cap)
    if args.format == "json":
        return json.dumps(row, indent=2), 0
    header = list(row)
    values = [["-" if row[key] is None else str(row[key]) for key in header]]
    return _render_table(header, values, args.format), 0


def cmd_counts(args) -> tuple[str, int]:
    n, k = args.n, args.k
    rep = Report("counts", n=n, k=k)
    avoiders = len(enumerate_av(n, k + 1))
    by_length = sum(f_lambda(lam) ** 2 for lam in partitions(n) if lam.length <= k)
    rep.add(
        "count_identity",
        count_identity_check(n, k),
        note=f"{avoiders} = {by_length}",
    )
    if args.l is not None:
        l = args.l
        both = sum(
            f_lambda(lam) ** 2
            for lam in partitions(n)
            if lam.length <= k and lam.first <= l
        )
        rep.add(
            "two_sided_count",
            two_sided_count_check(n, k, l),
            note=f"l = {l}: {both} permutations",
        )
    return _render_reports([rep], args.format), 0 if rep.passed else 1


def cmd_mixed_quotient(args) -> tuple[str, int]:
    cap = _cap(VERIFY_CAP, args.n, args.unsafe_cap)
    rep = mixed_quotient_check(args.n, args.k, args.l, args.field, cap=cap)
    return _render_reports([rep], args.format), 0 if rep.passed else 1


def cmd_cross_char(args) -> tuple[str, int]:
    cap = _cap(VERIFY_CAP, args.n, args.unsafe_cap)
    fields = [args.field] if args.field is not None else [QQ, GF(2)]
    dims = {f.name: cross_char_intersection(args.n, f, cap=cap) for f in fields}
    if args.format == "json":
        return json.dumps({"n": args.n, "intersection_dims": dims}, indent=2), 0
    header = ["field", "dim"]
    rows = [[name, str(d)] for name, d in dims.items()]
    return _render_table(header, rows, args.format), 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snalg",
        description="Exact checks for rook sums, row sums, their ideals, "
        "tensor-module annihilators and the abstract Δ-algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, *, n=True, k=None, l=False, field=False, seed=False,
            trials=None, golden=False, unsafe=False, helptext=""):
        # k: the least accepted --k, or None for no --k
        p = sub.add_parser(name, help=helptext)
        if n:
            p.add_argument("--n", type=int, required=True, help="ground-set size")
        if k is not None:
            p.add_argument("--k", type=int, required=True,
                           help=f"block/ideal index, {k}..n")
        if l is True:
            p.add_argument("--l", type=int, required=True,
                           help="second ideal index, 0..n")
        elif l == "optional":
            p.add_argument("--l", type=int, default=None,
                           help="second ideal index, 0..n")
        if field is True:
            p.add_argument(
                "--field", type=_parse_field, default=QQ,
                help="coefficient field: Q or Fp:<p> (default Q)",
            )
        elif field == "optional":
            p.add_argument(
                "--field", type=_parse_field, default=None,
                help="coefficient field: Q or Fp:<p> (default: both Q and Fp:2)",
            )
        if seed:
            p.add_argument("--seed", type=int, default=0, help="PRNG seed")
        if trials is not None:
            p.add_argument(
                "--trials", type=_positive_int, default=trials,
                help=f"sample count (default {trials})",
            )
        if golden:
            p.add_argument(
                "--golden", action="store_true",
                help="diff against the embedded reference table",
            )
        if unsafe:
            p.add_argument(
                "--unsafe-cap", action="store_true",
                help="lift the built-in size caps (may be very slow)",
            )
        p.add_argument(
            "--format", choices=("text", "json", "tsv"), default="text",
            help="output format (default text)",
        )
        p.add_argument("--out", default=None, help="write output to a file")
        p.set_defaults(fn=fn, k_min=k)
        return p

    add("minpol-table", cmd_minpol_table, golden=True, unsafe=True,
        helptext="minimal polynomials of the kappa family")
    add("ideal-suite", cmd_ideal_suite, k=0, field=True, seed=True, trials=25,
        unsafe=True, helptext="row-sum ideal and antisymmetrizer ideal checks")
    add("product-fuzz", cmd_product_fuzz, field=True, seed=True, trials=200,
        helptext="rook-sum product rules against direct multiplication")
    add("annihilators", cmd_annihilators, k=1, field=True, unsafe=True,
        helptext="tensor-module annihilator checks")
    add("dalg-stats", cmd_dalg_stats, field=True, unsafe=True,
        helptext="Δ-algebra dimension/center/radical/unity row")
    add("counts", cmd_counts, k=0, l="optional",
        helptext="avoider counting identities")
    add("mixed-quotient", cmd_mixed_quotient, k=0, l=True, field=True,
        unsafe=True, helptext="mixed two-ideal quotient basis check")
    add("cross-char", cmd_cross_char, field="optional", unsafe=True,
        helptext="intersection dimension that depends on the field")
    return parser


def _check_indices(parser: argparse.ArgumentParser, args) -> None:
    """Reject --k and --l outside their range (k_min..n, 0..n) the way
    argparse rejects a malformed value.  An out-of-range --n is left to
    the subcommand's own cap check."""
    for flag, low in (("k", args.k_min), ("l", 0)):
        value = getattr(args, flag, None)
        if value is not None and not low <= value <= max(args.n, low):
            parser.error(
                f"argument --{flag}: must be in {low}..{args.n} "
                f"for --n {args.n}, got {value}"
            )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _check_indices(parser, args)
    try:
        output, code = args.fn(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = output.rstrip("\n") + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
