"""snalg benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload ideal-q --seed 1 --seconds 27 --trace 0

Every repetition runs the workload's whole job list in a fresh interpreter
(closed loop, one client, no threads), as a user's CLI call would, paying
the lazy table and cache fills each time.  Repetitions go on until the next
one would end after `--seconds`; at least one runs.  All repetitions of a
run use the same inputs.  Set-up time
(interpreter start to snalg imported and job list built) is sampled by
extra set-up-only interpreters as well as by every repetition.

With `--trace 0` the result reports the end-to-end metrics (medians over
repetitions); with `--trace 1` it alternates untraced and traced
repetitions and reports the per-layer metrics (medians over the traced
ones).  A human-readable table goes to stderr; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.

Exit code 0 when the run completed (even if a job failed: that shows as
`correct: false` and in `failed`), 1 when it could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SPANS_DIR = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from tracer import metric_names, unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 5  # set-up-only interpreters per run, after one warm-up
RUN_LIMIT_S = 170  # a run must end within 180 s


class RunError(Exception):
    """The benchmark could not run (as opposed to a job failing)."""


class Runner:
    """Starts child interpreters for one workload and seed."""

    def __init__(self, workload: str, seed: int, tiny: bool, skew: int):
        self.base = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed)]
        if tiny:
            self.base.append("--tiny")
        if skew:
            self.base += ["--skew", str(skew)]
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env["PYTHONHASHSEED"] = "0"
        self.started = time.monotonic()

    def child(self, *extra: str) -> dict:
        """Run one child; return its JSON line plus `setup_s`."""
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise RunError(f"run exceeded {RUN_LIMIT_S} s")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                self.base + list(extra),
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE,
                timeout=remaining,
                text=True,
            )
        except subprocess.TimeoutExpired:
            raise RunError(f"repetition did not finish within {RUN_LIMIT_S} s")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RunError(f"child exited with code {proc.returncode}")
        out = json.loads(lines[-1])
        out["setup_s"] = out["setup_done"] - spawned
        return out


def run(workload: str, seed: int, seconds: float, trace: bool, tiny=False, skew=0) -> dict:
    """One benchmark run; returns the result object."""
    runner = Runner(workload, seed, tiny, skew)
    runner.child("--setup-only")  # warm-up: compiles bytecode, fills the page cache
    setups = [runner.child("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]

    plain, traced = [], []
    begun = time.monotonic()
    longest = 0.0
    while True:
        if trace and len(traced) < len(plain):
            extra = ["--trace"]
            if not tiny:
                os.makedirs(SPANS_DIR, exist_ok=True)
                extra += ["--spans", os.path.join(SPANS_DIR, f"spans-{workload}.jsonl.gz")]
            rep = runner.child(*extra)
            traced.append(rep)
        else:
            rep = runner.child()
            plain.append(rep)
        longest = max(longest, rep["wall_s"] + rep["setup_s"])
        setups.append(rep["setup_s"])
        elapsed = time.monotonic() - begun
        if trace and not traced:
            continue
        if elapsed + longest > seconds:
            break

    reps = plain + traced
    failures = [f for rep in reps for f in rep["failures"]]
    attempted = sum(rep["attempted"] for rep in reps)
    median = statistics.median
    if trace:
        values = {name: median([r["layers"][name] for r in traced]) for name in metric_names()}
        values["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - median(
            [r["wall_s"] for r in plain]
        )
        metrics = {name: {"value": v, "unit": unit(name)} for name, v in values.items()}
    else:
        values = {
            "wall_s": median([r["wall_s"] for r in plain]),
            "cpu_s": median([r["cpu_s"] for r in plain]),
            "setup_s": median(setups),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "_reps": (plain, traced),
        "_failures": failures,
    }


def _print_table(result: dict, workload: str) -> None:
    err = sys.stderr
    plain, traced = result["_reps"]
    print(f"workload {workload}: {len(plain)} untraced and {len(traced)} traced repetitions",
          file=err)
    for rep in plain:
        print(f"  untraced repetition: wall {rep['wall_s']:.4f} s, cpu {rep['cpu_s']:.4f} s",
              file=err)
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}", file=err)
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':40s} {ratio:>14.6g} 1"
          f"  ({result['failed']} of {result['attempted']} jobs)", file=err)
    for failure in result["_failures"]:
        print(f"  FAILED {failure}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="snalg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "snalg", "__init__.py")):
        print(f"error: no snalg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 1
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_table(result, args.workload)
    print(json.dumps({k: v for k, v in result.items() if not k.startswith("_")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
