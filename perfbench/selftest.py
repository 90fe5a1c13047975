"""Self-test of the benchmark on tiny inputs (n <= 3); takes about 20 s.

    python3 perfbench/selftest.py

For every workload it runs the n <= 3 variant untraced and traced, and
checks that the result names every metric with a number and a unit and
that every job passed.  Then it runs each workload once more with one
reference value deliberately wrong and checks that the failure shows in
`failed` (so `fail_ratio` rises above 0): the correctness gate is not
vacuous.  Exit code 0 when every check holds.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import END_TO_END, run  # noqa: E402
from tracer import metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _problems(result: dict, names) -> list[str]:
    out = []
    metrics = result["metrics"]
    if set(metrics) != set(names):
        out.append(f"metric names differ: {sorted(set(metrics) ^ set(names))}")
    for name, m in metrics.items():
        if not isinstance(m.get("value"), (int, float)) or not m.get("unit"):
            out.append(f"{name} lacks a numeric value or a unit: {m}")
    if not result["correct"] or result["failed"]:
        out.append(f"{result['failed']} job(s) failed: {result['_failures']}")
    if result["attempted"] < 1:
        out.append("no job attempted")
    return out


def main() -> int:
    bad = 0
    for workload in WORKLOADS:
        for trace, names in ((False, END_TO_END), (True, metric_names())):
            problems = _problems(run(workload, 1, 0, trace, tiny=True), names)
            label = f"{workload} trace={int(trace)}"
            print(f"{'ok ' if not problems else 'BAD'} {label}: every metric present, no failures")
            for p in problems:
                print(f"      {p}")
            bad += bool(problems)
        skewed = run(workload, 1, 0, False, tiny=True, skew=1)
        ratio = skewed["failed"] / skewed["attempted"]
        gate_ok = ratio > 0 and not skewed["correct"]
        print(f"{'ok ' if gate_ok else 'BAD'} {workload} wrong expectation: "
              f"fail_ratio {ratio:.3g} ({skewed['_failures']})")
        bad += not gate_ok
    print("self-test passed" if not bad else f"self-test FAILED: {bad} check(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
