"""One repetition of a workload, in a fresh interpreter.

Started by run.py.  It imports snalg from the checkout's `src/`, builds the
job list, runs the jobs back to back and prints one JSON line: the
monotonic time at which set-up ended, the wall and CPU time of the job
list, the process's peak RSS, the failed jobs, and with `--trace` the
per-layer metrics.  A job that raises counts as failed; the run goes on.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_snalg():
    sys.path.insert(0, SRC)
    import snalg

    if not os.path.abspath(snalg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"snalg was imported from {snalg.__file__}, not from {SRC}")


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--skew", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="gzipped span file to write")
    args = parser.parse_args()

    _import_snalg()
    import workloads

    jobs = workloads.build_jobs(args.workload, args.seed, tiny=args.tiny, skew=args.skew)
    setup_done = time.monotonic()
    result = {"setup_done": setup_done}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    failures = []
    cpu0 = _cpu()
    t0 = time.perf_counter()
    for job in jobs:
        try:
            reason = job.run()
        except Exception:
            traceback.print_exc()
            reason = "raised " + traceback.format_exc().strip().splitlines()[-1]
        if reason is not None:
            failures.append(f"{job.label}: {reason}")
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0

    result.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=len(jobs),
        failures=failures,
    )
    if tracer is not None:
        result["layers"] = tracer.summary(wall)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
