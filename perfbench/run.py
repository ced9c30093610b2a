"""Command line of the wire benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload commute --seed 1 --seconds 10 --trace 0

Prints the run's settings and every end-to-end metric by name and unit, and
as its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ledger of a separately traced replay.  Exits 1 when the run
fails its correctness check, 2 when the program under ``src/`` cannot be
imported.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for the WAL directories of a run, removed when it ends.
WORK_ROOT = ROOT / ".perfbench_work"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # noqa: F401  (the program under test)
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from perfbench import bench, report
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    trace = bool(args.trace)
    outcome = bench.run(args.workload, args.seed, args.seconds, trace=trace, work_root=WORK_ROOT)
    for line in report.header_lines(outcome, args.seconds, trace) + report.table_lines(outcome, trace):
        print(line)
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": report.metrics(outcome, trace),
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
