"""The repository's benchmark: one command per workload, plain or traced.

    python3 perfbench/run.py --workload audit_grid --seed 1 --seconds 20 --trace 0

Workloads: ``audit_grid``, ``dynamics_churn``, ``fig3_campaign`` and
``service_mix`` (see README.md).  The run prints a human-readable report
and, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  It exits 1 when an output
check fails and 2 when the program's source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import SRC, workload_runners


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    runners = workload_runners()

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=runners)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    runner = runners[args.workload]
    outcome = runner.run(args.workload, args.seed, args.seconds, bool(args.trace))

    print("\n".join(outcome.report), flush=True)
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
