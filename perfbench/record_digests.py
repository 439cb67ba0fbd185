"""Regenerate ``digests.json``: each workload's reference output per seed.

Run this only when a computation legitimately changes (and say which and
why in CHANGES.md); otherwise the stored digests are the reference every
benchmark run is checked against::

    python3 perfbench/record_digests.py --seeds 0-23
    python3 perfbench/record_digests.py --seeds 5 --workload audit_grid

An output is recorded only if it passes its workload's seed-free
invariants (for ``service_mix``: the warm set's served bytes equal the
library's).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import batch  # noqa: E402
import checks  # noqa: E402
import service_mix  # noqa: E402
from common import workload_runners  # noqa: E402

WORKLOADS = tuple(workload_runners())


def seeds(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def record(name: str, seed: int):
    if name == service_mix.NAME:
        stream = service_mix.TaskStream(seed)
        served = {}
        service_mix.boot(0, stream, served).stop()
        problems = [
            f"audit seed {s}: served bytes differ from the library's"
            for s in stream.warm
            if served[s] != service_mix.library_bytes(s)
        ]
        digest = service_mix.warm_digest(stream, served)
    else:
        workload = batch.WORKLOADS[name]
        digest, problems = workload.fingerprint(workload.op(workload.build(seed)))
    return digest, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds, required=True, help="N or LOW-HIGH")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    table = checks.load_digests()
    refused = 0
    for name in args.workload or WORKLOADS:
        for seed in args.seeds:
            digest, problems = record(name, seed)
            if problems:
                refused += 1
                print(f"{name} seed {seed}: NOT recorded: {problems}", flush=True)
                continue
            table.setdefault(name, {})[str(seed)] = digest
            print(f"{name} seed {seed}: {digest}", flush=True)
            checks.DIGESTS_PATH.write_text(
                json.dumps(table, indent=1, sort_keys=True) + "\n"
            )
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
