"""Cold set-up probe: import a batch workload and build its inputs.

``batch.setup_seconds`` times this script in a fresh interpreter, so the
set-up figure covers interpreter start, imports and input validation::

    python3 perfbench/probe.py audit_grid 7
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import batch  # noqa: E402

batch.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
