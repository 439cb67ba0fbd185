"""Run ``repro-runner serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve_traced.py SPANS.json serve --port 0

Everything after the spans path is passed to the runner unchanged.  The
spans recorded while serving are written to ``SPANS.json`` when the
server exits (``serve`` exits on SIGINT).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    from repro.analysis.runner import main as runner_main

    tracer = Tracer()
    with tracer.installed():
        try:
            return runner_main(sys.argv[2:])
        finally:
            tracer.dump(Path(sys.argv[1]))


if __name__ == "__main__":
    sys.exit(main())
