"""Paths, the end-to-end metric table and the result every workload returns."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Dict, List, Mapping, Tuple

import checks
from layers import EXACT_COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for traces, logs and stored counts (ignored by git).
WORK = HERE / "_work"

#: ``(name, unit)`` of the end-to-end metrics every plain run reports.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

#: How many times a plain run sets up, to report the median set-up time.
SETUP_REPEATS = 3


def workload_runners() -> Dict[str, ModuleType]:
    """Every workload's name and the module whose ``run`` measures it.

    Both modules import the program, so ``SRC`` must be on ``sys.path``
    before this is called.
    """
    import batch
    import service_mix

    return {**dict.fromkeys(batch.WORKLOADS, batch), service_mix.NAME: service_mix}


@dataclass
class Outcome:
    """One run's verdict, metrics and human-readable report lines."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    report: List[str] = field(default_factory=list)


def peak_rss_mb(pid: object = "self") -> float:
    """A live process's peak resident set size (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for row in handle:
            if row.startswith("VmHWM:"):
                return int(row.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def repeated_counts(
    workload: str, seed: int, seconds: int, runs: List[Mapping[str, float]]
) -> List[str]:
    """The exact counts must agree across this run's operations and with
    every earlier traced run of the same program at the same seed."""
    counts = [{name: run.get(name, 0.0) for name in EXACT_COUNTS} for run in runs]
    problems = [
        f"non-deterministic: operation {index} counted {other}, operation 0 {counts[0]}"
        for index, other in enumerate(counts[1:], start=1)
        if other != counts[0]
    ]
    key = f"{workload}-seed{seed}-s{seconds}-{checks.source_hash(SRC)}.json"
    return problems + checks.repeat_check(WORK / "counts" / key, counts[0])


def line(name: str, value: object, unit: str = "", note: str = "") -> str:
    """One aligned report line: name, value, unit and an optional note."""
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<32} {text:>14} {unit:<12} {note}".rstrip()
