"""Read the counters and histograms the program already exports.

Two sources, one shape: a ``repro.telemetry`` snapshot (what
``capture()`` collects in this process, with worker snapshots merged in
by the orchestrator) and the Prometheus text of the service's
``/metrics``.  Both flatten to ``{(sample name, labels): value}`` where a
histogram contributes ``<name>_sum`` and ``<name>_count`` samples.
"""

from __future__ import annotations

import re
from typing import Any, Dict, FrozenSet, Mapping, Tuple

Key = Tuple[str, FrozenSet[Tuple[str, str]]]

_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


class Readings:
    """A flat view of exported samples, with sums over label subsets."""

    def __init__(self, samples: Mapping[Key, float]) -> None:
        self.samples = dict(samples)

    @staticmethod
    def from_snapshot(snapshot: Mapping[str, object]) -> "Readings":
        samples: Dict[Key, float] = {}
        families: Any = snapshot.get("metrics", {})
        for name, family in families.items():
            for sample in family["samples"]:
                labels = frozenset(sample["labels"].items())
                if family["type"] == "histogram":
                    samples[(f"{name}_sum", labels)] = float(sample["sum"])
                    samples[(f"{name}_count", labels)] = float(sample["count"])
                else:
                    samples[(name, labels)] = float(sample["value"])
        return Readings(samples)

    @staticmethod
    def from_prometheus(text: str) -> "Readings":
        samples: Dict[Key, float] = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            match = _SAMPLE.match(line)
            if match is None or match.group(1).endswith("_bucket"):
                continue
            labels = frozenset(_LABEL.findall(match.group(2) or ""))
            samples[(match.group(1), labels)] = float(match.group(3))
        return Readings(samples)

    def minus(self, earlier: "Readings") -> "Readings":
        """Sample-wise difference (counters and histogram sums are monotone)."""
        return Readings(
            {
                key: value - earlier.samples.get(key, 0.0)
                for key, value in self.samples.items()
            }
        )

    def total(self, name: str, **labels: str) -> float:
        """Sum of ``name`` over every sample whose labels include ``labels``."""
        wanted = set(labels.items())
        return sum(
            value
            for (sample, sample_labels), value in self.samples.items()
            if sample == name and wanted <= sample_labels
        )

    def label_sets(self, name: str) -> int:
        """How many distinct label sets ``name`` has (e.g. grid cells)."""
        return sum(1 for sample, _labels in self.samples if sample == name)

