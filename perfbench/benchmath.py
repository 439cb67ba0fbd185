"""The benchmark's own arithmetic: percentiles, ratios and span self time.

Kept free of any ``repro`` import so ``selftest.py`` can check it alone.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> Optional[Tuple[float, int]]:
    """Nearest-rank ``q`` percentile (0 < q < 1) with its sample count.

    Returns ``(value, n)``, or ``None`` when fewer than :data:`MIN_BEYOND`
    samples lie beyond the percentile's rank (p50 needs n >= 20, p90
    needs n >= 100), so a tail figure is never read off a handful of runs.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile q must be in (0, 1), got {q}")
    n = len(values)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1], n


def median(values: Sequence[float]) -> float:
    """Plain median (mean of the middle pair for even counts)."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def ratio(numerator: float, base: float) -> Dict[str, float]:
    """A ratio that carries its base: ``{"value", "numerator", "base"}``.

    A zero base gives ``value`` 0.0 (nothing attempted, nothing failed)
    rather than raising, and the base stays visible next to it.
    """
    value = numerator / base if base else 0.0
    return {"value": value, "numerator": float(numerator), "base": float(base)}


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    cursor = lo
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Mapping[str, object]]) -> List[float]:
    """Each span's duration minus the part its direct children cover.

    ``spans`` are dicts with ``id``, ``parent`` (an id or ``None``),
    ``start`` and ``end``; the result is aligned with the input order.
    """
    children: Dict[object, List[Tuple[float, float]]] = {}
    for item in spans:
        if item["parent"] is not None:
            children.setdefault(item["parent"], []).append(
                (float(item["start"]), float(item["end"]))
            )
    result = []
    for item in spans:
        start, end = float(item["start"]), float(item["end"])
        inner = covered(children.get(item["id"], ()), start, end)
        result.append(max(0.0, (end - start) - inner))
    return result


def layer_totals(spans: Sequence[Mapping[str, object]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
    totals: Dict[str, Dict[str, float]] = {}
    for item, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(
            str(item["name"]), {"calls": 0.0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["total_s"] += float(item["end"]) - float(item["start"])
        entry["self_s"] += own
    return totals
