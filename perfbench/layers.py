"""The per-layer metrics of a traced run, from spans plus exported telemetry.

Each metric is named after the module it measures (see README.md for the
end-to-end metric each one should move).  Every traced run reports all of
them; a layer the workload never enters reads 0.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from benchmath import layer_totals
from readings import Readings

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("populations.block.calls", "count"),
    ("populations.block.self_s", "s"),
    ("populations.chunk_draws.calls", "count"),
    ("populations.chunk_draws.self_s", "s"),
    ("populations.block_rng.calls", "count"),
    ("populations.block_rng.self_s", "s"),
    ("audit.grid_s", "s"),
    ("audit.gain_s", "s"),
    ("audit.structure_s", "s"),
    ("audit.chunks", "count"),
    ("audit.cell_evals", "count"),
    ("dynamics.run_s", "s"),
    ("dynamics.epoch_s", "s"),
    ("dynamics.self_s", "s"),
    ("sim.rounds", "count"),
    ("sim.round_s", "s"),
    ("sim.vrf_s", "s"),
    ("sim.vrf_keys", "count"),
    ("sim.round_other_s", "s"),
    ("orchestrator.shards", "count"),
    ("orchestrator.shard_s", "s"),
    ("orchestrator.sweep_s", "s"),
    ("orchestrator.busy_ratio", "ratio"),
    ("orchestrator.overhead_s", "s"),
    ("service.submit_ms", "ms"),
    ("service.status_ms", "ms"),
    ("service.result_ms", "ms"),
    ("service.polls_per_job", "count"),
    ("service.execute_s", "s"),
    ("service.wait_s", "s"),
    ("service.jobs_executed", "count"),
    ("service.memo_hits", "count"),
    ("service.dedup_hits", "count"),
    ("service.memo_hit_ratio", "ratio"),
    ("service.rejections", "count"),
    ("telemetry.trace_overhead_ratio", "ratio"),
)

#: Counts that must repeat exactly across runs at one seed.
EXACT_COUNTS: Tuple[str, ...] = (
    "populations.block.calls",
    "populations.chunk_draws.calls",
    "populations.block_rng.calls",
    "audit.chunks",
    "audit.cell_evals",
    "sim.rounds",
    "sim.vrf_keys",
    "orchestrator.shards",
    "service.jobs_executed",
)


def _mean_hist(readings: Readings, name: str) -> float:
    count = readings.total(f"{name}_count")
    return readings.total(f"{name}_sum") / count if count else 0.0


def program_layers(
    readings: Readings, spans: Sequence[Mapping[str, object]], n_runs: int
) -> Dict[str, float]:
    """Layer metrics per run (per operation, or per executed service job)."""
    totals = layer_totals(spans)
    per = 1.0 / n_runs if n_runs else 0.0

    def span(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0.0) * per

    def total(name: str, **labels: str) -> float:
        return readings.total(name, **labels) * per

    metrics: Dict[str, float] = {}
    for layer in ("block", "chunk_draws", "block_rng"):
        metrics[f"populations.{layer}.calls"] = span(f"populations.{layer}", "calls")
        metrics[f"populations.{layer}.self_s"] = span(f"populations.{layer}", "self_s")

    grid_s = span("audit.grid", "total_s")
    chunks = total("repro_audit_chunks_total")
    metrics["audit.grid_s"] = grid_s
    metrics["audit.gain_s"] = total("repro_audit_cell_gain_seconds_total")
    metrics["audit.structure_s"] = (
        grid_s - total("repro_audit_chunk_seconds_sum") if grid_s else 0.0
    )
    metrics["audit.chunks"] = chunks
    metrics["audit.cell_evals"] = chunks * readings.label_sets(
        "repro_audit_cell_gain_seconds_total"
    )

    metrics["dynamics.run_s"] = span("dynamics.run", "total_s")
    metrics["dynamics.epoch_s"] = _mean_hist(readings, "repro_dynamics_epoch_seconds")
    metrics["dynamics.self_s"] = span("dynamics.run", "self_s")

    round_s = total("repro_fastpath_round_seconds_sum")
    vrf_s = total("repro_fastpath_vrf_batch_seconds_sum")
    metrics["sim.rounds"] = total("repro_fastpath_rounds_total")
    metrics["sim.round_s"] = round_s
    metrics["sim.vrf_s"] = vrf_s
    metrics["sim.vrf_keys"] = total("repro_fastpath_vrf_keys_total")
    metrics["sim.round_other_s"] = round_s - vrf_s

    shard_s = total("repro_orchestrator_shard_seconds_sum")
    sweep_s = span("orchestrator.run_sweep", "total_s")
    workers = readings.total("repro_orchestrator_workers")
    metrics["orchestrator.shards"] = total(
        "repro_orchestrator_shards_total", state="computed"
    )
    metrics["orchestrator.shard_s"] = shard_s
    metrics["orchestrator.sweep_s"] = sweep_s
    metrics["orchestrator.busy_ratio"] = (
        shard_s / (sweep_s * workers) if sweep_s and workers else 0.0
    )
    metrics["orchestrator.overhead_s"] = (
        sweep_s - shard_s / workers if sweep_s and workers else 0.0
    )
    return metrics


def complete(partial: Mapping[str, float]) -> Dict[str, float]:
    """Every per-layer metric in report order; absent layers read 0."""
    return {name: float(partial.get(name, 0.0)) for name, _unit in PER_LAYER}


def mean_of(runs: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Per-metric mean over several runs' layer metrics."""
    names = {name for run in runs for name in run}
    return {name: sum(run.get(name, 0.0) for run in runs) / len(runs) for name in names}
