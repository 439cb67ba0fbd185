"""The three batch workloads: one library call per operation, repeated.

Each operation is the whole user-facing computation — a grid audit, a
dynamics run, a Figure 3 campaign — on inputs made from the seed, and
every operation's output is checked.  A plain run repeats the operation
for the run length; a traced run makes one untimed traced warm-up, then
alternates a plain and a traced operation, so the tracing overhead is
measured on the same inputs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import checks
from benchmath import median, ratio
from common import (
    HERE,
    ROOT,
    SETUP_REPEATS,
    WORK,
    Outcome,
    line,
    peak_rss_mb,
    repeated_counts,
)
from layers import PER_LAYER, complete, mean_of, program_layers
from readings import Readings
from tracer import Tracer

from repro.analysis import defection
from repro.populations.spec import PopulationSpec
from repro.scenarios import population_dynamics
from repro.schemes import population_audit
from repro.telemetry import MetricsRegistry, capture

ZIPF = {"exponent": 1.9, "scale": 3.0}
CHUNK_AGENTS = 131_072


class Batch:
    """One batch workload: build inputs, run an operation, check its output."""

    name = ""
    #: The issue-level name of this workload's throughput, and its unit.
    throughput_name = ""
    work_unit = ""
    #: ``(numerator, denominator, predicted layer)`` of the dominant-layer check.
    dominant: Tuple[str, str, str] = ("", "", "")

    def build(self, seed: int) -> Any:
        raise NotImplementedError

    def units(self, inputs: Any) -> float:
        raise NotImplementedError

    def op(self, inputs: Any) -> Any:
        raise NotImplementedError

    def fingerprint(self, output: Any) -> Tuple[str, List[str]]:
        """The output's digest and its failed seed-free invariants."""
        raise NotImplementedError

    def check(self, output: Any, seed: int) -> List[str]:
        digest, problems = self.fingerprint(output)
        return checks.verify(self.name, seed, digest, problems)


class AuditGrid(Batch):
    name = "audit_grid"
    throughput_name = "agent_cells_per_s"
    work_unit = "agent-cells/s"
    dominant = ("audit.gain_s", "audit.grid_s", "schemes.population_audit gain pass")
    SCHEMES = ("foundation", "role_based", "irs", "axiomatic_tau", "hybrid")
    BUDGETS = (1.0, 1.5, 2.0)
    COST_SCALES = (0.5, 1.0, 2.0)
    AGENTS = 1_000_000

    def build(self, seed: int) -> Any:
        spec = PopulationSpec(family="zipf", size=self.AGENTS, params=ZIPF, seed=seed)
        return spec, population_audit.PopulationAuditConfig(chunk_agents=CHUNK_AGENTS)

    def units(self, inputs: Any) -> float:
        cells = len(self.SCHEMES) * len(self.BUDGETS) * len(self.COST_SCALES)
        return float(self.AGENTS * cells)

    def op(self, inputs: Any) -> Any:
        spec, config = inputs
        return population_audit.audit_population_grid(
            self.SCHEMES,
            spec,
            config,
            budget_multipliers=self.BUDGETS,
            cost_scales=self.COST_SCALES,
        )

    def fingerprint(self, output: Any) -> Tuple[str, List[str]]:
        digest = checks.sha256(checks.canonical(checks.audit_identity(output)))
        return digest, checks.audit_invariants(output)


class DynamicsChurn(Batch):
    name = "dynamics_churn"
    throughput_name = "agent_epochs_per_s"
    work_unit = "agent-epochs/s"
    dominant = (
        "populations.chunk_draws.self_s",
        "dynamics.run_s",
        "populations.chunk_draws churn replay",
    )
    AGENTS = 300_000
    EPOCHS = 10

    def build(self, seed: int) -> Any:
        return population_dynamics.PopulationDynamicsSpec(
            name="perfbench-churn",
            population=PopulationSpec(
                family="zipf",
                size=self.AGENTS,
                params=ZIPF,
                cooperation=0.9,
                seed=seed,
            ),
            n_epochs=self.EPOCHS,
            update_rule="replicator",
            churn_rate=0.05,
            chunk_agents=CHUNK_AGENTS,
        )

    def units(self, inputs: Any) -> float:
        return float(self.AGENTS * self.EPOCHS)

    def op(self, inputs: Any) -> Any:
        return population_dynamics.run_population_dynamics(inputs, "role_based")

    def fingerprint(self, output: Any) -> Tuple[str, List[str]]:
        digest = checks.sha256(checks.dynamics_bytes(output))
        return digest, checks.dynamics_invariants(output, self.EPOCHS, self.AGENTS)


class Fig3Campaign(Batch):
    name = "fig3_campaign"
    throughput_name = "sim_rounds_per_s"
    work_unit = "rounds/s"
    dominant = ("sim.round_s", "orchestrator.shard_s", "sim.fastpath rounds")
    RUNS = 10
    ROUNDS = 40
    NODES = 100
    WORKERS = 2

    def build(self, seed: int) -> Any:
        return defection.DefectionExperimentConfig(
            n_runs=self.RUNS, n_rounds=self.ROUNDS, n_nodes=self.NODES, seed=seed
        )

    def units(self, inputs: Any) -> float:
        return float(len(inputs.rates) * self.RUNS * self.ROUNDS)

    def op(self, inputs: Any) -> Any:
        return defection.run_defection_experiment(inputs, workers=self.WORKERS)

    def fingerprint(self, output: Any) -> Tuple[str, List[str]]:
        path = WORK / f"fig3-{os.getpid()}.csv"
        output.to_csv(path)
        try:
            digest = checks.sha256(path.read_bytes())
        finally:
            path.unlink()
        return digest, defection.shape_assertions(output)


WORKLOADS: Dict[str, Batch] = {
    workload.name: workload
    for workload in (AuditGrid(), DynamicsChurn(), Fig3Campaign())
}


def setup_seconds(name: str, seed: int) -> List[float]:
    """Cold set-up times: fresh interpreters importing and building inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed)],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=120,
        )
        times.append(time.perf_counter() - started)
    return times


def run(name: str, seed: int, seconds: int, trace: bool) -> Outcome:
    """Repeat the operation for ``seconds``; trace every other one if asked."""
    workload = WORKLOADS[name]
    setups = [] if trace else setup_seconds(name, seed)
    inputs = workload.build(seed)
    tracer = Tracer()
    plain: List[float] = []
    traced: List[float] = []
    traced_layers: List[Dict[str, float]] = []
    problems: List[str] = []
    attempted = failed = 0

    def operation(into: Optional[Tracer]) -> Tuple[float, Dict[str, float]]:
        """Run and check one operation, traced into ``into`` if given.

        Returns its seconds and, if traced, its layer metrics.
        """
        nonlocal attempted, failed
        attempted += 1
        registry = MetricsRegistry()
        first_span = len(into.spans) if into is not None else 0
        started = time.perf_counter()
        try:
            if into is not None:
                with into.installed(), capture(registry):
                    output = workload.op(inputs)
            else:
                output = workload.op(inputs)
        except Exception as exc:  # a crashed operation is a failed one
            failed += 1
            problems.append(f"operation raised {exc!r}")
            return 0.0, {}
        elapsed = time.perf_counter() - started
        op_problems = workload.check(output, seed)
        if op_problems:
            failed += 1
            problems.extend(op_problems)
        if into is None:
            return elapsed, {}
        snapshot = Readings.from_snapshot(registry.snapshot())
        return elapsed, program_layers(snapshot, into.spans[first_span:], 1)

    # A traced run first makes one untimed traced operation, so neither
    # side of the first timed pair carries the process's warm-up; its
    # counts join the exact-count check.  Which side of each pair goes
    # first alternates, starting from the seed's parity.
    warm_layers = [operation(Tracer())[1]] if trace else []
    orders = [(True, False), (False, True)] if trace else [(False,)]
    first_order = seed % len(orders)
    started = time.perf_counter()
    while not failed:
        round_started = time.perf_counter()
        rounds = len(traced) if trace else len(plain)
        for tracing in orders[(first_order + rounds) % len(orders)]:
            elapsed, layers = operation(tracer if tracing else None)
            if failed:
                break
            if tracing:
                traced.append(elapsed)
                traced_layers.append(layers)
            else:
                plain.append(elapsed)
        now = time.perf_counter()
        if now - started >= seconds - 0.5 * (now - round_started):
            break

    report = [f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}"]
    failed_ratio = ratio(failed, attempted)
    report.append(
        line("failed_ratio", failed_ratio["value"], "", f"{failed}/{attempted} ops")
    )
    metrics: Dict[str, Tuple[float, str]] = {}
    if not trace and plain:
        throughput = workload.units(inputs) * len(plain) / sum(plain)
        metrics = {
            "setup_s": (median(setups), "s"),
            "work_per_s": (throughput, "1/s"),
            "op_p50_ms": (median(plain) * 1000.0, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }
        report += [
            line("setup_s", median(setups), "s", f"median of {len(setups)} cold starts"),
            line("peak_rss_mb", metrics["peak_rss_mb"][0], "MiB", "benchmark process"),
            line(workload.throughput_name, throughput, workload.work_unit, "work_per_s"),
            line("op_p50_ms", median(plain) * 1000.0, "ms", f"n={len(plain)} operations"),
        ]
    elif trace and traced and plain:
        layer_values = complete(mean_of(traced_layers))
        layer_values["telemetry.trace_overhead_ratio"] = sum(traced) / sum(plain) - 1.0
        problems += repeated_counts(name, seed, seconds, warm_layers + traced_layers)
        units = dict(PER_LAYER)
        metrics = {key: (value, units[key]) for key, value in layer_values.items()}
        report += [line(key, value, units[key]) for key, value in layer_values.items()]
        report.append(
            f"  telemetry.trace_overhead_ratio rests on {len(traced)} traced and "
            f"{len(plain)} plain operations ("
            + ("traced" if orders[first_order][0] else "plain")
            + " first), after one untimed traced warm-up"
        )
        numerator, denominator, layer = workload.dominant
        share = ratio(layer_values[numerator], layer_values[denominator])
        report.append(
            f"  dominant layer ({layer}): {numerator} is {share['value']:.1%} of "
            f"{denominator} ({share['numerator']:.4g} s of {share['base']:.4g} s)"
        )
        trace_path = WORK / f"trace-{name}-seed{seed}.json"
        tracer.dump(
            trace_path, {"workload": name, "seed": seed, "layers": traced_layers}
        )
        report.append(f"  spans written to {trace_path.relative_to(ROOT)}")
    report += [f"  CHECK FAILED: {problem}" for problem in problems]
    return Outcome(
        correct=not problems and failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        report=report,
    )
