"""Experiment kinds: the computations the CLI and the service share.

Four of the paper's computations reach users through two front ends,
``repro-runner`` (:mod:`repro.analysis.runner`) and the HTTP service
(:mod:`repro.service`): the population ``audit`` (``runner scale``), the
Section V ``dynamics``, the strategic-participation ``scenarios`` and the
cross-scheme ``tournament``.  Each is defined exactly once here, as a
frozen params dataclass registered with :func:`experiment_kind`:

* its fields are the service's parameter names and the CLI flags'
  ``dest`` names, and its defaults are the ``--scale small`` preset;
* construction type- and range-checks every field and resolves scheme
  and population-family names, raising
  :class:`~repro.errors.ConfigurationError` — a structured 400 in the
  service, a usage error in the CLI;
* :meth:`KindParams.canonical` is the normalized dict whose hash is the
  service's memoization key;
* ``run(ctx)`` calls the library entry point, and ``payload(result)`` is
  the deterministic, timing-free dict the service serves and the CLI
  writes, both through :func:`payload_json` — so a served result equals
  the CLI artifact byte for byte by construction.

Library imports stay inside the methods: importing this module (and so
booting ``repro-runner serve``) loads no audit or simulation code.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple, Type, Union

from repro.analysis.retry import ExecutionPolicy
from repro.errors import ConfigurationError
from repro.populations.arrays import DEFAULT_CHUNK_AGENTS
from repro.populations.spec import PopulationSpec
from repro.schemes.registry import get_scheme
from repro.sim.config import SIMULATION_BACKENDS

__all__ = [
    "KINDS",
    "AuditParams",
    "DynamicsParams",
    "JobContext",
    "KindParams",
    "ScenariosParams",
    "TournamentParams",
    "experiment_kind",
    "payload_json",
]


def payload_json(payload: Mapping[str, Any]) -> str:
    """The one result encoding: the bytes the service serves and the CLI writes."""
    return json.dumps(payload, indent=2, sort_keys=True)


@dataclass(frozen=True)
class JobContext:
    """Execution resources a run inherits from its front end, not its params.

    These knobs (worker-pool size, shard-cache directory, robustness
    policy, progress line) belong to the operator — ``repro-runner``
    flags — and are deliberately **excluded from the memoization key**:
    the same params computed on 1 worker or 8 are the same bytes, so
    they must be the same cache entry.  The field names are the sweep
    runners' keyword arguments, so ``**vars(ctx)`` forwards them.
    """

    workers: Union[int, str] = 1
    cache_dir: Optional[Path] = None
    policy: Optional[ExecutionPolicy] = None
    progress: bool = False


#: Integer fields that may be 0; every other integer field must be >= 1.
_MAY_BE_ZERO = ("seed", "simulate_rounds")


def _checked(name: str, annotation: str, value: Any) -> Any:
    """Type- and range-check one field value against its annotation."""
    if value is None and annotation.startswith("Optional["):
        return None
    if annotation in ("int", "Optional[int]"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"{name!r} must be an integer, got {value!r}")
        minimum = 0 if name in _MAY_BE_ZERO else 1
        if value < minimum:
            raise ConfigurationError(f"{name!r} must be >= {minimum}, got {value}")
        return value
    if annotation in ("str", "Optional[str]"):
        if not isinstance(value, str) or not value:
            raise ConfigurationError(f"{name!r} must be a non-empty string")
        return value
    if annotation == "Dict[str, Any]":
        if not isinstance(value, Mapping):
            raise ConfigurationError(f"{name!r} must be a JSON object")
        return dict(value)
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{name!r} must be a JSON array")
    if annotation == "Tuple[str, ...]":
        if not all(isinstance(item, str) for item in value):
            raise ConfigurationError(f"{name!r} must be a JSON array of strings")
        return tuple(value)
    for item in value:  # Tuple[float, ...]
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigurationError(f"{name!r} entries must be numbers, got {item!r}")
    return tuple(float(item) for item in value)


class KindParams:
    """Base of the registered params dataclasses.

    Subclasses set the class attributes below and implement ``run`` and
    ``payload``; ``render`` and ``write`` default to the result object's
    own ``render()`` / ``to_csv()``.
    """

    #: The service's job ``kind``.
    kind: ClassVar[str]
    #: The runner experiment name; the CLI writes ``<experiment>.csv``.
    experiment: ClassVar[str]
    #: The CLI file holding ``payload(result)`` (under ``--out``).
    artifact: ClassVar[str]
    #: Fields only the ``--scale`` preset sets: the shared CLI flag of
    #: the same name (``--epochs``) does not reach this kind.
    preset_only: ClassVar[Tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = _checked(spec.name, spec.type, getattr(self, spec.name))
            object.__setattr__(self, spec.name, value)
        self.validate()

    def validate(self) -> None:
        """Checks beyond field types: registry names and choices."""

    @classmethod
    def flags(cls) -> Tuple[str, ...]:
        """The fields the shared CLI flags set, by ``dest`` name."""
        return tuple(
            spec.name for spec in fields(cls) if spec.name not in cls.preset_only
        )

    @classmethod
    def from_json(cls, raw: Mapping[str, Any]) -> "KindParams":
        """Build from a request's ``params`` object, rejecting unknown names."""
        allowed = [spec.name for spec in fields(cls)]
        unknown = sorted(set(raw) - set(allowed))
        if unknown:
            raise ConfigurationError(
                f"unknown parameter(s) for {cls.kind!r} job: {', '.join(unknown)}; "
                f"allowed: {', '.join(allowed)}"
            )
        return cls(**raw)

    def canonical(self) -> Dict[str, Any]:
        """The JSON-ready params, defaults filled: what ``job_key`` hashes."""
        return {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in asdict(self).items()
        }

    def run(self, ctx: JobContext) -> Any:
        """Execute through the library entry point; returns its result."""
        raise NotImplementedError

    @staticmethod
    def payload(result: Any) -> Dict[str, Any]:
        """The deterministic dict served by the service and written by the CLI."""
        raise NotImplementedError

    @staticmethod
    def render(result: Any) -> str:
        """The CLI's ASCII rendition."""
        return result.render()

    @staticmethod
    def write(result: Any, csv_path: Path) -> None:
        """The CLI's tabular artifacts (the payload file is written apart)."""
        result.to_csv(csv_path)


#: The kind registry: job kind -> params class, in registration order.
KINDS: Dict[str, Type[KindParams]] = {}


def experiment_kind(cls: Type[KindParams]) -> Type[KindParams]:
    """Class decorator: register a params dataclass under its ``kind``."""
    if cls.kind in KINDS:
        raise ConfigurationError(f"experiment kind {cls.kind!r} already registered")
    KINDS[cls.kind] = cls
    return cls


class _PopulationKind(KindParams):
    """The kinds that stream a population: its spec and shared validation."""

    def population(self, cooperation: float = 1.0) -> PopulationSpec:
        """The streamed population, by reference."""
        return PopulationSpec(
            family=self.family,
            size=self.agents,
            params=self.family_params,
            cooperation=cooperation,
            dtype=self.dtype,
            seed=self.seed,
        )

    def validate(self) -> None:
        """Family, family parameters, size and dtype; scheme names."""
        self.population()
        for name in self.schemes:
            get_scheme(name)  # SchemeError (a ConfigurationError) on unknown


@experiment_kind
@dataclass(frozen=True)
class AuditParams(_PopulationKind):
    """``audit`` (``runner scale``): a streamed epsilon-IC audit of a population.

    Empty ``schemes`` audits every registered scheme; ``chunk_agents``
    ``None`` is the default streaming window; non-empty
    ``budget_multipliers`` / ``cost_scales`` widen the run into the fused
    (scheme x budget x cost-scale) grid.
    """

    kind = "audit"
    experiment = "scale"
    artifact = "scale.audit.json"

    family: str = "zipf"
    family_params: Dict[str, Any] = field(default_factory=dict)
    agents: int = 20_000
    schemes: Tuple[str, ...] = ()
    chunk_agents: Optional[int] = None
    dtype: str = "float64"
    seed: int = 2021
    budget_multipliers: Tuple[float, ...] = ()
    cost_scales: Tuple[float, ...] = ()

    def run(self, ctx: JobContext) -> Any:
        """Stream the audit (:func:`~repro.analysis.scale.run_scale`)."""
        from repro.analysis.scale import ScaleConfig, run_scale

        return run_scale(
            ScaleConfig(
                family=self.family,
                family_params=self.family_params,
                n_agents=self.agents,
                schemes=self.schemes,
                chunk_agents=self.chunk_agents,
                dtype=self.dtype,
                seed=self.seed,
                budget_multipliers=self.budget_multipliers,
                cost_scales=self.cost_scales,
            )
        )

    @staticmethod
    def payload(result: Any) -> Dict[str, Any]:
        """The timing-free verdicts, witnesses, committee and grid tensor."""
        return result.audit_payload()

    @staticmethod
    def write(result: Any, csv_path: Path) -> None:
        """``scale.csv`` plus ``scale.json``, which carries the timings."""
        result.to_csv(csv_path)
        csv_path.with_suffix(".json").write_text(payload_json(result.to_payload()))


@experiment_kind
@dataclass(frozen=True)
class DynamicsParams(_PopulationKind):
    """``dynamics``: streamed Section V evolutionary epochs under each scheme."""

    kind = "dynamics"
    experiment = "dynamics"
    artifact = "dynamics.json"
    preset_only = ("name",)

    name: str = "dynamics"
    family: str = "zipf"
    family_params: Dict[str, Any] = field(default_factory=dict)
    agents: int = 24_576
    chunk_agents: int = DEFAULT_CHUNK_AGENTS
    epochs: int = 6
    schemes: Tuple[str, ...] = ("foundation", "role_based")
    seed: int = 2021
    dtype: str = "float64"

    def run(self, ctx: JobContext) -> Any:
        """Evolve the population under each scheme; trajectories by key."""
        from repro.scenarios.population_dynamics import (
            PopulationDynamicsSpec,
            run_population_dynamics_campaign,
        )

        spec = PopulationDynamicsSpec(
            name=self.name,
            population=self.population(cooperation=0.9),
            n_epochs=self.epochs,
            chunk_agents=self.chunk_agents,
        )
        return run_population_dynamics_campaign(
            [spec], self.schemes, seed=self.seed, **vars(ctx)
        )

    @staticmethod
    def payload(result: Any) -> Dict[str, Any]:
        """One trajectory per ``name/scheme``."""
        return {
            f"{name}/{scheme}": trajectory.to_payload()
            for (name, scheme), trajectory in result.items()
        }

    @staticmethod
    def render(result: Any) -> str:
        """Defection-share panels plus a stability verdict table."""
        from repro.scenarios.population_dynamics import render_dynamics_trajectories

        return render_dynamics_trajectories(result)

    @staticmethod
    def write(result: Any, csv_path: Path) -> None:
        """One CSV row per (dynamics, scheme, epoch)."""
        from repro.scenarios.population_dynamics import dynamics_to_csv

        dynamics_to_csv(result, csv_path)


@experiment_kind
@dataclass(frozen=True)
class ScenariosParams(KindParams):
    """``scenarios``: the strategic-participation campaign, every family."""

    kind = "scenarios"
    experiment = "scenarios"
    artifact = "scenarios.json"
    preset_only = ("players", "epochs", "replications", "simulate_rounds")

    players: int = 28
    epochs: int = 10
    replications: int = 2
    simulate_rounds: int = 2
    seed: int = 2021
    backend: Optional[str] = None

    def validate(self) -> None:
        """The backend must be a registered simulation engine."""
        if self.backend is not None and self.backend not in SIMULATION_BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; "
                f"choose from {sorted(SIMULATION_BACKENDS)}"
            )

    def _campaign(self) -> Dict[str, Any]:
        """The campaign shape, as scenario/tournament config arguments."""
        return dict(
            n_replications=self.replications,
            n_players=self.players,
            n_epochs=self.epochs,
            simulate_rounds=self.simulate_rounds,
            backend=self.backend,
            seed=self.seed,
        )

    def run(self, ctx: JobContext) -> Any:
        """Run the campaign through the sweep orchestrator."""
        from repro.scenarios import ScenarioCampaignConfig, run_scenarios_campaign

        return run_scenarios_campaign(
            ScenarioCampaignConfig(**self._campaign()), **vars(ctx)
        )

    @staticmethod
    def payload(result: Any) -> Dict[str, Any]:
        """One merged trajectory per ``scenario/scheme``."""
        return {
            f"{scenario}/{scheme}": asdict(trajectory)
            for (scenario, scheme), trajectory in result.trajectories.items()
        }


@experiment_kind
@dataclass(frozen=True)
class TournamentParams(ScenariosParams):
    """``tournament``: every registered scheme in one ranked league.

    Grid axes widen the league's audit operating points: a scheme keeps
    its IC margin only if it stays epsilon-IC at every requested cell.
    """

    kind = "tournament"
    experiment = "tournament"
    artifact = "tournament.json"

    players: int = 24
    epochs: int = 8
    replications: int = 1
    simulate_rounds: int = 1
    budget_multipliers: Tuple[float, ...] = ()
    cost_scales: Tuple[float, ...] = ()

    def run(self, ctx: JobContext) -> Any:
        """Run the campaign, audit every scheme and rank the league."""
        from repro.schemes.tournament import (
            TOURNAMENT_AUDIT,
            TournamentConfig,
            run_tournament,
        )

        audit = TOURNAMENT_AUDIT
        if self.budget_multipliers:
            audit = replace(audit, budget_multipliers=self.budget_multipliers)
        if self.cost_scales:
            audit = replace(audit, cost_scales=self.cost_scales)
        return run_tournament(
            TournamentConfig(**self._campaign(), audit=audit), **vars(ctx)
        )

    @staticmethod
    def payload(result: Any) -> Dict[str, Any]:
        """The ranked standings."""
        return {"standings": [asdict(standing) for standing in result.standings]}

    @staticmethod
    def write(result: Any, csv_path: Path) -> None:
        """``tournament.csv`` plus the same league as ``tournament.md``."""
        result.to_csv(csv_path)
        result.to_markdown(csv_path.with_suffix(".md"))
