"""Streamed Section V dynamics over million-agent populations.

The in-memory scenario driver (:mod:`repro.scenarios.dynamics`) holds a
whole :class:`~repro.core.game.AlgorandGame` per epoch — ideal at 10^2
players, an OOM at exchange scale.  This module evolves one huge
population (a :class:`~repro.populations.spec.PopulationSpec`) through
replicator or synchronous best-response epochs **blockwise**, in O(chunk)
memory, reusing the population audit's selection/chunk-context pass
(:mod:`repro.schemes.population_audit`) so dynamics and audits share one
streaming substrate:

1. **Structure pass** — stake-weighted sortition selects the leaders and
   committee, Algorithm 1 calibrates ``(b_i, alpha, beta)`` at the
   all-cooperate profile, and pool tables are expanded — exactly
   :func:`~repro.schemes.population_audit._build_structure`.
2. **Per epoch, two streamed passes.**  The *measure* pass realizes the
   epoch's strategy profile (crowd thresholds + selected best responses),
   folds per-pool class weights, costs and the strong-synchrony defector
   census with the block-stable reductions, and emits an
   :class:`~repro.scenarios.dynamics.EpochRecord`.  The *update* pass
   replays that profile and evaluates each crowd agent's
   **counterfactual** payoffs — what it would earn if it alone played C
   (resp. D) — with the audit's closed-form pool algebra; a
   :class:`~repro.core.dynamics.ReplicatorAccumulator` folds the sums and
   steps the crowd share once per epoch, while the selected agents revise
   by exact synchronous best response in both update modes (they are the
   mechanism's performers; their incentives, not the crowd means, are what
   separates the schemes).
3. **One column spill carries the realized epoch.**  Each chunk's stake,
   cost multiplier, post-selection synchrony mask and action (18 bytes
   per agent) live in an anonymous temp file between passes.  The
   epoch-0 measure pass is the only one that synthesizes seed blocks and
   draws synchrony; each later measure pass reads the previous epoch's
   columns, applies one round of the optional **stake churn** and draws
   the epoch's realization uniforms; the update pass replays the held
   columns verbatim and draws nothing.  Churn resamples stakes once per
   epoch from the population's seed-block tree (any generator family,
   including the ``exchange_snapshot`` bootstrap), with the selected
   agents' stakes pinned so the epoch-0 calibration and quorum threshold
   stay exact.  So a run synthesizes every block once (plus the
   structure pass) and draws each churn round once, in O(chunk) memory.

Counterfactual (unilateral-deviation) crowd fitness is the load-bearing
choice: both schemes pay crowd *defectors* from stake-proportional pools,
so realized class means cannot distinguish foundation from role-based
sharing at scale — but the deviation payoffs can, and they are exactly
what the audit layer already certifies.  Because every reduction is
blockwise and every mask position-preserving, trajectories are
**bit-identical at any** ``chunk_agents``; the differential suite pins
small populations to the in-memory game oracle
(:func:`oracle_population_dynamics`).
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
import time
from contextlib import closing
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    IO,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.analysis import plotting
from repro.analysis.csvio import PathLike, write_rows
from repro.analysis.orchestrator import run_sweep
from repro.analysis.retry import ExecutionPolicy
from repro.analysis.sweep import SweepSpec
from repro.core.dynamics import ReplicatorAccumulator
from repro.errors import ConfigurationError
from repro.populations.arrays import (
    PopulationArrays,
    blockwise_row_sums,
    blockwise_sum,
)
from repro.populations.generators import resolve_sampler
from repro.populations.spec import PopulationSpec
from repro.scenarios.dynamics import EpochRecord, ScenarioTrajectory
from repro.schemes.base import COMMITTEE, LEADER, ONLINE, ROLES
from repro.schemes.population_audit import (
    PopulationAuditConfig,
    _build_structure,
    _chunk_context,
    _chunk_roles,
    _chunks,
    _ChunkContext,
    _selected_rows,
    _Structure,
    _sync_mask,
)
from repro.schemes.pools import pool_payments, pool_rates, pool_weights
from repro.schemes.registry import SchemeLike, resolve_scheme
from repro.telemetry.metrics import DEFAULT_TIME_BUCKETS
from repro.telemetry.runtime import get_registry
from repro.telemetry.spans import span

#: Crowd/selected update rules the streamed driver understands.
UPDATE_RULES: Tuple[str, ...] = ("replicator", "best_response")

#: Strict-improvement threshold of a best-response switch — the same
#: tolerance as :func:`repro.core.equilibrium.best_response`, whose ties
#: break toward the current strategy (and C > D > O, so O never wins:
#: a defector's payoff ``rewards - c_so`` dominates offline's ``-c_so``).
_BR_TOLERANCE = 1e-15

#: Consumer columns in the population's seed-block stream tree.  The
#: realize column carries the epoch's crowd uniforms; the churn columns
#: carry the per-epoch resampling selector and replacement stakes.
_REALIZE_COLUMN = "dynamics.realize"
_CHURN_SELECT_COLUMN = "dynamics.churn.select"
_CHURN_STAKE_COLUMN = "dynamics.churn.stake"


@dataclass(frozen=True)
class PopulationDynamicsSpec:
    """One streamed dynamics run: population + epochs + mechanism shape.

    Parameters
    ----------
    name:
        Label carried into trajectories, sweep grids and cache keys.
    population:
        The streamed population (its ``cooperation`` field seeds the
        initial defectors — placed in the non-synchrony crowd first, the
        ``ONLINE_POOL`` seeding convention of the in-memory scenarios).
    n_epochs / update_rule:
        Epochs beyond the initial state, evolved by ``"replicator"``
        (crowd share dynamics + selected best response) or
        ``"best_response"`` (everyone revises synchronously; keeps one
        behavior byte per agent — the documented O(n) concession).
    replicator_intensity / replicator_mutation:
        Selection intensity and trembling term of
        :func:`repro.core.dynamics.replicator_step`.
    churn_rate / churn_family / churn_params:
        Per-epoch probability that an agent's stake is resampled from the
        churn family (default: the population's own family/params; use
        ``exchange_snapshot`` for the bootstrap-from-snapshot model).
        Selected agents' stakes are pinned.
    n_leaders / committee_size / synchrony_rate / committee_quorum /
    cost_scale / budget_multiplier:
        The mechanism shape — identical semantics to
        :class:`~repro.schemes.population_audit.PopulationAuditConfig`.
    chunk_agents:
        Streaming window (``None`` = monolithic, the cross-check path).
        Trajectories are bit-identical at every value.
    """

    name: str
    population: PopulationSpec
    n_epochs: int = 20
    update_rule: str = "replicator"
    replicator_intensity: float = 4.0
    replicator_mutation: float = 0.0
    churn_rate: float = 0.0
    churn_family: Optional[str] = None
    churn_params: Mapping[str, Any] = field(default_factory=dict)
    n_leaders: int = 5
    committee_size: int = 30
    synchrony_rate: float = 0.5
    committee_quorum: float = 0.685
    cost_scale: float = 1.0
    budget_multiplier: float = 1.5
    chunk_agents: Optional[int] = None

    def __post_init__(self) -> None:
        if isinstance(self.population, Mapping):
            object.__setattr__(
                self, "population", PopulationSpec.from_params(self.population)
            )
        object.__setattr__(self, "churn_params", dict(self.churn_params))
        if not self.name:
            raise ConfigurationError("dynamics spec needs a non-empty name")
        if self.n_epochs < 1:
            raise ConfigurationError(
                f"n_epochs must be >= 1, got {self.n_epochs}"
            )
        if self.update_rule not in UPDATE_RULES:
            raise ConfigurationError(
                f"unknown update rule {self.update_rule!r}; "
                f"choose from {UPDATE_RULES}"
            )
        if self.replicator_intensity <= 0:
            raise ConfigurationError(
                f"replicator intensity must be positive, "
                f"got {self.replicator_intensity}"
            )
        if not 0.0 <= self.replicator_mutation < 1.0:
            raise ConfigurationError(
                f"replicator mutation must be in [0, 1), "
                f"got {self.replicator_mutation}"
            )
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ConfigurationError(
                f"churn rate must be in [0, 1], got {self.churn_rate}"
            )
        if self.churn_rate > 0.0:
            # Eager validation, like PopulationSpec's own family check.
            resolve_sampler(
                self.churn_family or self.population.family,
                self.churn_params or self.population.params,
            )
        elif self.churn_family is not None or self.churn_params:
            raise ConfigurationError(
                "churn_family/churn_params require churn_rate > 0"
            )
        self.audit_config()  # validates the mechanism-shape fields

    def audit_config(self) -> PopulationAuditConfig:
        """The audit configuration sharing this spec's mechanism shape.

        ``target="all_c"`` calibrates the budget at the all-cooperate
        profile, exactly like the in-memory scenarios' epoch-0
        calibration — the *same* budget for every scheme, so the
        comparison is at equal cost to the foundation.
        """
        return PopulationAuditConfig(
            n_leaders=self.n_leaders,
            committee_size=self.committee_size,
            synchrony_rate=self.synchrony_rate,
            committee_quorum=self.committee_quorum,
            cost_scale=self.cost_scale,
            budget_multiplier=self.budget_multiplier,
            target="all_c",
            chunk_agents=self.chunk_agents,
        )

    def to_params(self) -> Dict[str, Any]:
        """The spec as plain JSON data — the form sweep shards carry."""
        return {
            "name": self.name,
            "population": self.population.to_params(),
            "n_epochs": self.n_epochs,
            "update_rule": self.update_rule,
            "replicator_intensity": self.replicator_intensity,
            "replicator_mutation": self.replicator_mutation,
            "churn_rate": self.churn_rate,
            "churn_family": self.churn_family,
            "churn_params": dict(self.churn_params),
            "n_leaders": self.n_leaders,
            "committee_size": self.committee_size,
            "synchrony_rate": self.synchrony_rate,
            "committee_quorum": self.committee_quorum,
            "cost_scale": self.cost_scale,
            "budget_multiplier": self.budget_multiplier,
            "chunk_agents": self.chunk_agents,
        }

    @staticmethod
    def from_params(params: Mapping[str, Any]) -> "PopulationDynamicsSpec":
        """Rebuild a spec from :meth:`to_params` output (re-validated)."""
        return PopulationDynamicsSpec(**dict(params))

    def with_overrides(self, **overrides: object) -> "PopulationDynamicsSpec":
        """Copy of this spec with fields replaced (re-validated)."""
        return replace(self, **overrides)

    def cache_key(self) -> str:
        """Content hash of the full parameter mapping (cache identity)."""
        payload = json.dumps(
            self.to_params(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Compact human-readable rendering for tables and logs."""
        return (
            f"{self.name}[{self.population.describe()},"
            f"{self.update_rule},E={self.n_epochs}]"
        )


# -- the streamed engine ------------------------------------------------------


#: The carried columns in their on-disk order within a chunk's region:
#: stake, cost multiplier, post-selection synchrony mask, action.
_CARRY_DTYPES: Tuple[np.dtype, ...] = tuple(
    np.dtype(kind) for kind in (np.float64, np.float64, np.bool_, np.int8)
)
_CARRY_BYTES = sum(dtype.itemsize for dtype in _CARRY_DTYPES)  # 18 per agent


class _EpochCarry:
    """Each chunk's realized epoch columns, carried from pass to pass.

    Four columns per agent, 18 bytes: the float64 stake, the float64
    cost multiplier, the post-selection strong-synchrony mask and the
    int8 action (0=C, 1=D).  They live in an anonymous temp file, each
    chunk's columns one after another in its own region at byte
    ``offset * 18``, read and written with explicit file I/O: RAM stays
    O(chunk) (pages touched through ``np.memmap`` would count toward the
    process's resident high-water mark instead).  A per-chunk tag
    records which epoch the spill holds (-1 before the chunk's first
    write); the chunk table, filled in stream order by the epoch-0
    measure pass, is the layout every later pass streams.
    """

    def __init__(self) -> None:
        self._file: IO[bytes] = tempfile.TemporaryFile()
        self._held: Dict[int, Tuple[int, int]] = {}  # offset -> (n, epoch)

    def offsets(self) -> List[int]:
        """Every carried chunk's first agent, in stream order."""
        return list(self._held)

    def held_epoch(self, offset: int) -> int:
        """The epoch the spill holds for the chunk at ``offset`` (-1: none)."""
        held = self._held.get(offset)
        return -1 if held is None else held[1]

    def read(self, offset: int) -> Tuple[np.ndarray, ...]:
        """The chunk's ``(stake, cost, sync, action)`` at its held epoch."""
        n = self._held[offset][0]
        self._file.seek(offset * _CARRY_BYTES)
        return tuple(
            np.fromfile(self._file, dtype=dtype, count=n) for dtype in _CARRY_DTYPES
        )

    def write(
        self, offset: int, epoch: int, columns: Sequence[Optional[np.ndarray]]
    ) -> None:
        """Store the chunk's columns at ``epoch`` and advance its tag.

        ``columns`` follows the on-disk order; a None entry leaves that
        column as it is (the stake is always written).
        """
        n = columns[0].size
        position = offset * _CARRY_BYTES
        for column, dtype in zip(columns, _CARRY_DTYPES):
            if column is not None:
                self._file.seek(position)
                np.asarray(column, dtype=dtype).tofile(self._file)
            position += n * dtype.itemsize
        self._held[offset] = (n, epoch)

    def close(self) -> None:
        """Release the spill file (idempotent)."""
        self._file.close()


@dataclass
class _Engine:
    """Per-run constants shared by every pass of one dynamics run."""

    spec: PopulationDynamicsSpec
    config: PopulationAuditConfig
    scheme_name: str
    structure: _Structure
    slice_budget: np.ndarray  # (P,) pool budgets at the calibrated split
    cost_vec: np.ndarray  # (3,) role cooperation costs
    n_crowd: int
    n_sync: int  # strong-synchrony crowd agents
    n_nonsync: int
    churn_sampler: Optional[Callable[[np.random.Generator, int], np.ndarray]]
    carry: _EpochCarry

    @property
    def table(self):
        """The scheme's expanded pool tables."""
        return self.structure.tables[self.scheme_name]

    def close(self) -> None:
        """Release the column spill."""
        self.carry.close()


@dataclass
class _EpochAggregates:
    """One measured epoch: realized pool totals, census and record."""

    totals: np.ndarray  # (P,) realized pool weight totals
    rates: np.ndarray  # (P,) pool payout per unit weight (0 if no block)
    block_success: bool
    leader_coop: int
    committee_tally: float
    sync_defectors: int
    sole_sync_defector: Optional[int]
    record: EpochRecord

    @property
    def restorable(self) -> bool:
        """Whether the sole sync defector's switch to C restores the block."""
        return (
            self.sync_defectors == 1
            and self.sole_sync_defector is not None
            and self.leader_coop >= 1
        )


def _build_engine(
    spec: PopulationDynamicsSpec, scheme_name: str, structure: _Structure
) -> _Engine:
    """The run's constants, plus the column spill every pass streams."""
    pop = spec.population
    n_crowd = pop.size - structure.config.n_selected
    table = structure.tables[scheme_name]
    cost_vec = np.array(
        [structure.costs.leader, structure.costs.committee, structure.costs.online]
    )
    churn_sampler = None
    if spec.churn_rate > 0.0:
        churn_sampler = resolve_sampler(
            spec.churn_family or pop.family,
            spec.churn_params or pop.params,
        )
    return _Engine(
        spec=spec,
        config=structure.config,
        scheme_name=scheme_name,
        structure=structure,
        slice_budget=table.fractions * structure.b_i,
        cost_vec=cost_vec,
        n_crowd=n_crowd,
        n_sync=structure.crowd_sync,
        n_nonsync=n_crowd - structure.crowd_sync,
        churn_sampler=churn_sampler,
        carry=_EpochCarry(),
    )


def _initial_share(spec: PopulationDynamicsSpec, engine: _Engine) -> float:
    """Epoch-0 crowd cooperating share from the population's seeding.

    All ``round((1 - cooperation) * size)`` seeded defectors are crowd
    agents (the selected start cooperating), filling the non-synchrony
    crowd first — the in-memory scenarios' ``ONLINE_POOL`` convention.
    """
    defectors = round((1.0 - spec.population.cooperation) * spec.population.size)
    if engine.n_crowd == 0:
        return 1.0
    return min(1.0, max(0.0, 1.0 - defectors / engine.n_crowd))


def _thresholds(engine: _Engine, share: float) -> Tuple[float, float]:
    """Defection thresholds ``(non-sync, sync)`` realizing a crowd share.

    The crowd's defection mass fills the non-synchrony crowd first and
    spills into the synchrony set only once it is saturated — defection
    starts as free-riding and breaks blocks only under deep unraveling.
    """
    defect_mass = (1.0 - share) * engine.n_crowd
    p_nonsync = (
        min(1.0, defect_mass / engine.n_nonsync) if engine.n_nonsync else 0.0
    )
    spill = max(0.0, defect_mass - engine.n_nonsync)
    p_sync = min(1.0, spill / engine.n_sync) if engine.n_sync else 0.0
    return p_nonsync, p_sync


def _churned(
    engine: _Engine, offset: int, stake: np.ndarray, epoch: int
) -> np.ndarray:
    """The chunk's stakes after churn round ``epoch``.

    Every agent is resampled independently with probability
    ``churn_rate`` from the churn family by a position-preserving
    ``np.where`` (chunk-stable), then the selected agents are pinned to
    their epoch-0 stakes so the calibration, pool structure and quorum
    threshold stay exact.
    """
    pop = engine.spec.population
    n = stake.size
    sampler = engine.churn_sampler
    assert sampler is not None
    selector = pop.chunk_draws(
        offset, n, f"{_CHURN_SELECT_COLUMN}.{epoch}", lambda rng, n: rng.random(n)
    )
    fresh = pop.chunk_draws(
        offset, n, f"{_CHURN_STAKE_COLUMN}.{epoch}", sampler
    ).astype(np.float64, copy=False)
    stake = np.where(selector < engine.spec.churn_rate, fresh, stake)
    if not np.all(np.isfinite(stake)) or float(stake.min()) <= 0.0:
        raise ConfigurationError(
            "churn family produced non-positive or non-finite stakes"
        )
    in_chunk, local = _selected_rows(engine.structure, offset, n)
    stake[local] = engine.structure.selected_stake[in_chunk]
    return stake


def _carried_context(
    engine: _Engine,
    offset: int,
    stake: np.ndarray,
    cost: np.ndarray,
    sync: np.ndarray,
    action: np.ndarray,
) -> _ChunkContext:
    """One chunk's realized context from its four carried columns."""
    structure = engine.structure
    roles = _chunk_roles(structure, offset, stake.size)
    return _ChunkContext(
        offset=offset,
        n=stake.size,
        stake=stake,
        cost_multiplier=cost,
        roles=roles,
        sync=sync,
        coop=action == 0,
        action=action,
        coop_cost=engine.cost_vec[roles] * cost,
        sortition_cost=structure.costs.sortition * cost,
        cost_vec=engine.cost_vec,
    )


def _order_error(offset: int, held: int, pass_name: str, epoch: int) -> RuntimeError:
    """The error for a pass that asks for an epoch out of order."""
    return RuntimeError(
        f"column carry holds epoch {held} for the chunk at agent {offset}; "
        f"the {pass_name} pass cannot stream epoch {epoch}"
    )


def _measured_context(
    engine: _Engine,
    offset: int,
    epoch: int,
    thresholds: Optional[Tuple[float, float]],
    sel_action: np.ndarray,
    crowd_behavior: Optional[np.ndarray],
    chunk: Optional[PopulationArrays] = None,
) -> _ChunkContext:
    """One chunk's realized context at ``epoch``, advancing the carry.

    Epoch 0 takes the synthesized ``chunk``: its widened stakes and cost
    multipliers and its post-selection synchrony mask are the run's only
    block synthesis and synchrony draw, and all four columns are stored.
    Epoch ``e >= 1`` reads epoch ``e - 1``'s stake, cost and synchrony
    from the carry, applies churn round ``e`` (:func:`_churned`) and
    stores the new stakes and actions.  Crowd actions come from the
    epoch's uniform draws against ``thresholds`` (replicator
    realization), or from the persistent ``crowd_behavior`` array when
    ``thresholds`` is None (best-response mode); selected agents play
    their current best-response actions.  Any epoch but the one after
    the held epoch is an ordering bug and raises.
    """
    carry = engine.carry
    held = carry.held_epoch(offset)
    if epoch != held + 1:
        raise _order_error(offset, held, "measure", epoch)
    structure = engine.structure
    pop = engine.spec.population
    if held < 0:
        assert chunk is not None
        stake, cost = chunk.stake64(), chunk.cost64()
        sync = _sync_mask(pop, engine.config, chunk)
        sync[_selected_rows(structure, offset, chunk.n_agents)[1]] = False
    else:
        stake, cost, sync, _ = carry.read(offset)
        if engine.churn_sampler is not None:
            stake = _churned(engine, offset, stake, epoch)
    n = stake.size
    if thresholds is not None:
        uniforms = pop.chunk_draws(
            offset, n, f"{_REALIZE_COLUMN}.{epoch}", lambda rng, n: rng.random(n)
        )
        level = np.where(sync, thresholds[1], thresholds[0])
        action = (uniforms < level).astype(np.int8)
    else:
        assert crowd_behavior is not None
        action = crowd_behavior[offset : offset + n].copy()
    in_chunk, local = _selected_rows(structure, offset, n)
    action[local] = sel_action[in_chunk]
    # Cost and synchrony are written once, at epoch 0; they never change.
    fixed = (cost, sync) if held < 0 else (None, None)
    carry.write(offset, epoch, (stake, *fixed, action))
    return _carried_context(engine, offset, stake, cost, sync, action)


def _replayed_context(engine: _Engine, offset: int, epoch: int) -> _ChunkContext:
    """The held ``epoch``'s context, replayed verbatim from the carry.

    The update pass's view of the profile it revises: no draw, no
    synthesis.  Any other epoch is an ordering bug and raises.
    """
    held = engine.carry.held_epoch(offset)
    if epoch != held:
        raise _order_error(offset, held, "update", epoch)
    return _carried_context(engine, offset, *engine.carry.read(offset))


def _measure_pass(
    engine: _Engine,
    epoch: int,
    thresholds: Optional[Tuple[float, float]],
    sel_action: np.ndarray,
    crowd_behavior: Optional[np.ndarray],
    store_behavior: Optional[np.ndarray] = None,
) -> _EpochAggregates:
    """Stream the epoch's realized profile and fold its aggregates."""
    spec = engine.spec
    structure = engine.structure
    table = engine.table
    P = len(table.kinds)
    weight_coop: Optional[np.ndarray] = None
    weight_defect: Optional[np.ndarray] = None
    n_coop = 0
    coop_cost_sum = 0.0
    defect_cost_sum = 0.0
    sync_defectors = 0
    sole_candidates: List[int] = []

    # Epoch 0 streams the synthesized chunks; later epochs the carry's.
    stream = (
        ((chunk.offset, chunk) for chunk in _chunks(spec.population, engine.config))
        if epoch == 0
        else ((offset, None) for offset in engine.carry.offsets())
    )
    for offset, chunk in stream:
        ctx = _measured_context(
            engine, offset, epoch, thresholds, sel_action, crowd_behavior, chunk
        )
        if store_behavior is not None:
            store_behavior[offset : offset + ctx.n] = ctx.action
        weights = pool_weights(
            table, ctx.stake, ctx.cost_multiplier, ctx.roles, engine.cost_vec
        )
        contribution = weights * table.lookup[:, ctx.roles, ctx.action]
        weight_coop = blockwise_row_sums(
            np.where(ctx.coop, contribution, 0.0), start=weight_coop
        )
        weight_defect = blockwise_row_sums(
            np.where(~ctx.coop, contribution, 0.0), start=weight_defect
        )
        n_coop += int(np.count_nonzero(ctx.coop))
        coop_cost_sum = blockwise_sum(
            np.where(ctx.coop, ctx.coop_cost, 0.0), start=coop_cost_sum
        )
        defect_cost_sum = blockwise_sum(
            np.where(~ctx.coop, ctx.sortition_cost, 0.0), start=defect_cost_sum
        )
        sync_defect = ctx.sync & (ctx.action == 1)
        count = int(np.count_nonzero(sync_defect))
        if count and len(sole_candidates) < 2:
            rows = np.flatnonzero(sync_defect)[:2]
            sole_candidates.extend(offset + int(row) for row in rows)
        sync_defectors += count

    assert weight_coop is not None and weight_defect is not None
    leader_coop = int(
        np.count_nonzero(
            (structure.selected_role == LEADER) & (sel_action == 0)
        )
    )
    committee_tally = float(
        np.add.reduce(
            np.where(
                (structure.selected_role == COMMITTEE) & (sel_action == 0),
                structure.selected_stake,
                0.0,
            )
        )
    )
    block_success = (
        leader_coop >= 1
        and committee_tally > structure.quorum_threshold
        and sync_defectors == 0
    )
    totals = weight_coop + weight_defect
    rates = pool_rates(engine.slice_budget, totals) if block_success else np.zeros(P)
    reward_coop = float(np.dot(rates, weight_coop))
    reward_defect = float(np.dot(rates, weight_defect))

    size = spec.population.size
    n_defect = size - n_coop
    mean_coop = (reward_coop - coop_cost_sum) / n_coop if n_coop else 0.0
    mean_defect = (
        (reward_defect - defect_cost_sum) / n_defect if n_defect else 0.0
    )
    paid = reward_coop + reward_defect
    efficiency = reward_coop / paid if block_success and paid > 0 else 0.0
    record = EpochRecord(
        epoch=epoch,
        n_players=size,
        n_cooperating=n_coop,
        n_defecting=n_defect,
        n_offline=0,
        block_success=block_success,
        mean_payoff_cooperate=mean_coop,
        mean_payoff_defect=mean_defect,
        realized_final_fraction=None,
        budget_efficiency=efficiency,
    )
    sole = sole_candidates[0] if sync_defectors == 1 else None
    return _EpochAggregates(
        totals=totals,
        rates=rates,
        block_success=block_success,
        leader_coop=leader_coop,
        committee_tally=committee_tally,
        sync_defectors=sync_defectors,
        sole_sync_defector=sole,
        record=record,
    )


def _chunk_counterfactuals(
    engine: _Engine, ctx: _ChunkContext, aggregates: _EpochAggregates
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-agent counterfactual payoffs ``(u_C, u_D)`` for one chunk.

    ``u_C[j]`` / ``u_D[j]`` are agent ``offset + j``'s payoffs if it
    *alone* played C (resp. D) against the realized profile.  The pool
    algebra is the shared kernel, :func:`~repro.schemes.pools.pool_payments`,
    run with one budget row (the engine's calibrated slice budgets)
    against the epoch's realized totals; only the block rules differ
    from the audit's fixed target profile:

    * **block produced** — a crowd cooperator's exit breaks the block
      only when it sits in the strong-synchrony set; everyone else's
      deviation just moves pool weight;
    * **block failed** — nobody earns rewards, in the profile or after
      any unilateral deviation, except the *sole* sync defector (when
      leaders and quorum are otherwise fine), whose return to C restores
      the block.

    Valid for online-crowd rows; selected rows are revised by
    :func:`_selected_best_responses` and masked out by the caller.
    """
    payments = (engine.table, aggregates.totals, engine.slice_budget[None, :])
    if aggregates.block_success:
        _, paid_c, paid_d = pool_payments(*payments, *ctx.pool_columns, base=False)
        paid_d[:, ctx.sync] = 0.0
        utility_c = paid_c[0] - ctx.coop_cost
        utility_d = paid_d[0] - ctx.sortition_cost
    else:
        utility_c = -ctx.coop_cost.copy()
        utility_d = -ctx.sortition_cost.copy()
        sole = aggregates.sole_sync_defector
        if (
            aggregates.restorable
            and sole is not None
            and ctx.offset <= sole < ctx.offset + ctx.n
        ):
            local = sole - ctx.offset
            _, paid_c, _ = pool_payments(*payments, *ctx.pool_columns, base=False)
            utility_c[local] = paid_c[0, local] - ctx.coop_cost[local]
    return utility_c, utility_d


def _best_responses(
    coop: np.ndarray, utility_c: np.ndarray, utility_d: np.ndarray
) -> np.ndarray:
    """Synchronous best-response actions (0=C, 1=D) over {C, D}.

    A strict ``_BR_TOLERANCE`` improvement switches; ties keep the
    current action (O is dominated by D, so it is never compared).
    """
    return np.where(
        coop,
        np.where(utility_d > utility_c + _BR_TOLERANCE, 1, 0),
        np.where(utility_c > utility_d + _BR_TOLERANCE, 0, 1),
    ).astype(np.int8)


def _selected_best_responses(
    engine: _Engine, aggregates: _EpochAggregates, sel_action: np.ndarray
) -> np.ndarray:
    """Exact synchronous best responses of the selected agents.

    One :func:`~repro.schemes.pools.pool_payments` call prices every
    leader/committee member's switch to C and to D against the epoch's
    realized totals; each switch also recomputes the block transition
    (leader count / quorum tally) exactly, matching
    :func:`repro.core.equilibrium.synchronous_best_responses` — strict
    ``> 1e-15`` improvement to switch, ties keep the current action, and
    O is dominated by D (``rewards - c_so >= -c_so``), so only {C, D}
    are compared.
    """
    structure = engine.structure
    roles = structure.selected_role
    stake = structure.selected_stake
    multiplier = structure.selected_cost
    _, paid_c, paid_d = pool_payments(
        engine.table,
        aggregates.totals,
        engine.slice_budget[None, :],
        stake,
        multiplier,
        roles,
        sel_action,
        engine.cost_vec,
        base=False,
    )
    is_leader = roles == LEADER
    utilities = []
    for target, paid, cost in (
        (0, paid_c[0], engine.cost_vec[roles] * multiplier),
        (1, paid_d[0], structure.costs.sortition * multiplier),
    ):
        # A switch to C adds the agent to its role's tally, one to D
        # withdraws it (0 when the agent already plays the target).
        delta = sel_action.astype(np.int64) - target
        leaders_after = aggregates.leader_coop + np.where(is_leader, delta, 0)
        tally_after = aggregates.committee_tally + np.where(is_leader, 0, delta) * stake
        block_after = (
            (leaders_after >= 1)
            & (tally_after > structure.quorum_threshold)
            & (aggregates.sync_defectors == 0)
        )
        utilities.append(np.where(block_after, paid, 0.0) - cost)
    return _best_responses(sel_action == 0, *utilities)


def _update_pass(
    engine: _Engine,
    aggregates: _EpochAggregates,
    prev_epoch: int,
    sel_action: np.ndarray,
    crowd_behavior: Optional[np.ndarray],
    share: float,
) -> Tuple[float, np.ndarray]:
    """Replay the previous epoch's profile and compute the revisions.

    Returns ``(next crowd share, next selected actions)``; in
    best-response mode the crowd's new actions are written back into
    ``crowd_behavior`` in place (each chunk replays its carried profile,
    so the synchronous semantics hold).
    """
    spec = engine.spec
    registry = get_registry()
    telemetry = registry.enabled
    crowd_revisions = 0
    accumulator = ReplicatorAccumulator(
        intensity=spec.replicator_intensity, mutation=spec.replicator_mutation
    )
    for offset in engine.carry.offsets():
        ctx = _replayed_context(engine, offset, prev_epoch)
        utility_c, utility_d = _chunk_counterfactuals(engine, ctx, aggregates)
        crowd = ctx.roles == ONLINE
        if spec.update_rule == "replicator":
            accumulator.fold(utility_c, utility_d, include=crowd)
        else:
            assert crowd_behavior is not None
            switched = _best_responses(ctx.coop, utility_c, utility_d)
            if telemetry:
                crowd_revisions += int(np.sum(crowd & (switched != ctx.action)))
            crowd_behavior[offset : offset + ctx.n] = np.where(
                crowd, switched, ctx.action
            )
    next_selected = _selected_best_responses(engine, aggregates, sel_action)
    if telemetry:
        revisions = registry.counter(
            "repro_dynamics_revisions_total",
            "Strategy revisions applied by the update pass, by agent kind",
            labels=("kind",),
        )
        revisions.labels(kind="crowd").inc(float(crowd_revisions))
        revisions.labels(kind="selected").inc(
            float(int(np.sum(next_selected != sel_action)))
        )
    next_share = (
        accumulator.step(share) if spec.update_rule == "replicator" else share
    )
    return next_share, next_selected


def run_population_dynamics(
    spec: PopulationDynamicsSpec, scheme: SchemeLike
) -> ScenarioTrajectory:
    """Evolve one streamed population under one scheme; pure in the spec.

    Every random stream (sortition race, synchrony, realization uniforms,
    churn) comes from the population's seed-block tree, so the trajectory
    is a pure function of ``(spec, scheme)`` — and bit-identical at every
    ``chunk_agents`` value.  Returns a
    :class:`~repro.scenarios.dynamics.ScenarioTrajectory` whose scenario
    field carries ``spec.name`` (epoch 0 is the seeded initial state).
    """
    resolved = resolve_scheme(scheme)
    structure = _build_structure([resolved], spec.population, spec.audit_config())
    sel_action = np.zeros(structure.config.n_selected, dtype=np.int8)
    crowd_behavior = (
        np.zeros(spec.population.size, dtype=np.int8)
        if spec.update_rule == "best_response"
        else None
    )
    trajectory = ScenarioTrajectory(
        scenario=spec.name,
        scheme=resolved.name,
        b_i=structure.b_i,
        alpha=structure.split.alpha,
        beta=structure.split.beta,
    )
    registry = get_registry()
    telemetry = registry.enabled
    m_epoch_seconds = registry.histogram(
        "repro_dynamics_epoch_seconds",
        "Wall time of one streamed dynamics epoch (update + measure pass)",
        labels=("scheme",),
        buckets=DEFAULT_TIME_BUCKETS,
    )
    m_epochs = registry.counter(
        "repro_dynamics_epochs_total",
        "Streamed dynamics epochs evolved",
        labels=("scheme",),
    )
    engine = _build_engine(spec, resolved.name, structure)
    # closing() releases the column spill however the run ends.
    with closing(engine), span(
        "dynamics.run", agents=spec.population.size, epochs=spec.n_epochs
    ):
        share = _initial_share(spec, engine)
        thresholds: Optional[Tuple[float, float]] = _thresholds(engine, share)
        aggregates = _measure_pass(
            engine, 0, thresholds, sel_action, None, store_behavior=crowd_behavior
        )
        trajectory.records.append(aggregates.record)
        for epoch in range(1, spec.n_epochs + 1):
            epoch_started = time.perf_counter() if telemetry else 0.0
            share, sel_action = _update_pass(
                engine,
                aggregates,
                epoch - 1,
                sel_action,
                crowd_behavior,
                share,
            )
            if spec.update_rule == "replicator":
                thresholds = _thresholds(engine, share)
            else:
                thresholds = None
            aggregates = _measure_pass(
                engine, epoch, thresholds, sel_action, crowd_behavior
            )
            trajectory.records.append(aggregates.record)
            if telemetry:
                m_epochs.labels(scheme=resolved.name).inc()
                m_epoch_seconds.labels(scheme=resolved.name).observe(
                    time.perf_counter() - epoch_started
                )
    return trajectory


# -- the in-memory oracle -----------------------------------------------------


def _replayed_stake(engine: _Engine, chunk: PopulationArrays, epoch: int) -> np.ndarray:
    """The chunk's stakes at ``epoch``, replaying churn rounds 1..epoch.

    The oracle's own reference for the carried churn state: it redraws
    every round from scratch with the same columns and the same
    position-preserving ``np.where`` updates, then pins the selected
    agents once, sharing no state with the engine's column carry.  O(epoch)
    draws per call, so O(epochs^2) over a run — fine at oracle sizes.
    """
    stake = chunk.stake64()
    if engine.spec.churn_rate <= 0.0 or epoch == 0:
        return stake
    pop = engine.spec.population
    sampler = engine.churn_sampler
    assert sampler is not None
    for round_index in range(1, epoch + 1):
        selector = pop.chunk_draws(
            chunk.offset,
            chunk.n_agents,
            f"{_CHURN_SELECT_COLUMN}.{round_index}",
            lambda rng, n: rng.random(n),
        )
        fresh = pop.chunk_draws(
            chunk.offset,
            chunk.n_agents,
            f"{_CHURN_STAKE_COLUMN}.{round_index}",
            sampler,
        ).astype(np.float64, copy=False)
        stake = np.where(selector < engine.spec.churn_rate, fresh, stake)
    if not np.all(np.isfinite(stake)) or float(stake.min()) <= 0.0:
        raise ConfigurationError(
            "churn family produced non-positive or non-finite stakes"
        )
    in_chunk, local = _selected_rows(engine.structure, chunk.offset, chunk.n_agents)
    stake[local] = engine.structure.selected_stake[in_chunk]
    return stake


def oracle_population_dynamics(
    spec: PopulationDynamicsSpec,
    scheme: SchemeLike,
    max_agents: int = 2000,
) -> ScenarioTrajectory:
    """The streamed driver's semantics on the exact game engine (small n).

    Rebuilds the same realized structure (selection, synchrony,
    calibration, realization draws) as an in-memory
    :class:`~repro.core.game.AlgorandGame` and evolves it with the
    existing scalar pipeline — per-agent ``game.payoff`` deviations,
    :func:`~repro.core.equilibrium.synchronous_best_responses` and
    :func:`~repro.core.dynamics.replicator_step` — sharing no pool
    algebra with the chunked kernel.  The differential suite asserts the
    two trajectories agree epoch by epoch.  Guards: the population must
    fit (``max_agents``; every pass is O(n^2)) and carry no per-agent
    cost jitter (the scalar game models uniform role costs).
    """
    from repro.core.dynamics import (
        mean_payoff_by_strategy,
        replicator_step,
    )
    from repro.core.equilibrium import synchronous_best_responses
    from repro.core.game import (
        AlgorandGame,
        BlockSuccessModel,
        Player,
        PlayerRole,
        Strategy,
        with_deviation,
    )
    from repro.scenarios.dynamics import _measure

    pop = spec.population
    if pop.size > max_agents:
        raise ConfigurationError(
            f"the dynamics oracle is O(n^2) per epoch; population of "
            f"{pop.size} exceeds the limit of {max_agents}"
        )
    if pop.cost_jitter != 0.0:
        raise ConfigurationError(
            "the dynamics oracle models uniform role costs; use "
            "cost_jitter=0 populations to cross-check"
        )
    resolved = resolve_scheme(scheme)
    config = spec.audit_config()
    structure = _build_structure([resolved], pop, config)
    engine = _build_engine(spec, resolved.name, structure)
    engine.close()  # the oracle realizes its own columns; no spill needed
    population = pop.materialize()
    n = population.n_agents
    base_ctx = _chunk_context(structure, pop, population)
    roles, sync = base_ctx.roles, base_ctx.sync
    crowd = np.flatnonzero(roles == ONLINE)
    selected = [int(j) for j in structure.selected_index]

    def build_game(stake: np.ndarray) -> AlgorandGame:
        players = {
            j: Player(
                node_id=j, stake=float(stake[j]), role=PlayerRole(ROLES[int(roles[j])])
            )
            for j in range(n)
        }
        return AlgorandGame(
            players=players,
            costs=structure.costs,
            reward_rule=resolved.make_rule(structure.b_i, structure.split),
            success_model=BlockSuccessModel(
                committee_quorum=config.committee_quorum,
                synchrony_set=frozenset(int(j) for j in np.flatnonzero(sync)),
            ),
        )

    def realize(epoch: int, share: float, sel_actions: Dict[int, Strategy]):
        p_nonsync, p_sync = _thresholds(engine, share)
        uniforms = pop.chunk_draws(
            0, n, f"{_REALIZE_COLUMN}.{epoch}", lambda rng, count: rng.random(count)
        )
        profile: Dict[int, Strategy] = {}
        for j in range(n):
            if roles[j] != ONLINE:
                profile[j] = sel_actions[j]
            else:
                level = p_sync if sync[j] else p_nonsync
                profile[j] = (
                    Strategy.DEFECT if uniforms[j] < level else Strategy.COOPERATE
                )
        return profile

    share = _initial_share(spec, engine)
    sel_actions = {j: Strategy.COOPERATE for j in selected}
    game = build_game(_replayed_stake(engine, population, 0))
    profile = realize(0, share, sel_actions)
    trajectory = ScenarioTrajectory(
        scenario=spec.name,
        scheme=resolved.name,
        b_i=structure.b_i,
        alpha=structure.split.alpha,
        beta=structure.split.beta,
    )
    trajectory.records.append(_measure(0, game, profile, None))
    for epoch in range(1, spec.n_epochs + 1):
        responses = synchronous_best_responses(game, profile, selected)
        if spec.update_rule == "replicator":
            total_c = total_d = 0.0
            for j in crowd:
                total_c += game.payoff(
                    j, with_deviation(profile, int(j), Strategy.COOPERATE)
                )
                total_d += game.payoff(
                    j, with_deviation(profile, int(j), Strategy.DEFECT)
                )
            share = replicator_step(
                share,
                total_c / crowd.size,
                total_d / crowd.size,
                intensity=spec.replicator_intensity,
                mutation=spec.replicator_mutation,
            )
            sel_actions = dict(responses)
            game = build_game(_replayed_stake(engine, population, epoch))
            profile = realize(epoch, share, sel_actions)
        else:
            revised = dict(
                synchronous_best_responses(game, profile, list(range(n)))
            )
            revised.update(responses)
            game = build_game(_replayed_stake(engine, population, epoch))
            profile = revised
        trajectory.records.append(_measure(epoch, game, profile, None))
    return trajectory


# -- campaign integration -----------------------------------------------------


def dynamics_sweep_spec(
    specs: Sequence[PopulationDynamicsSpec],
    schemes: Sequence[SchemeLike] = ("foundation", "role_based"),
    seed: int = 2021,
) -> SweepSpec:
    """One shard per (dynamics spec, scheme) grid point.

    Both axes carry full parameter mappings (the spec's
    :meth:`~PopulationDynamicsSpec.to_params` and the scheme's
    ``to_params``), so the orchestrator's content-addressed cache key
    covers every field and workers never need a registry.  The driver is
    a pure function of the spec (all randomness lives in the
    population's seed tree), so the shard ignores its sweep seed;
    ``seed`` still participates in the cache key via ``root_seed``.
    """
    from repro.scenarios.experiment import CAMPAIGN_VERSION

    if not specs:
        raise ConfigurationError("dynamics campaign needs at least one spec")
    if not schemes:
        raise ConfigurationError("dynamics campaign needs at least one scheme")
    return SweepSpec(
        name="population-dynamics",
        grid={
            "dynamics": [spec.to_params() for spec in specs],
            "scheme": [resolve_scheme(scheme).to_params() for scheme in schemes],
        },
        base={},
        root_seed=seed,
        version=CAMPAIGN_VERSION,
    )


def _dynamics_shard(params: Mapping[str, Any], _seed: int) -> Dict[str, object]:
    """One campaign shard: a full streamed trajectory payload."""
    spec = PopulationDynamicsSpec.from_params(params["dynamics"])
    return run_population_dynamics(spec, params["scheme"]).to_payload()


def run_population_dynamics_campaign(
    specs: Sequence[PopulationDynamicsSpec],
    schemes: Sequence[SchemeLike] = ("foundation", "role_based"),
    seed: int = 2021,
    workers: Union[int, str, None] = 1,
    cache_dir: Union[str, Path, None] = None,
    progress: bool = False,
    policy: Optional[ExecutionPolicy] = None,
) -> Dict[Tuple[str, str], ScenarioTrajectory]:
    """Run a grid of streamed dynamics through the sweep orchestrator.

    Shards cache, resume and merge exactly like the scenario campaigns;
    returns ``{(spec name, scheme name): trajectory}`` in grid order.
    ``policy`` sets the sweep's robustness envelope (retries, timeouts).
    """
    sweep_spec = dynamics_sweep_spec(specs, schemes, seed)
    sweep = run_sweep(
        sweep_spec,
        _dynamics_shard,
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
        policy=policy,
    )
    payloads = sweep.results()
    scheme_names = [resolve_scheme(scheme).name for scheme in schemes]
    results: Dict[Tuple[str, str], ScenarioTrajectory] = {}
    index = 0
    for spec in specs:
        for scheme_name in scheme_names:
            results[(spec.name, scheme_name)] = ScenarioTrajectory.from_payload(
                payloads[index]
            )
            index += 1
    return results


# -- rendering and export -----------------------------------------------------


def render_dynamics_trajectories(
    trajectories: Mapping[Tuple[str, str], ScenarioTrajectory]
) -> str:
    """ASCII panels: defection share vs epoch plus a verdict table."""
    panels: List[str] = []
    names: List[str] = []
    for name, _scheme in trajectories:
        if name not in names:
            names.append(name)
    for name in names:
        series = {
            scheme: trajectory.defection_series()
            for (spec_name, scheme), trajectory in trajectories.items()
            if spec_name == name
        }
        panels.append(
            plotting.line_chart(
                series,
                title=f"Dynamics {name} — defection share vs epoch",
                y_min=0.0,
                y_max=1.0,
                height=10,
            )
        )
    rows = []
    for (name, scheme), trajectory in trajectories.items():
        final = trajectory.records[-1]
        blocks = trajectory.block_series()
        verdict = "stabilized" if trajectory.stabilized() else "moving"
        if final.defection_share >= 0.9:
            verdict = "unraveled"
        rows.append(
            (
                name,
                scheme,
                f"{final.defection_share:.3f}",
                f"{sum(blocks) / len(blocks):.2f}",
                f"{final.budget_efficiency:.2f}",
                verdict,
            )
        )
    panels.append(
        plotting.format_table(
            (
                "dynamics",
                "scheme",
                "final defection",
                "block rate",
                "efficiency",
                "verdict",
            ),
            rows,
            title="Streamed dynamics verdicts",
        )
    )
    return "\n\n".join(panels)


def dynamics_to_csv(
    trajectories: Mapping[Tuple[str, str], ScenarioTrajectory], path: PathLike
) -> None:
    """Write one row per (dynamics, scheme, epoch) as CSV."""
    rows: List[Sequence[object]] = []
    for (name, scheme), trajectory in trajectories.items():
        for record in trajectory.records:
            rows.append(
                (
                    name,
                    scheme,
                    record.epoch,
                    record.defection_share,
                    record.cooperation_share,
                    1.0 if record.block_success else 0.0,
                    record.mean_payoff_cooperate,
                    record.mean_payoff_defect,
                    record.budget_efficiency,
                    trajectory.b_i,
                    trajectory.alpha,
                    trajectory.beta,
                )
            )
    write_rows(
        path,
        (
            "dynamics",
            "scheme",
            "epoch",
            "defection_share",
            "cooperation_share",
            "block_success",
            "mean_payoff_cooperate",
            "mean_payoff_defect",
            "budget_efficiency",
            "b_i",
            "alpha",
            "beta",
        ),
        rows,
    )
