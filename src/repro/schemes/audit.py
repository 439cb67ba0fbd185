"""Vectorized incentive-compatibility audit for any registered scheme.

The paper proves incentive compatibility for exactly one mechanism
(Theorems 2-3).  This engine answers the general question — *is scheme X
epsilon-incentive-compatible under population Y?* — by brute force, fast:

1. **Population batches.**  Each audit *cell* (a stake distribution x a
   cost scale x a budget multiplier) samples ``n_populations`` whole
   player populations at once, assigns roles by stake-weighted sortition
   without replacement (an exponential-race draw, vectorized across the
   batch), picks the strong-synchrony set, and calibrates a per-population
   role split and Theorem 3 bound with Algorithm 1's analytic optimizer.
   The budget is ``budget_multiplier`` times the bound, so cells above 1
   probe the paper's "sufficiently rewarding" regime and cells below 1 the
   unraveling regime.  Populations are **scheme-independent**: every
   scheme is audited on identical populations, budgets and splits — a
   paired comparison.
2. **Deviation payoffs, closed form.**  The target profile (Theorem 3's
   "L, M and Y cooperate, the rest defect", or All-C) always produces a
   block; a unilateral deviation moves exactly one player between a
   scheme's pools and can at most flip the block-success predicate.  Both
   effects have closed forms in the pool totals, so the payoff of *every*
   player's deviation to *every* alternative strategy is computed in a
   handful of ``(n_populations, n_players)`` numpy operations — no game
   object, no per-player loop.  The pool algebra is
   :func:`repro.schemes.pools.pool_payments`, the kernel the streamed
   population audit and dynamics also run, broadcast over the
   population axis in one call.
3. **Certification.**  A cell is certified ``epsilon``-IC when no checked
   deviation gains more than ``epsilon``; otherwise the report carries the
   most profitable deviation as a concrete witness (population, player,
   role, stake, strategy change, gain).
4. **Oracle cross-check.**  A sampled subset of populations is re-audited
   through the scalar path — an :class:`~repro.core.game.AlgorandGame`
   built with the scheme's own :meth:`make_rule` and exact per-player
   ``payoff`` calls — and the two gain tensors must agree to float
   tolerance.  A disagreement raises :class:`~repro.errors.AuditError`:
   it would be a bug in the engine, not a property of the scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.csvio import PathLike, write_rows
from repro.core.bounds import RoleAggregates
from repro.core.costs import RoleCosts
from repro.core.game import (
    AlgorandGame,
    BlockSuccessModel,
    Player,
    PlayerRole,
    Strategy,
    with_deviation,
)
from repro.core.optimizer import minimize_reward_analytic
from repro.errors import AuditError, ConfigurationError
from repro.schemes.base import (
    COMMITTEE,
    LEADER,
    ONLINE,
    ROLES,
    TARGETS,
    RewardScheme,
    SchemeSplit,
)
from repro.schemes.pools import PoolTables, pool_payments, pool_tables, pool_weights
from repro.schemes.registry import SchemeLike, resolve_scheme
from repro.sim.rng import derive_seed

#: Stake distributions the audit grid may reference.
STAKE_KINDS: Tuple[str, ...] = ("uniform", "normal", "whale_mix")


@dataclass(frozen=True)
class AuditConfig:
    """The audit grid and population shape.

    One *cell* per ``(stake_kind, cost_scale, budget_multiplier)`` tuple;
    within each cell, ``n_populations`` independent populations of
    ``n_players`` players.  ``target`` selects the profile deviations are
    measured from: ``"theorem3"`` (leaders, committee and the strong
    synchrony set cooperate, the remaining online players defect) or
    ``"all_c"`` (everyone cooperates — Theorem 2's profile).
    """

    n_players: int = 24
    n_leaders: int = 3
    committee_size: int = 6
    synchrony_fraction: float = 0.5
    committee_quorum: float = 0.685
    n_populations: int = 16
    stake_kinds: Tuple[str, ...] = ("uniform", "whale_mix")
    cost_scales: Tuple[float, ...] = (1.0, 2.0)
    budget_multipliers: Tuple[float, ...] = (0.75, 1.25)
    epsilon: float = 1e-12
    target: str = "theorem3"
    oracle_samples: int = 2
    seed: int = 2021

    def __post_init__(self) -> None:
        if self.n_leaders < 1 or self.committee_size < 2:
            raise ConfigurationError("need >= 1 leader and >= 2 committee members")
        if self.n_players < self.n_leaders + self.committee_size + 2:
            raise ConfigurationError(
                f"{self.n_players} players cannot host {self.n_leaders} leaders "
                f"and a committee of {self.committee_size}"
            )
        if not 0.0 < self.synchrony_fraction <= 1.0:
            raise ConfigurationError("synchrony fraction must be in (0, 1]")
        if not 0.0 < self.committee_quorum < 1.0:
            raise ConfigurationError("committee quorum must be in (0, 1)")
        if self.n_populations < 1:
            raise ConfigurationError("need at least one population per cell")
        unknown = [kind for kind in self.stake_kinds if kind not in STAKE_KINDS]
        if unknown:
            raise ConfigurationError(
                f"unknown stake kinds {unknown}; choose from {STAKE_KINDS}"
            )
        if not self.stake_kinds or not self.cost_scales or not self.budget_multipliers:
            raise ConfigurationError("every grid axis needs at least one value")
        if any(scale <= 0 for scale in self.cost_scales):
            raise ConfigurationError("cost scales must be positive")
        if any(mult <= 0 for mult in self.budget_multipliers):
            raise ConfigurationError("budget multipliers must be positive")
        if self.epsilon < 0:
            raise ConfigurationError("epsilon must be >= 0")
        if self.target not in ("theorem3", "all_c"):
            raise ConfigurationError(
                f"unknown target profile {self.target!r}; "
                "choose 'theorem3' or 'all_c'"
            )
        if self.oracle_samples < 0:
            raise ConfigurationError("oracle_samples must be >= 0")

    @property
    def n_online(self) -> int:
        """Players outside the leader and committee sets."""
        return self.n_players - self.n_leaders - self.committee_size

    def synchrony_size(self) -> int:
        """Strong-synchrony set size implied by the fraction (minimum 1)."""
        return max(1, math.ceil(self.synchrony_fraction * self.n_online))


@dataclass(frozen=True)
class DeviationWitness:
    """One concrete profitable deviation found by the audit."""

    population: int
    player: int
    role: str
    stake: float
    from_strategy: str
    to_strategy: str
    gain: float

    def describe(self) -> str:
        """Compact rendering shared by audit reports and league tables."""
        return (
            f"{self.role} {self.from_strategy}->{self.to_strategy} "
            f"+{self.gain:.3g}"
        )


@dataclass(frozen=True)
class CellAudit:
    """The verdict for one scheme on one audit cell."""

    scheme: str
    stake_kind: str
    cost_scale: float
    budget_multiplier: float
    certified: bool
    epsilon: float
    max_gain: float
    max_shirk_gain: float
    n_deviations: int
    witness: Optional[DeviationWitness]
    mean_b_i: float
    oracle_populations: int
    oracle_max_diff: float

    @property
    def ic_margin(self) -> float:
        """How far the best deviation sits below profitability (`-max_gain`)."""
        return -self.max_gain

    @property
    def shirk_margin(self) -> float:
        """Margin over cooperators' work-reducing deviations (C->D, C->O).

        Cooperator-only schemes can fail full epsilon-IC because defectors
        profit from switching *to* cooperation — a deviation that helps
        the protocol.  This margin isolates the paper's actual concern:
        nobody assigned work profits from performing less of it.
        """
        return -self.max_shirk_gain


@dataclass
class AuditReport:
    """All cell verdicts for one scheme, plus export helpers."""

    scheme: str
    config: AuditConfig
    cells: List[CellAudit] = field(default_factory=list)

    @property
    def certified(self) -> bool:
        """Whether every audited cell is epsilon-IC."""
        return all(cell.certified for cell in self.cells)

    @property
    def ic_margin(self) -> float:
        """The worst (smallest) margin across cells."""
        return min(cell.ic_margin for cell in self.cells)

    @property
    def shirk_margin(self) -> float:
        """The worst margin over work-reducing deviations across cells."""
        return min(cell.shirk_margin for cell in self.cells)

    def worst_cell(self) -> CellAudit:
        """The cell with the smallest incentive-compatibility margin."""
        return min(self.cells, key=lambda cell: cell.ic_margin)

    def cell_for(
        self, stake_kind: str, cost_scale: float, budget_multiplier: float
    ) -> CellAudit:
        """Look up one audited cell by its grid coordinates."""
        for cell in self.cells:
            if (
                cell.stake_kind == stake_kind
                and cell.cost_scale == cost_scale
                and cell.budget_multiplier == budget_multiplier
            ):
                return cell
        raise ConfigurationError(
            f"no audited cell ({stake_kind}, {cost_scale}, {budget_multiplier})"
        )

    def render(self) -> str:
        """ASCII table of per-cell verdicts and witnesses."""
        from repro.analysis.plotting import format_table

        rows = []
        for cell in self.cells:
            witness = "" if cell.witness is None else cell.witness.describe()
            rows.append(
                (
                    cell.stake_kind,
                    f"{cell.cost_scale:g}",
                    f"{cell.budget_multiplier:g}",
                    "IC" if cell.certified else "DEVIATES",
                    f"{cell.max_gain:.3g}",
                    witness,
                )
            )
        return format_table(
            ("stakes", "cost x", "budget x", "verdict", "max gain", "best deviation"),
            rows,
            title=f"epsilon-IC audit — scheme {self.scheme!r} "
            f"(eps={self.config.epsilon:g}, {self.config.target} profile)",
        )

    def to_csv(self, path: PathLike) -> None:
        """Write one row per audited cell as CSV."""
        rows: List[Sequence[object]] = []
        for cell in self.cells:
            witness = cell.witness
            rows.append(
                (
                    cell.scheme,
                    cell.stake_kind,
                    cell.cost_scale,
                    cell.budget_multiplier,
                    int(cell.certified),
                    cell.epsilon,
                    cell.max_gain,
                    cell.max_shirk_gain,
                    cell.n_deviations,
                    cell.mean_b_i,
                    "" if witness is None else witness.role,
                    "" if witness is None else witness.from_strategy,
                    "" if witness is None else witness.to_strategy,
                    "" if witness is None else witness.gain,
                )
            )
        write_rows(
            path,
            (
                "scheme",
                "stake_kind",
                "cost_scale",
                "budget_multiplier",
                "certified",
                "epsilon",
                "max_gain",
                "max_shirk_gain",
                "n_deviations",
                "mean_b_i",
                "witness_role",
                "witness_from",
                "witness_to",
                "witness_gain",
            ),
            rows,
        )


# -- population cells ---------------------------------------------------------------


@dataclass
class _Cell:
    """One audit cell's scheme-independent population batch."""

    stake_kind: str
    cost_scale: float
    budget_multiplier: float
    quorum: float
    costs: RoleCosts
    stakes: np.ndarray  # (B, N) float
    roles: np.ndarray  # (B, N) int8 role codes
    sync: np.ndarray  # (B, N) bool — strong-synchrony membership
    coop: np.ndarray  # (B, N) bool — target-profile cooperation
    alphas: np.ndarray  # (B,) calibrated split
    betas: np.ndarray  # (B,)
    b_i: np.ndarray  # (B,) per-population budget
    oracle_rows: np.ndarray  # population indices re-checked by the oracle


def _sample_stakes(
    kind: str, rng: np.random.Generator, shape: Tuple[int, int]
) -> np.ndarray:
    """Batched stake sampling; mirrors the scenario stake catalog."""
    if kind == "uniform":
        return rng.uniform(1.0, 50.0, shape)
    if kind == "normal":
        return np.maximum(rng.normal(100.0, 10.0, shape), 1.0)
    stakes = rng.uniform(1.0, 50.0, shape)
    n_whales = max(1, round(0.10 * shape[1]))
    order = np.argsort(rng.random(shape), axis=1)
    whale_cols = order[:, :n_whales]
    rows = np.arange(shape[0])[:, None]
    stakes[rows, whale_cols] = np.maximum(
        rng.normal(2000.0, 25.0, (shape[0], n_whales)), 1.0
    )
    return stakes


def _build_cell(
    config: AuditConfig,
    stake_kind: str,
    cost_scale: float,
    budget_multiplier: float,
) -> _Cell:
    """Sample and calibrate one cell; deterministic in the config seed.

    The seed derivation covers only the cell coordinates — not the scheme —
    so every scheme is audited against identical populations.
    """
    rng = np.random.default_rng(
        derive_seed(
            config.seed,
            f"audit:{stake_kind}:{cost_scale:g}:x{budget_multiplier:g}",
        )
    )
    B, N = config.n_populations, config.n_players
    stakes = _sample_stakes(stake_kind, rng, (B, N))

    # Stake-weighted sortition without replacement, batched: each player
    # draws an Exp(1)/stake race key; ascending key order is a weighted
    # sample without replacement (leaders first, then the committee).
    keys = rng.exponential(1.0, (B, N)) / stakes
    order = np.argsort(keys, axis=1, kind="stable")
    roles = np.full((B, N), ONLINE, dtype=np.int8)
    rows = np.arange(B)[:, None]
    roles[rows, order[:, : config.n_leaders]] = LEADER
    roles[
        rows, order[:, config.n_leaders : config.n_leaders + config.committee_size]
    ] = COMMITTEE

    # Strong synchrony set: a uniform draw among the online players.
    sync_keys = rng.random((B, N))
    sync_keys[roles != ONLINE] = np.inf
    sync_order = np.argsort(sync_keys, axis=1, kind="stable")
    sync = np.zeros((B, N), dtype=bool)
    sync[rows, sync_order[:, : config.synchrony_size()]] = True

    coop = (
        np.ones((B, N), dtype=bool)
        if config.target == "all_c"
        else (roles != ONLINE) | sync
    )

    base = RoleCosts.paper_defaults()
    costs = RoleCosts(
        leader=base.leader * cost_scale,
        committee=base.committee * cost_scale,
        online=base.online * cost_scale,
        sortition=base.sortition * cost_scale,
    )

    alphas = np.empty(B)
    betas = np.empty(B)
    b_i = np.empty(B)
    for b in range(B):
        leader_stakes = stakes[b][roles[b] == LEADER]
        committee_stakes = stakes[b][roles[b] == COMMITTEE]
        online_stakes = stakes[b][roles[b] == ONLINE]
        sync_stakes = stakes[b][sync[b]]
        aggregates = RoleAggregates(
            stake_leaders=float(leader_stakes.sum()),
            stake_committee=float(committee_stakes.sum()),
            stake_others=float(online_stakes.sum()),
            min_leader=float(leader_stakes.min()),
            min_committee=float(committee_stakes.min()),
            min_other=float(sync_stakes.min()),
        )
        split = minimize_reward_analytic(costs, aggregates)
        alphas[b] = split.alpha
        betas[b] = split.beta
        b_i[b] = budget_multiplier * split.b_i

    n_oracle = min(config.oracle_samples, B)
    oracle_rows = (
        rng.choice(B, size=n_oracle, replace=False)
        if n_oracle
        else np.empty(0, dtype=int)
    )
    return _Cell(
        stake_kind=stake_kind,
        cost_scale=cost_scale,
        budget_multiplier=budget_multiplier,
        quorum=config.committee_quorum,
        costs=costs,
        stakes=stakes,
        roles=roles,
        sync=sync,
        coop=coop,
        alphas=alphas,
        betas=betas,
        b_i=b_i,
        oracle_rows=np.sort(oracle_rows),
    )


# -- the vectorized deviation-gain kernel -------------------------------------------


def _pool_tables(scheme: RewardScheme, cell: _Cell) -> Tuple[np.ndarray, PoolTables]:
    """A scheme's pools over one cell's populations.

    Returns ``(fractions, tables)``: per-population pool fractions
    ``(B, P)`` (splits differ across populations) and the pool structure
    at population 0's split.  The pool *structure* (names, members,
    weight kinds) must not depend on the split — only the fractions may.
    """
    B = cell.stakes.shape[0]
    reference_split = SchemeSplit(cell.alphas[0], cell.betas[0])
    reference = scheme.pools(reference_split)
    P = len(reference)
    fractions = np.empty((B, P))
    for b in range(B):
        pools = scheme.pools(SchemeSplit(cell.alphas[b], cell.betas[b]))
        if len(pools) != P or any(
            p.name != r.name
            or p.members != r.members
            or p.weight != r.weight
            or p.exponent != r.exponent
            for p, r in zip(pools, reference)
        ):
            raise AuditError(
                f"scheme {scheme.name!r} changes pool structure with the split; "
                "only pool fractions may depend on (alpha, beta)"
            )
        fractions[b] = [pool.fraction for pool in pools]
    return fractions, pool_tables(scheme, reference_split)


def _vectorized_gains(scheme: RewardScheme, cell: _Cell) -> np.ndarray:
    """Deviation gains for every player and alternative, shape (3, B, N).

    Entry ``[t, b, j]`` is the payoff gain of player ``j`` in population
    ``b`` unilaterally switching to ``TARGETS[t]``; ``nan`` marks the
    player's current strategy (not a deviation).  One
    :func:`~repro.schemes.pools.pool_payments` call covers every
    population: the ``(B, N)`` columns carry their own pool totals and
    a single budget row of per-population slice budgets.
    """
    B, N = cell.stakes.shape
    fractions, tables = _pool_tables(scheme, cell)
    cost_vec = np.array(
        [cell.costs.leader, cell.costs.committee, cell.costs.online]
    )
    action = (~cell.coop).astype(np.int8)  # 0 = C, 1 = D
    # The batch has no per-agent cost multiplier (COST weights are the
    # role costs), hence the scalar 1.0 column.
    columns = (cell.stakes, 1.0, cell.roles, action, cost_vec)
    weights = pool_weights(tables, cell.stakes, 1.0, cell.roles, cost_vec)
    contribution = weights * tables.lookup[:, cell.roles, action]  # (P, B, N)
    totals = contribution.sum(axis=2, keepdims=True)  # (P, B, 1)
    slice_budget = (fractions * cell.b_i[:, None]).T[None, :, :, None]
    base_rewards, rewards_c, rewards_d = pool_payments(
        tables, totals, slice_budget, *columns
    )

    coop_cost = cost_vec[cell.roles]  # (B, N)
    current_cost = np.where(cell.coop, coop_cost, cell.costs.sortition)
    base_utility = base_rewards[0] - current_cost

    # Does a cooperator's withdrawal (to D or O) break the block?
    coop_leaders = ((cell.roles == LEADER) & cell.coop).sum(axis=1)  # (B,)
    sole_leader = (
        (cell.roles == LEADER) & cell.coop & (coop_leaders == 1)[:, None]
    )
    committee_stake = np.where(cell.roles == COMMITTEE, cell.stakes, 0.0)
    committee_coop = (committee_stake * cell.coop).sum(axis=1)
    quorum_threshold = cell.quorum * committee_stake.sum(axis=1)
    quorum_break = (
        (cell.roles == COMMITTEE)
        & cell.coop
        & ((committee_coop[:, None] - cell.stakes) <= quorum_threshold[:, None])
    )
    breaks = sole_leader | quorum_break | (cell.sync & cell.coop)

    gains = np.full((3, B, N), np.nan)

    # To C (only defectors deviate; their joining never breaks the block).
    utility_c = rewards_c[0] - coop_cost
    gains[0] = np.where(~cell.coop, utility_c - base_utility, np.nan)

    # To D (only cooperators deviate; may break the block).
    utility_d = np.where(breaks, 0.0, rewards_d[0]) - cell.costs.sortition
    gains[1] = np.where(cell.coop, utility_d - base_utility, np.nan)

    # To O (anyone; an offline player forfeits all rewards).
    gains[2] = -cell.costs.sortition - base_utility
    return gains


# -- the scalar oracle --------------------------------------------------------------


def _oracle_gains(
    scheme: RewardScheme, cell: _Cell, population: int
) -> np.ndarray:
    """The (3, N) gain tensor for one population via the game engine.

    Builds an :class:`AlgorandGame` with the scheme's own scalar rule and
    measures every unilateral deviation with exact ``payoff`` calls —
    sharing no code with the vectorized kernel.
    """
    b = population
    N = cell.stakes.shape[1]
    players = {
        j: Player(
            node_id=j,
            stake=float(cell.stakes[b, j]),
            role=PlayerRole(ROLES[int(cell.roles[b, j])]),
        )
        for j in range(N)
    }
    game = AlgorandGame(
        players=players,
        costs=cell.costs,
        reward_rule=scheme.make_rule(
            float(cell.b_i[b]), SchemeSplit(float(cell.alphas[b]), float(cell.betas[b]))
        ),
        success_model=BlockSuccessModel(
            committee_quorum=cell.quorum,
            synchrony_set=frozenset(int(j) for j in np.flatnonzero(cell.sync[b])),
        ),
    )
    profile = {
        j: Strategy.COOPERATE if cell.coop[b, j] else Strategy.DEFECT
        for j in range(N)
    }
    base = game.payoffs(profile)
    strategy_of = {"C": Strategy.COOPERATE, "D": Strategy.DEFECT, "O": Strategy.OFFLINE}
    gains = np.full((3, N), np.nan)
    for t, target in enumerate(TARGETS):
        alternative = strategy_of[target]
        for j in range(N):
            if profile[j] is alternative:
                continue
            gains[t, j] = (
                game.payoff(j, with_deviation(profile, j, alternative)) - base[j]
            )
    return gains


# -- entry points -------------------------------------------------------------------


def _audit_cell(scheme: RewardScheme, cell: _Cell, config: AuditConfig) -> CellAudit:
    gains = _vectorized_gains(scheme, cell)

    oracle_max_diff = 0.0
    for b in cell.oracle_rows:
        expected = _oracle_gains(scheme, cell, int(b))
        observed = gains[:, int(b), :]
        if not np.array_equal(np.isnan(expected), np.isnan(observed)):
            raise AuditError(
                f"scheme {scheme.name!r}: oracle and vectorized audits disagree "
                f"on which deviations exist (population {b})"
            )
        diff = np.nanmax(np.abs(expected - observed)) if expected.size else 0.0
        scale = max(1.0, float(np.nanmax(np.abs(expected))))
        if diff > 1e-9 + 1e-6 * scale:
            raise AuditError(
                f"scheme {scheme.name!r}: vectorized deviation payoffs diverge "
                f"from the game oracle by {diff:.3e} (population {b})"
            )
        oracle_max_diff = max(oracle_max_diff, float(diff))

    valid = ~np.isnan(gains)
    max_gain = float(np.nanmax(gains))
    # Work-reducing deviations by cooperators only: C->D (gains[1] is nan
    # for defectors already) and C->O.
    max_shirk_gain = float(
        np.nanmax(np.stack([gains[1], np.where(cell.coop, gains[2], np.nan)]))
    )
    witness: Optional[DeviationWitness] = None
    if max_gain > config.epsilon:
        t, b, j = np.unravel_index(int(np.nanargmax(gains)), gains.shape)
        witness = DeviationWitness(
            population=int(b),
            player=int(j),
            role=ROLES[int(cell.roles[b, j])],
            stake=float(cell.stakes[b, j]),
            from_strategy="C" if cell.coop[b, j] else "D",
            to_strategy=TARGETS[t],
            gain=max_gain,
        )
    return CellAudit(
        scheme=scheme.name,
        stake_kind=cell.stake_kind,
        cost_scale=cell.cost_scale,
        budget_multiplier=cell.budget_multiplier,
        certified=max_gain <= config.epsilon,
        epsilon=config.epsilon,
        max_gain=max_gain,
        max_shirk_gain=max_shirk_gain,
        n_deviations=int(valid.sum()),
        witness=witness,
        mean_b_i=float(cell.b_i.mean()),
        oracle_populations=len(cell.oracle_rows),
        oracle_max_diff=oracle_max_diff,
    )


def audit_schemes(
    schemes: Sequence[SchemeLike], config: AuditConfig = AuditConfig()
) -> Dict[str, AuditReport]:
    """Audit several schemes on *shared* populations (a paired comparison)."""
    resolved = [resolve_scheme(item) for item in schemes]
    names = [item.name for item in resolved]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate schemes in audit request: {names}")
    reports = {
        item.name: AuditReport(scheme=item.name, config=config)
        for item in resolved
    }
    for stake_kind in config.stake_kinds:
        for cost_scale in config.cost_scales:
            for multiplier in config.budget_multipliers:
                cell = _build_cell(config, stake_kind, cost_scale, multiplier)
                for item in resolved:
                    reports[item.name].cells.append(
                        _audit_cell(item, cell, config)
                    )
    return reports


def audit_scheme(
    scheme: SchemeLike, config: AuditConfig = AuditConfig()
) -> AuditReport:
    """Audit one scheme over the full config grid."""
    resolved = resolve_scheme(scheme)
    return audit_schemes([resolved], config)[resolved.name]
