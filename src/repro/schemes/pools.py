"""The pool-payment kernel: one home for the unilateral-deviation algebra.

Every registered scheme pays its budget through pools
(:meth:`~repro.schemes.base.RewardScheme.pools`): each pool's slice of the
budget is shared among its members in proportion to their within-pool
weights.  A unilateral deviation moves one agent's weight between pools
while everyone else stays put, so its payoff has a closed form in the pool
totals.  :func:`pool_payments` evaluates that form for every agent at
once and is the only implementation of it: the batch audit
(:mod:`repro.schemes.audit`), the streamed population audit
(:mod:`repro.schemes.population_audit`) and the streamed dynamics
(:mod:`repro.scenarios.population_dynamics`, crowd and selected agents
alike) all call it.

The agent columns may be ``(n,)`` — one population — or ``(B_pop, N)`` —
a batch of populations, each with its own pool totals ``(P, B_pop, 1)``
and slice budgets ``(B, P, B_pop, 1)``.  Both layouts run the same
arithmetic in the same order, so a batched row is bit-identical to a
call on that row alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.schemes.base import ACTIONS, ROLES, RewardScheme, SchemeSplit, WeightKind


@dataclass
class PoolTables:
    """A scheme's pool structure expanded for the kernel."""

    fractions: np.ndarray  # (P,)
    lookup: np.ndarray  # (P, 3 roles, 2 actions) membership
    kinds: List[WeightKind]
    exponents: np.ndarray  # (P,)


def pool_tables(scheme: RewardScheme, split: SchemeSplit) -> PoolTables:
    """Expand one scheme's pools at ``split``."""
    pools = scheme.pools(split)
    P = len(pools)
    lookup = np.zeros((P, 3, 2), dtype=bool)
    for p, pool in enumerate(pools):
        for role, action in pool.members:
            lookup[p, ROLES.index(role), ACTIONS.index(action)] = True
    return PoolTables(
        fractions=np.array([pool.fraction for pool in pools], dtype=np.float64),
        lookup=lookup,
        kinds=[pool.weight for pool in pools],
        exponents=np.array([pool.exponent for pool in pools], dtype=np.float64),
    )


def _pool_weight(
    tables: PoolTables,
    p: int,
    stake: np.ndarray,
    cost_multiplier: np.ndarray,
    roles: np.ndarray,
    cost_vec: np.ndarray,
) -> np.ndarray:
    """Pool ``p``'s within-pool weights, shaped like ``stake`` (may alias it)."""
    kind = tables.kinds[p]
    if kind is WeightKind.STAKE:
        return stake
    if kind is WeightKind.EQUAL:
        return np.ones(stake.shape)
    if kind is WeightKind.STAKE_POWER:
        return stake ** tables.exponents[p]
    # COST — the cooperation cost of the member's role.
    return cost_vec[roles] * cost_multiplier


def pool_weights(
    tables: PoolTables,
    stake: np.ndarray,
    cost_multiplier: np.ndarray,
    roles: np.ndarray,
    cost_vec: np.ndarray,
) -> np.ndarray:
    """Within-pool weights ``(P,) + stake.shape`` (float64)."""
    per_agent = (stake, cost_multiplier, roles, cost_vec)
    weights = [_pool_weight(tables, p, *per_agent) for p in range(len(tables.kinds))]
    return np.stack(weights)


def pool_rates(slice_budget: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Payout per unit weight: ``slice_budget / totals``, 0 for empty pools."""
    rates = np.zeros(np.broadcast(slice_budget, totals).shape)
    return np.divide(slice_budget, totals, out=rates, where=totals > 0)


def pool_payments(
    tables: PoolTables,
    totals: np.ndarray,
    slice_budget: np.ndarray,
    stake: np.ndarray,
    cost_multiplier: np.ndarray,
    roles: np.ndarray,
    action: np.ndarray,
    cost_vec: np.ndarray,
    base: bool = True,
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Per-agent rewards ``(B,) + stake.shape`` for the ``B`` budget rows.

    Returns ``(base, if_c, if_d)``: rewards at the profile ``action``
    (0=C, 1=D; ``None`` unless ``base``) and if each agent *alone*
    switched to C, resp. D, against the pool ``totals`` — ``(P,)``, or
    ``(P, B_pop, 1)`` for ``(B_pop, N)`` columns, with ``slice_budget``
    ``(B, P)`` resp. ``(B, P, B_pop, 1)``.  A pool's weights, membership,
    contributions, new totals and payable mask are computed once; each
    budget row then repeats the single-budget arithmetic (scale, guarded
    divide, accumulate in pool order), so row ``k`` is bit-identical to
    a ``B = 1`` call at ``slice_budget[k]``.
    """
    shape = (slice_budget.shape[0],) + stake.shape
    base_rewards = np.zeros(shape) if base else None
    rewards = (np.zeros(shape), np.zeros(shape))
    pool_reward = np.empty(stake.shape)
    for p in range(len(tables.kinds)):
        weights = _pool_weight(tables, p, stake, cost_multiplier, roles, cost_vec)
        lookup = tables.lookup[p]
        contribution = weights * lookup[roles, action]
        if base_rewards is not None:
            rates = pool_rates(slice_budget[:, p], totals[p])
            for k, rate in enumerate(rates):
                base_rewards[k] += rate * contribution
        for target, accumulated in enumerate(rewards):
            new_contribution = weights * lookup[roles, target]
            new_totals = totals[p] - contribution + new_contribution
            payable = (new_contribution > 0) & (new_totals > 0)
            pool_reward.fill(0.0)  # unpayable entries are never written
            for k in range(shape[0]):
                scaled = slice_budget[k, p] * new_contribution
                np.divide(scaled, new_totals, out=pool_reward, where=payable)
                accumulated[k] += pool_reward
    return base_rewards, rewards[0], rewards[1]
