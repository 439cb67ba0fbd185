"""Property tests for the pool-payment kernel and the gain reducer.

* :func:`pool_payments` computes the budget-independent pool algebra
  once and then folds every budget row; row ``k`` must equal a
  single-budget call at ``slice_budget[k]`` — and the per-budget
  reference formula below — bit for bit, signed zeros included.
* The kernel broadcasts over a leading population axis: one call on
  stacked ``(B_pop, n)`` columns, with per-row totals and slice budgets,
  must equal the per-row calls bit for bit.
* :class:`_GainReducer` folds gain chunks with copy-free reductions; it
  must return exactly what the ``np.nanmax`` / ``np.nanargmax``
  reference fold returns: max gain, max shirk gain, deviation count and
  witness (first (agent, target) pair on ties).
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schemes.base import TARGETS, WeightKind
from repro.schemes.pools import PoolTables, pool_payments, pool_weights
from repro.schemes.population_audit import _GainReducer

_KINDS = list(WeightKind)


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.int64)


_COST_VEC = np.array([3.0, 2.0, 0.5])


def _random_tables(rng: np.random.Generator) -> PoolTables:
    P = int(rng.integers(1, 5))
    return PoolTables(
        fractions=rng.random(P),
        lookup=rng.random((P, 3, 2)) < 0.5,
        kinds=[_KINDS[i] for i in rng.integers(0, len(_KINDS), P)],
        exponents=rng.choice([0.0, 0.5, 1.0, 2.0], P),
    )


def _random_row(rng: np.random.Generator, tables: PoolTables, n: int, n_budgets: int):
    """One population's columns, totals and slice budgets.

    Zero weights and dead pools included: totals mix live pools, empty
    ones (0) and broken ones (< 0), so the payable mask and the base
    rate's zero branch both get exercised.
    """
    P = len(tables.kinds)
    columns = (
        rng.choice([0.0, 1.0, 2.5, 40.0], n) * rng.random(n).round(1),  # stake
        rng.choice([0.0, 1.0, 1.5], n),  # cost multiplier
        rng.integers(0, 3, n).astype(np.int8),  # roles
        (rng.random(n) < 0.5).astype(np.int8),  # action
    )
    totals = rng.choice([0.0, -1.0, 5.0, 80.0], P) + rng.random(P).round(2)
    totals[rng.random(P) < 0.3] = 0.0
    budgets = rng.choice([0.5, 1.0, 1.5, 2.0, 3.7], n_budgets)
    return columns, totals, budgets[:, None] * tables.fractions


def _random_case(seed: int, n_budgets: int):
    """Pool tables, one population's columns, totals and slice budgets."""
    rng = np.random.default_rng(seed)
    tables = _random_tables(rng)
    columns, totals, slice_budget = _random_row(
        rng, tables, int(rng.integers(1, 60)), n_budgets
    )
    return tables, columns + (_COST_VEC,), totals, slice_budget


def _reference_payments(tables, columns, totals, slice_budget_row):
    """The per-budget formula: (P, n) weights, one budget at a time."""
    stake, cost_multiplier, roles, action, cost_vec = columns
    P = len(tables.kinds)
    n = stake.size
    weights = pool_weights(tables, stake, cost_multiplier, roles, cost_vec)
    member = np.stack([tables.lookup[p, roles, action] for p in range(P)])
    contribution = weights * member
    base = np.zeros(n)
    for p in range(P):
        rate = slice_budget_row[p] / totals[p] if totals[p] > 0 else 0.0
        base += rate * contribution[p]
    paid = []
    for target in (0, 1):
        rewards = np.zeros(n)
        for p in range(P):
            new_contribution = weights[p] * tables.lookup[p, roles, target]
            new_totals = totals[p] - contribution[p] + new_contribution
            payable = (new_contribution > 0) & (new_totals > 0)
            pool_reward = np.zeros(n)
            np.divide(
                slice_budget_row[p] * new_contribution,
                new_totals,
                out=pool_reward,
                where=payable,
            )
            rewards += pool_reward
        paid.append(rewards)
    return base, paid[0], paid[1]


@given(seed=st.integers(min_value=0, max_value=2**31), n_budgets=st.integers(1, 4))
@settings(max_examples=80)
def test_budget_rows_equal_single_budget_calls_bitwise(seed, n_budgets):
    tables, columns, totals, slice_budget = _random_case(seed, n_budgets)
    n = columns[0].size
    fused = pool_payments(tables, totals, slice_budget, *columns)
    assert all(out.shape == (n_budgets, n) for out in fused)
    for k in range(n_budgets):
        single = pool_payments(tables, totals, slice_budget[k : k + 1], *columns)
        reference = _reference_payments(tables, columns, totals, slice_budget[k])
        for got, one, ref in zip(fused, single, reference):
            assert np.array_equal(_bits(got[k]), _bits(one[0]))
            assert np.array_equal(_bits(got[k]), _bits(ref))


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n_pop=st.integers(1, 5),
    n_budgets=st.integers(1, 3),
)
@settings(max_examples=80)
def test_population_axis_broadcast_equals_per_row_calls_bitwise(
    seed, n_pop, n_budgets
):
    """Stacked ``(B_pop, n)`` columns, totals ``(P, B_pop, 1)`` and slice
    budgets ``(B, P, B_pop, 1)``: one call equals the per-row calls."""
    rng = np.random.default_rng(seed)
    tables = _random_tables(rng)
    n = int(rng.integers(1, 40))
    rows = [_random_row(rng, tables, n, n_budgets) for _ in range(n_pop)]
    stacked = tuple(np.stack([row[0][i] for row in rows]) for i in range(4))
    totals = np.stack([row[1] for row in rows], axis=1)[:, :, None]
    slice_budget = np.stack([row[2] for row in rows], axis=2)[:, :, :, None]
    broadcast = pool_payments(tables, totals, slice_budget, *stacked, _COST_VEC)
    assert all(out.shape == (n_budgets, n_pop, n) for out in broadcast)
    for b, (columns, row_totals, row_budget) in enumerate(rows):
        single = pool_payments(tables, row_totals, row_budget, *columns, _COST_VEC)
        for got, one in zip(broadcast, single):
            assert np.array_equal(_bits(got[:, b]), _bits(one))


def test_base_rewards_can_be_skipped():
    tables, columns, totals, slice_budget = _random_case(3, 2)
    with_base = pool_payments(tables, totals, slice_budget, *columns)
    base, paid_c, paid_d = pool_payments(
        tables, totals, slice_budget, *columns, base=False
    )
    assert base is None
    assert np.array_equal(_bits(paid_c), _bits(with_base[1]))
    assert np.array_equal(_bits(paid_d), _bits(with_base[2]))


# -- the reducer ---------------------------------------------------------------


def _reference_fold(chunks):
    """The nanmax/nanargmax fold the reducer replaced."""
    max_gain, max_shirk, n_deviations, witness = -math.inf, -math.inf, 0, None
    offset = 0
    for gains, coop in chunks:
        n_deviations += int(np.count_nonzero(~np.isnan(gains)))
        if not np.all(np.isnan(gains)):
            chunk_max = float(np.nanmax(gains))
            if chunk_max > max_gain:
                max_gain = chunk_max
                j, t = divmod(int(np.nanargmax(gains)), 3)
                witness = (offset + j, "C" if coop[j] else "D", TARGETS[t])
        shirk = np.where(coop[:, None], gains[:, 1:], np.nan)
        if not bool(np.all(np.isnan(shirk))):
            max_shirk = max(max_shirk, float(np.nanmax(shirk)))
        offset += gains.shape[0]
    return max_gain, max_shirk, n_deviations, witness


def _fold(chunks):
    structure = SimpleNamespace(
        selected_index=np.array([], dtype=np.int64),
        selected_role=np.array([], dtype=np.int8),
    )
    reducer = _GainReducer(structure)
    offset = 0
    for gains, coop in chunks:
        n = gains.shape[0]
        chunk = SimpleNamespace(
            offset=offset, n_agents=n, stake64=lambda n=n: np.ones(n)
        )
        reducer.update(chunk, gains, coop)
        offset += n
    witness = reducer.witness
    assert witness is None or witness.role == "online"
    return (
        reducer.max_gain,
        reducer.max_shirk,
        reducer.n_deviations,
        None
        if witness is None
        else (witness.player, witness.from_strategy, witness.to_strategy),
    )


def _assert_same_fold(chunks):
    got, ref = _fold(chunks), _reference_fold(chunks)
    assert got[2:] == ref[2:]
    for value, expected in zip(got[:2], ref[:2]):
        assert math.copysign(1.0, value) == math.copysign(1.0, expected)
        assert value == expected


_VALUES = np.array([np.nan, -np.inf, -1.0, -0.0, 0.0, 0.5, 2.0])


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n_chunks=st.integers(1, 4),
    coop_rate=st.sampled_from([0.0, 0.5, 1.0]),
    top=st.integers(2, len(_VALUES)),
)
@settings(max_examples=150)
def test_reducer_matches_nan_reference(seed, n_chunks, coop_rate, top):
    """Ties, signed zeros, -inf and cooperator-free chunks from a tiny
    value alphabet (``top`` caps it, so zeros are often the maximum)."""
    rng = np.random.default_rng(seed)
    chunks = []
    for _ in range(n_chunks):
        n = int(rng.integers(1, 40))
        gains = rng.choice(_VALUES[:top], (n, 3))
        chunks.append((gains, rng.random(n) < coop_rate))
    _assert_same_fold(chunks)


def test_reducer_ties_break_to_first_agent_then_target():
    gains = np.array(
        [[np.nan, 0.5, 1.0], [np.nan, 1.0, 1.0], [2.0, np.nan, 2.0], [2.0, np.nan, 2.0]]
    )
    coop = np.array([True, True, False, False])
    _assert_same_fold([(gains, coop)])
    assert _fold([(gains, coop)])[3] == (2, "D", "C")
    # A tie in a later chunk never displaces the first witness.
    assert _fold([(gains, coop), (gains, coop)])[3] == (2, "D", "C")


def test_reducer_signed_zero_maxima():
    for first, second in ((-0.0, 0.0), (0.0, -0.0)):
        gains = np.array([[np.nan, first, -1.0], [np.nan, second, -np.inf]])
        coop = np.array([True, True])
        _assert_same_fold([(gains, coop)])
        _assert_same_fold([(gains[::-1].copy(), coop)])


def test_reducer_all_negative_infinity_and_no_cooperators():
    gains = np.full((5, 3), -np.inf)
    gains[:, 1] = np.nan
    coop = np.zeros(5, dtype=bool)  # no cooperator: the shirk set is empty
    _assert_same_fold([(gains, coop)])
    max_gain, max_shirk, n_deviations, witness = _fold([(gains, coop)])
    assert max_gain == -math.inf and max_shirk == -math.inf
    assert n_deviations == 10 and witness is None


def test_reducer_witness_role_for_selected_agent():
    structure = SimpleNamespace(
        selected_index=np.array([7, 1], dtype=np.int64),
        selected_role=np.array([0, 1], dtype=np.int8),
    )
    reducer = _GainReducer(structure)
    gains = np.array([[np.nan, 0.1, 0.2], [np.nan, 3.0, 0.0]])
    chunk = SimpleNamespace(offset=0, n_agents=2, stake64=lambda: np.array([4.0, 9.0]))
    reducer.update(chunk, gains, np.array([True, True]))
    assert reducer.witness.player == 1 and reducer.witness.role == "committee"
    assert reducer.witness.stake == 9.0 and reducer.witness.to_strategy == "D"
