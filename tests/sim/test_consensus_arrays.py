"""The fast kernel's array BA* transition vs N independent state machines.

:class:`repro.sim.fastpath.ConsensusArrays` steps every node's BA* state
at once; :class:`repro.sim.ba_star.ConsensusStateMachine` (the DES's
engine) is the reference.  On random per-node tally sequences both must
emit the same directives — votes, helper votes, final votes — and hold
the same phase, values and conclusion after every step.

Array values are candidate indices: ``0`` is the empty block, ``-1`` a
timeout, and block ``k`` is index ``k`` (its hash here is ``k`` too).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.ba_star import FIRST_BINARY_STEP, ConsensusStateMachine, Phase
from repro.sim.fastpath import PHASES, ConsensusArrays
from repro.sim.messages import EMPTY_HASH

N_BLOCKS = 2


def _to_hash(index: int):
    return EMPTY_HASH if index == 0 else index


def _to_index(value) -> int:
    if value is None:
        return -1
    return 0 if value == EMPTY_HASH else value


def _results(n_nodes: int, n_steps: int):
    """Per step, per node: a timeout, the empty block or a block."""
    result = st.sampled_from([None, EMPTY_HASH] + list(range(1, N_BLOCKS + 1)))
    return st.lists(
        st.lists(result, min_size=n_nodes, max_size=n_nodes),
        min_size=n_steps,
        max_size=n_steps,
    )


@st.composite
def _rounds(draw):
    max_binary_steps = draw(st.integers(3, 12))
    n_nodes = draw(st.integers(1, 6))
    coins = draw(st.lists(st.integers(0, 1), min_size=12, max_size=12))
    starts = draw(
        st.lists(
            st.sampled_from([None] + list(range(1, N_BLOCKS + 1))),
            min_size=n_nodes,
            max_size=n_nodes,
        )
    )
    results = draw(_results(n_nodes, 2 + max_binary_steps))
    return max_binary_steps, coins, starts, results


def _assert_same_state(machines, arrays):
    for k, machine in enumerate(machines):
        assert machine.phase is PHASES[arrays.phase[k]]
        assert machine.current_value == _to_hash(arrays.current[k])
        assert machine.binary_input == _to_hash(arrays.binary_input[k])
        concluded = arrays.concluded_value[k]
        if concluded < 0:
            assert machine.concluded_value is None
            assert machine.concluded_binary_step is None
        else:
            assert machine.concluded_value == _to_hash(concluded)
            assert machine.concluded_binary_step == arrays.concluded_step[k]


def _replay(max_binary_steps, coins, starts, results):
    """Drive both forms through one round; return the machines' phases."""
    coin = lambda binary_step: coins[binary_step - 1]  # noqa: E731
    machines = [ConsensusStateMachine(max_binary_steps, coin) for _ in starts]
    start_votes = [machine.start(best) for machine, best in zip(machines, starts)]
    arrays = ConsensusArrays(
        np.array([_to_index(best) if best is not None else 0 for best in starts]),
        max_binary_steps,
        coin,
    )
    assert start_votes == [(1, _to_hash(v)) for v in arrays.current]
    _assert_same_state(machines, arrays)

    for step, counted in enumerate(results, start=1):
        directive = arrays.advance(step, np.array([_to_index(c) for c in counted]))
        for k, (machine, result) in enumerate(zip(machines, counted)):
            expected = machine.on_step_result(step, result)
            vote = (
                (step + 1, _to_hash(arrays.current[k])) if directive.vote[k] else None
            )
            assert expected.vote == vote
            assert expected.concluded == directive.concluded[k]
            value = _to_hash(arrays.concluded_value[k])
            helpers = (
                [(hs, value) for hs in directive.helper_steps]
                if directive.concluded[k]
                else []
            )
            assert expected.helper_votes == helpers
            assert expected.final_vote == (value if directive.final[k] else None)
        _assert_same_state(machines, arrays)
        assert arrays.active.tolist() == [
            not (m.concluded or m.failed) for m in machines
        ]
    return [machine.phase for machine in machines]


class TestArrayTransitionMatchesMachines:
    @given(_rounds())
    def test_random_tally_sequences(self, round_):
        phases = _replay(*round_)
        # A full step budget always ends every node's round.
        assert all(phase in (Phase.DONE, Phase.FAILED) for phase in phases)

    @given(st.integers(3, 12), st.integers(0, 1))
    def test_timeouts_fail_at_the_step_budget(self, max_binary_steps, coin_value):
        coins = [coin_value] * 12
        results = [[None, None]] * (2 + max_binary_steps)
        phases = _replay(max_binary_steps, coins, [1, None], results)
        assert phases == [Phase.FAILED, Phase.FAILED]

    @given(st.integers(3, 12))
    def test_block_in_first_binary_step_earns_a_final_vote(self, max_binary_steps):
        results = [[1, 1, None]] * (2 + max_binary_steps)
        phases = _replay(max_binary_steps, [0] * 12, [1, 1, None], results)
        assert phases[:2] == [Phase.DONE, Phase.DONE]

    def test_coin_step_follows_the_shared_flip(self):
        arrays = ConsensusArrays(np.array([2, 2]), 12, lambda step: step % 2)
        for step, counted in [(1, [2, 2]), (2, [2, 2]), (3, [0, 0]), (4, [-1, -1])]:
            arrays.advance(step, np.array(counted))
        # Binary step 3 is the coin step; coin(3) = 1 sends timeouts empty.
        directive = arrays.advance(FIRST_BINARY_STEP + 2, np.array([-1, 1]))
        assert directive.vote.tolist() == [True, True]
        assert arrays.current.tolist() == [0, 1]
