"""Vectorized round-level simulation kernel (the ``"fast"`` backend).

The discrete-event simulator in :mod:`repro.sim.protocol` is the ground
truth: every gossip hop is an event, every node a callback-driven object.
That fidelity costs ~1 second per simulated round — the dominant cost of
the Figure 3 sweep and of every scenario epoch with ``simulate_rounds > 0``.
This module implements the same round semantics as batched array work:

* **Sortition** recomputes the *exact same* VRFs as the event-driven path
  (same keypairs, same seed chain, same domain tags) and inverts the
  binomial CDF with the batched :func:`repro.sim.sortition.binomial_weights`
  primitive, so per-step committee weights are bit-identical to the DES on
  paired seeds.
* **Gossip** is replaced by a reachability model: hop distances through
  the relaying subgraph (defectors and offline nodes do not forward) plus
  a calibrated :class:`LatencyModel` mapping time windows to hop budgets.
  A message cast at one step deadline reaches a node by a later deadline
  iff its hop distance fits the window's budget.  In a healthy network the
  budget exceeds the overlay diameter and the model is exact; under heavy
  defection the thinned relay graph disconnects and finality collapses —
  the same mechanism that drives the paper's Figure 3.
* **Agreement (BA*)** steps every online node at once:
  :class:`ConsensusArrays` holds the event path's
  :class:`~repro.sim.ba_star.ConsensusStateMachine` state as per-node
  arrays and applies each transition as a masked update (every active
  node receives a result at every step, so all share one binary step,
  one step kind and one coin).  Each step's CountVotes, for every node
  at once, is one reach-matrix product followed by the vectorized
  :func:`~repro.sim.ba_star.resolve_quorum` rule.

The kernel emits the same :class:`~repro.sim.metrics.RoundRecord` /
:class:`~repro.sim.metrics.SimulationMetrics` schema as the DES and honours
the same mechanism/behaviour hooks, so experiments switch backends through
:func:`make_simulation` without touching their measurement code.  The DES
remains available as the differential oracle
(``tests/sim/test_fastpath_oracle.py``).

Known approximations (tolerance-tested, never silently wrong):

* per-hop delays are collapsed to a fitted quantile (arrival becomes a
  deterministic hop-budget test instead of a random sum of uniforms),
* ``drop_probability`` thins the overlay once per round instead of per
  message, and
* malicious equivocation draws from a dedicated fast-path stream (the DES
  consumes per-node streams in arrival order, which has no analogue here).
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.sim import crypto
from repro.sim.ba_star import (
    FINAL_STEP,
    FIRST_BINARY_STEP,
    Phase,
    StepKind,
    binary_step_kind,
    make_common_coin,
    resolve_quorum,
)
from repro.sim.behavior import Behavior
from repro.sim.blocks import Block, ConsensusLabel, Ledger, Transaction, make_empty_block
from repro.sim.config import SimulationConfig
from repro.sim.messages import EMPTY_HASH
from repro.sim.metrics import RoundRecord, SimulationMetrics
from repro.sim.network import build_random_overlay
from repro.sim.node import RoundContext
from repro.sim.protocol import (
    AlgorandSimulation,
    RewardMechanism,
    TransactionSource,
    initial_stakes,
    resolve_behaviors,
)
from repro.sim.rng import RngStreams, derive_seed
from repro.sim.roles import RoleSnapshot
from repro.sim.sortition import Role, binomial_weights
from repro.telemetry.metrics import DEFAULT_SIZE_BUCKETS, DEFAULT_TIME_BUCKETS
from repro.telemetry.runtime import get_registry

#: Hop-distance sentinel for "no path through the relaying subgraph".
UNREACHABLE = np.iinfo(np.int32).max

#: Default per-hop latency quantile, fitted once from the DES via
#: :func:`fit_latency_model` on the reference configuration (60 nodes,
#: fanout 5, U(0.05, 0.30) hop delays): first-arrival times divided by hop
#: distance land near the 35th percentile of the per-hop delay
#: distribution — path multiplicity makes the effective hop cheaper than
#: the mean.  ``tests/sim/test_fastpath_oracle.py`` re-fits and checks
#: this constant stays in band.
DEFAULT_HOP_QUANTILE = 0.35


@dataclass(frozen=True)
class LatencyModel:
    """Maps gossip time windows to hop budgets.

    The DES delivers a message over ``h`` hops after a sum of ``h``
    independent ``U(delay_min, delay_max) * delay_scale`` draws, minimized
    over all paths.  The fast kernel collapses that distribution to one
    *effective per-hop delay* — the ``hop_quantile`` of the hop-delay
    distribution — and admits a message within a window iff
    ``hops * effective_delay <= window``.
    """

    hop_quantile: float = DEFAULT_HOP_QUANTILE

    def __post_init__(self) -> None:
        if not 0.0 <= self.hop_quantile <= 1.0:
            raise ConfigurationError(
                f"hop quantile must be in [0, 1], got {self.hop_quantile}"
            )

    def effective_hop_delay(self, config: SimulationConfig) -> float:
        """The modelled cost of one gossip hop, in simulated seconds."""
        span = config.delay_max - config.delay_min
        return (config.delay_min + span * self.hop_quantile) * config.delay_scale

    def hop_budget(self, window: float, config: SimulationConfig) -> int:
        """Largest hop count that completes within ``window`` seconds."""
        delay = self.effective_hop_delay(config)
        if delay <= 0.0:
            return UNREACHABLE - 1
        return int(window / delay)


def fit_latency_model(
    config: Optional[SimulationConfig] = None,
    n_probes: int = 8,
    seed: int = 0,
) -> LatencyModel:
    """Fit the per-hop latency quantile from the event-driven gossip layer.

    Floods probe messages from ``n_probes`` sources through a real
    :class:`~repro.sim.network.GossipNetwork` (every node relaying),
    records each node's first-arrival time, divides by its BFS hop
    distance, and maps the median effective per-hop delay back to a
    quantile of the configured ``U(delay_min, delay_max)`` distribution.
    This is the "fitted once from the DES" calibration behind
    :data:`DEFAULT_HOP_QUANTILE`; re-run it to recalibrate after changing
    the gossip layer.
    """
    from repro.sim.engine import EventEngine
    from repro.sim.messages import Message
    from repro.sim.network import GossipNetwork

    if config is None:
        config = SimulationConfig(n_nodes=60, seed=seed, verify_crypto=False)
    span = config.delay_max - config.delay_min
    if span <= 0:
        return LatencyModel(hop_quantile=0.0)

    streams = RngStreams(config.seed)
    ids = list(range(config.n_nodes))
    overlay = build_random_overlay(ids, config.gossip_fanout, streams.get("topology"))
    engine = EventEngine()
    delay_rng = streams.get("net.delay")

    class _Probe:
        relays_gossip = True
        is_online = True

        def __init__(self, node_id: int) -> None:
            self.node_id = node_id
            self.arrived_at: Optional[float] = None

        def on_receive(self, message: Message, now: float) -> bool:
            if self.arrived_at is None:
                self.arrived_at = now
            return True

    network = GossipNetwork(
        engine=engine,
        neighbors=overlay,
        delay_sampler=lambda: delay_rng.uniform(config.delay_min, config.delay_max),
    )
    network.delay_scale = config.delay_scale
    probes = [_Probe(node_id) for node_id in ids]
    for probe in probes:
        network.register(probe)

    # All nodes relay, so hop distances are plain BFS on the overlay.
    hops = _bfs_hops(
        overlay,
        online=np.ones(config.n_nodes, dtype=bool),
        relays=np.ones(config.n_nodes, dtype=bool),
    )

    per_hop: List[float] = []
    for source in range(min(n_probes, config.n_nodes)):
        for probe in probes:
            probe.arrived_at = None
        network.reset_seen()
        start = engine.now
        network.broadcast(source, Message(sender=source))
        engine.run()
        for probe in probes:
            h = int(hops[source, probe.node_id])
            if probe.arrived_at is None or h <= 0 or h >= UNREACHABLE:
                continue
            per_hop.append((probe.arrived_at - start) / h)
    if not per_hop:
        return LatencyModel()
    effective = float(np.median(per_hop)) / config.delay_scale
    quantile = (effective - config.delay_min) / span
    return LatencyModel(hop_quantile=float(np.clip(quantile, 0.0, 1.0)))


def _bfs_hops(
    neighbors: Dict[int, List[int]],
    online: np.ndarray,
    relays: np.ndarray,
    edge_keep: Optional[np.ndarray] = None,
) -> np.ndarray:
    """All-pairs hop distances through the relaying subgraph.

    ``hops[i, j]`` is the minimum number of gossip hops from ``i`` to
    ``j`` where every *intermediate* node forwards (``relays`` — the
    origin always forwards its own message, matching
    ``GossipNetwork.broadcast``) and endpoints are online.  Offline nodes
    neither send nor receive.  ``edge_keep`` optionally thins the overlay
    (per-round drop realizations).  Runs one synchronous frontier
    expansion per hop — a handful of boolean matmuls per round.
    """
    n = len(neighbors)
    adjacency = np.zeros((n, n), dtype=bool)
    for node_id, peers in neighbors.items():
        adjacency[node_id, peers] = True
    if edge_keep is not None:
        adjacency &= edge_keep
    adjacency &= online[:, None] & online[None, :]

    hops = np.full((n, n), UNREACHABLE, dtype=np.int32)
    sources = online.copy()
    hops[np.diag_indices(n)] = np.where(sources, 0, UNREACHABLE)
    visited = np.eye(n, dtype=bool)
    frontier = np.diag(sources).astype(bool)
    relay_row = (relays & online)[None, :]
    hop = 0
    adjacency_int = adjacency.astype(np.int16)
    while frontier.any():
        hop += 1
        # The origin forwards its own broadcast regardless of its relay
        # flag; every later hop requires a relaying intermediate.
        expanding = frontier if hop == 1 else (frontier & relay_row)
        reached = (expanding.astype(np.int16) @ adjacency_int) > 0
        reached &= ~visited
        if not reached.any():
            break
        hops[reached] = hop
        visited |= reached
        frontier = reached
    return hops


@dataclass
class _Proposal:
    """One proposed block as the fast kernel tracks it."""

    sender: int
    block: Block
    block_hash: int
    priority: float


class _Ballots(NamedTuple):
    """Votes cast for one step at one deadline, as parallel arrays.

    ``values`` are candidate indices; the deadline index ``cast_index``
    fixes the travel windows before the tally.
    """

    cast_index: int
    senders: np.ndarray
    weights: np.ndarray
    values: np.ndarray


#: :class:`ConsensusArrays` phase codes, indexing :data:`PHASES`.
_REDUCTION_ONE, _REDUCTION_TWO, _BINARY, _DONE, _FAILED = range(5)

#: The :class:`~repro.sim.ba_star.Phase` behind each phase code.
PHASES = (
    Phase.REDUCTION_ONE,
    Phase.REDUCTION_TWO,
    Phase.BINARY,
    Phase.DONE,
    Phase.FAILED,
)


@dataclass(frozen=True)
class AgreementStep:
    """What every node does after one step deadline (the array directive).

    Node ``k`` votes ``current[k]`` in the next step where ``vote[k]``.
    Where ``concluded[k]`` it reached its conclusion this step, and votes
    ``concluded_value[k]`` in each of ``helper_steps`` and, where
    ``final[k]``, in the FINAL committee.
    """

    vote: np.ndarray
    concluded: np.ndarray
    helper_steps: Tuple[int, ...]
    final: np.ndarray


class ConsensusArrays:
    """Every node's BA* state machine for one round, held as arrays.

    The array form of N :class:`~repro.sim.ba_star.ConsensusStateMachine`
    instances.  Values are candidate indices (``0`` is the empty block);
    a tally result of ``-1`` is a timeout.  In the fast kernel every
    active node receives a result at every step, so all active nodes
    share one phase and one binary step: the step kind and the coin are
    scalars, and each transition is a masked update of the per-node
    ``phase`` codes (see :data:`PHASES`), ``current`` value,
    ``binary_input`` and conclusion (``concluded_value``, ``-1`` until
    concluded, and ``concluded_step``, the binary step, ``0`` until then).
    """

    def __init__(
        self,
        start_values: np.ndarray,
        max_binary_steps: int,
        coin: Callable[[int], int],
    ) -> None:
        n = len(start_values)
        self.max_binary_steps = max_binary_steps
        self._coin = coin
        self.phase = np.full(n, _REDUCTION_ONE, dtype=np.int8)
        self.current = np.array(start_values, dtype=np.int64)
        self.binary_input = np.zeros(n, dtype=np.int64)
        self.concluded_value = np.full(n, -1, dtype=np.int64)
        self.concluded_step = np.zeros(n, dtype=np.int64)

    @property
    def active(self) -> np.ndarray:
        """Nodes still deciding (neither concluded nor failed)."""
        return self.phase < _DONE

    def advance(self, step: int, counted: np.ndarray) -> AgreementStep:
        """Apply every active node's tally for ``step`` (``-1``: timeout)."""
        active = self.active
        none = np.zeros_like(active)
        if step < FIRST_BINARY_STEP:
            # Reduction: vote what crossed the threshold, else empty; the
            # second step's output is also BinaryBA*'s input.
            output = np.where(counted < 0, 0, counted)
            self.current = np.where(active, output, self.current)
            if step == 2:
                self.binary_input = np.where(active, output, self.binary_input)
            self.phase[active] = _REDUCTION_TWO if step == 1 else _BINARY
            return AgreementStep(active, none, (), none)

        binary_step = step - FIRST_BINARY_STEP + 1
        kind = binary_step_kind(binary_step)
        timeout = counted < 0
        if kind is StepKind.BLOCK_BIASED:  # a block result concludes
            conclude = active & (counted > 0)
            moved = np.where(timeout, self.binary_input, 0)
        elif kind is StepKind.EMPTY_BIASED:  # an empty result concludes
            conclude = active & (counted == 0)
            moved = np.where(timeout, 0, counted)
        else:  # common coin: timeouts follow the shared flip
            conclude = none
            flip = self._coin(binary_step) if (active & timeout).any() else 0
            moved = np.where(timeout, self.binary_input if flip == 0 else 0, counted)
        going = active & ~conclude
        self.current = np.where(going, moved, self.current)
        self.phase[conclude] = _DONE
        self.concluded_value[conclude] = counted[conclude]
        self.concluded_step[conclude] = binary_step
        helper_steps = tuple(
            step + offset
            for offset in (1, 2, 3)
            if binary_step + offset <= self.max_binary_steps
        )
        # Only a block concluded in the first binary step earns a final vote.
        final = conclude if binary_step == 1 else none
        if binary_step + 1 > self.max_binary_steps:
            self.phase[going] = _FAILED
            going = none
        return AgreementStep(going, conclude, helper_steps, final)


class FastSimulation:
    """Vectorized drop-in for :class:`~repro.sim.protocol.AlgorandSimulation`.

    Accepts the same constructor arguments plus an optional
    :class:`LatencyModel`; produces the same
    :class:`~repro.sim.metrics.SimulationMetrics`.  Runs are a pure
    function of ``(config, behaviors, latency)``, so orchestrated sweeps
    remain bit-identical at any worker count.
    """

    def __init__(
        self,
        config: SimulationConfig,
        mechanism: Optional[RewardMechanism] = None,
        transaction_source: Optional[TransactionSource] = None,
        behaviors: Optional[Sequence[Behavior]] = None,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.mechanism = mechanism
        self.transaction_source = transaction_source
        self.latency = latency if latency is not None else LatencyModel()
        self.streams = RngStreams(config.seed)
        self.metrics = SimulationMetrics()
        self.round_index = 0
        self.sortition_seed = crypto.sha256_int("genesis-seed", config.seed) % 2**64

        n = config.n_nodes
        # Same substreams and draw logic as the DES constructor (shared
        # helpers), so stakes, behaviours and the gossip overlay are
        # identical on paired seeds.
        self.stakes: List[float] = initial_stakes(config, self.streams)
        self.behaviors: List[Behavior] = resolve_behaviors(
            config, self.streams, behaviors
        )
        self._keypairs = [
            crypto.KeyPair.generate((config.seed, node_id)) for node_id in range(n)
        ]
        self._private_keys = [keypair.private for keypair in self._keypairs]
        # Per-key SHA-256 states pre-absorbed with the constant payload
        # prefix ("'vrf'\x1f<private>"); _vrf_values copies a state and
        # appends only the per-(round, step) suffix, saving the prefix
        # hashing and bytes construction on every sortition evaluation.
        self._vrf_states = [
            hashlib.sha256(b"'vrf'\x1f%d" % private)
            for private in self._private_keys
        ]
        self.rewards_received: List[float] = [0.0] * n
        self._neighbors = build_random_overlay(
            list(range(n)), config.gossip_fanout, self.streams.get("topology")
        )

        self._online = np.array([b.is_online for b in self.behaviors], dtype=bool)
        self._relays = np.array([b.relays for b in self.behaviors], dtype=bool)
        self._votes_mask = np.array([b.votes for b in self.behaviors], dtype=bool)
        self._equivocates_mask = np.array(
            [b.equivocates for b in self.behaviors], dtype=bool
        )
        self._online_idx = np.flatnonzero(self._online)
        self._online_ids = self._online_idx.tolist()

        self.authoritative = Ledger(genesis_seed=0)
        genesis_hash = self.authoritative.tip().block_hash()
        self._tips: List[int] = [genesis_hash] * n

        self._drop_rng = (
            np.random.default_rng(derive_seed(config.seed, "fastpath:drop"))
            if config.drop_probability
            else None
        )
        self._equiv_rngs: Dict[int, random.Random] = {
            i: random.Random(derive_seed(config.seed, f"fastpath:equivocate:{i}"))
            for i in range(n)
            if self.behaviors[i].equivocates
        }
        self._static_hops = (
            None
            if config.drop_probability
            else _bfs_hops(self._neighbors, self._online, self._relays)
        )

        # Telemetry instruments are resolved once at construction from the
        # process's active registry, down to the child level (``labels()``
        # memoizes; holding the children skips per-event lookups).  With
        # telemetry disabled (the default) these are shared no-op objects
        # and ``_telemetry`` is False, which gates every perf_counter read
        # in the hot path — the enabled check is the only per-round cost.
        _registry = get_registry()
        self._telemetry = _registry.enabled
        self._m_rounds = _registry.counter(
            "repro_fastpath_rounds_total", "Rounds simulated by the fast kernel"
        ).labels()
        self._m_round_seconds = _registry.histogram(
            "repro_fastpath_round_seconds",
            "Wall time of one fast-kernel round",
            buckets=DEFAULT_TIME_BUCKETS,
        ).labels()
        # VRF batch count rides on the histogram's _count; only the key
        # total (the batch-size numerator, constant per simulation) needs
        # its own counter.
        self._m_vrf_keys = _registry.counter(
            "repro_fastpath_vrf_keys_total",
            "Keys hashed across all VRF batches (batch-size numerator)",
        ).labels()
        self._m_vrf_seconds = _registry.histogram(
            "repro_fastpath_vrf_batch_seconds",
            "Wall time of one batched population VRF evaluation "
            "(its _count is the batch total)",
            buckets=DEFAULT_TIME_BUCKETS,
        ).labels()
        _committee = _registry.histogram(
            "repro_fastpath_committee_weight",
            "Total sortition committee weight per (role) selection",
            labels=("role",),
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._m_committee = {
            role: _committee.labels(role=role.name.lower()) for role in Role
        }
        self._m_agreement_seconds = _registry.histogram(
            "repro_fastpath_agreement_seconds",
            "Wall time of one round's BA* agreement, net of its VRF batches",
            buckets=DEFAULT_TIME_BUCKETS,
        ).labels()
        self._n_keys = float(n)
        # Running VRF batch wall time (telemetry only): the agreement
        # histogram subtracts the batches its phase triggered.
        self._vrf_seconds = 0.0

    # -- public accessors ----------------------------------------------------

    def total_stake(self) -> float:
        """Total stake across all nodes (defectors included)."""
        return sum(self.stakes)

    def stake_vector(self) -> Dict[int, float]:
        """Current stakes keyed by node id."""
        return {node_id: stake for node_id, stake in enumerate(self.stakes)}

    # -- round driver --------------------------------------------------------

    def run(self, n_rounds: int) -> SimulationMetrics:
        """Run ``n_rounds`` consecutive rounds and return the metrics."""
        if n_rounds < 1:
            raise SimulationError(f"n_rounds must be >= 1, got {n_rounds}")
        for _ in range(n_rounds):
            self.run_round()
        return self.metrics

    def run_round(self) -> RoundRecord:
        """Simulate one full round as batched array work."""
        round_started = time.perf_counter() if self._telemetry else 0.0
        config = self.config
        n = config.n_nodes
        self.round_index += 1
        round_index = self.round_index
        round_seed = self.sortition_seed
        total_stake = self.total_stake()
        ctx = RoundContext(
            round_index=round_index,
            sortition_seed=round_seed,
            total_stake=total_stake,
            tau_proposer=config.tau_proposer,
            tau_step=config.tau_step,
            tau_final=config.tau_final,
            t_step=config.t_step,
            t_final=config.t_final,
            max_binary_steps=config.max_binary_steps,
            coin_seed=round_seed,
        )
        hops = self._round_hops()
        stake_units = np.array([int(s) for s in self.stakes], dtype=np.int64)

        # Per-step sortition weights are computed lazily: a short-circuited
        # round only pays for the VRFs of the steps it actually ran.
        step_weight_cache: Dict[int, np.ndarray] = {}

        def step_weights(step: int) -> np.ndarray:
            cached = step_weight_cache.get(step)
            if cached is None:
                cached = self._role_weights(
                    Role.STEP, step, round_index, round_seed, stake_units, total_stake
                )
                step_weight_cache[step] = cached
            return cached

        final_weight_cache: List[Optional[np.ndarray]] = [None]

        def final_weights() -> np.ndarray:
            if final_weight_cache[0] is None:
                final_weight_cache[0] = self._role_weights(
                    Role.FINAL,
                    FINAL_STEP,
                    round_index,
                    round_seed,
                    stake_units,
                    total_stake,
                )
            return final_weight_cache[0]

        # -- phase A: proposals ---------------------------------------------
        proposals = self._propose(ctx, stake_units, total_stake)
        registry: Dict[int, _Proposal] = {p.block_hash: p for p in proposals}
        candidates = [EMPTY_HASH] + sorted(registry)
        value_index = {value: k for k, value in enumerate(candidates)}

        budget_prop = self.latency.hop_budget(config.proposal_wait, config)
        best = self._best_proposals(proposals, value_index, hops, budget_prop)

        # -- phase B: reduction + BinaryBA* ----------------------------------
        agreement_started = time.perf_counter() if self._telemetry else 0.0
        vrf_before = self._vrf_seconds
        online = self._online_idx
        proposed = {p.sender for p in proposals}
        ranked = [
            value_index[p.block_hash]
            for p in sorted(proposals, key=lambda p: (p.priority, p.block_hash))
        ]
        voted = np.zeros(n, dtype=bool)
        # votes[s]: the ballots tallied at deadline index s; normal votes
        # are cast at index s-1 (one window of travel), helper votes earlier.
        votes: Dict[int, List[_Ballots]] = {}
        final_votes: List[_Ballots] = []

        def cast(box, nodes, values, cast_index, weights) -> None:
            ballots = self._cast(nodes, values, cast_index, weights, ranked, voted)
            if ballots is not None:
                box.append(ballots)

        coin = make_common_coin(round_seed, round_index)
        state = ConsensusArrays(best[online], config.max_binary_steps, coin)
        cast(votes.setdefault(1, []), online, state.current, 0, step_weights(1))

        needed_step = config.t_step * config.tau_step
        total_steps = config.total_step_count()
        steps_used = 0
        for step in range(1, total_steps + 1):
            counted = self._tally(
                votes.pop(step, ()), step, hops, len(candidates), needed_step
            )
            directive = state.advance(step, counted[online])
            if directive.vote.any():
                cast(
                    votes.setdefault(step + 1, []),
                    online[directive.vote],
                    state.current[directive.vote],
                    step,
                    step_weights(step + 1),
                )
            if directive.concluded.any():
                nodes = online[directive.concluded]
                values = state.concluded_value[directive.concluded]
                # Per node: helpers in step order, then the final vote —
                # the order an equivocator draws its values in.
                for helper_step in directive.helper_steps:
                    cast(
                        votes.setdefault(helper_step, []),
                        nodes,
                        values,
                        step,
                        step_weights(helper_step),
                    )
                # FINAL weights are computed only when a voter needs them.
                finals = directive.final & self._votes_mask[online]
                if finals.any():
                    cast(
                        final_votes,
                        online[finals],
                        state.concluded_value[finals],
                        step,
                        final_weights(),
                    )
            steps_used = step
            if config.short_circuit_rounds and not state.active.any():
                break
        if self._telemetry:
            self._m_agreement_seconds.observe(
                time.perf_counter()
                - agreement_started
                - (self._vrf_seconds - vrf_before)
            )

        # -- phase C: extraction and rewards ---------------------------------
        record = self._finalize_round(
            ctx,
            steps_used,
            state.concluded_value,
            candidates,
            registry,
            proposed,
            voted,
            final_votes,
            hops,
        )
        if self._telemetry:
            self._m_rounds.inc()
            self._m_round_seconds.observe(time.perf_counter() - round_started)
        return record

    # -- sortition ------------------------------------------------------------

    def _role_weights(
        self,
        role: Role,
        step: int,
        round_index: int,
        round_seed: int,
        stake_units: np.ndarray,
        total_stake: float,
    ) -> np.ndarray:
        """Exact per-node sortition weights for one (role, step).

        Recomputes the same VRFs the event-driven nodes evaluate (same
        keypairs, seed and domain separation) and inverts the binomial
        CDF for the whole population in one batched call, so the result
        matches the DES bit-for-bit on paired seeds.
        """
        tag = {Role.PROPOSER: 0, Role.STEP: 1_000, Role.FINAL: 2_000}[role] + step
        expected = {
            Role.PROPOSER: self.config.tau_proposer,
            Role.STEP: self.config.tau_step,
            Role.FINAL: self.config.tau_final,
        }[role]
        values = self._vrf_values(round_seed, round_index, tag)
        probability = min(1.0, expected / total_stake)
        weights = binomial_weights(values, stake_units, probability)
        weights[~self._online] = 0
        if self._telemetry:
            self._m_committee[role].observe(float(weights.sum()))
        return weights

    def _vrf_values(
        self, round_seed: int, round_index: int, tag: int
    ) -> np.ndarray:
        """Population VRF outputs for one (round, role-step) domain.

        Batched specialization of ``crypto.vrf_evaluate(...).value``: it
        hashes the *identical* canonical payload (``repr`` of an int is
        its decimal string; ``repr("vrf")`` keeps its quotes) in
        counter-ish mode — every key's pre-absorbed prefix state is
        copied and fed the one shared ``(round, step)`` suffix — then
        all digests are joined into one contiguous byte block and the
        top-53-bit fractions extracted with a single strided
        ``np.frombuffer`` pass: byte-reversing the leading big-endian
        uint64 of each digest and shifting out the low 11 bits is
        exactly ``digest[:7]`` dropped to its top 53 bits, and dividing
        by 2^53 is exact.  Outputs are bit-identical to the crypto
        helper — asserted by the differential suite — while skipping
        per-key bytes construction, Python int conversion and the
        per-part ``repr``/join machinery that dominates profiles at
        population x steps x rounds scale.
        """
        batch_started = time.perf_counter() if self._telemetry else 0.0
        suffix = f"\x1f{round_seed}\x1f{round_index}\x1f{tag}".encode("utf-8")
        digests: List[bytes] = []
        append = digests.append
        for state in self._vrf_states:
            hasher = state.copy()
            hasher.update(suffix)
            append(hasher.digest())
        block = b"".join(digests)
        # One 32-byte digest per key: take word 0 of each 4-uint64 row.
        words = np.frombuffer(block, dtype=">u8").reshape(-1, 4)[:, 0]
        values = (words.astype(np.uint64) >> np.uint64(11)) / float(2**53)
        if self._telemetry:
            elapsed = time.perf_counter() - batch_started
            self._vrf_seconds += elapsed
            self._m_vrf_keys.inc(self._n_keys)
            self._m_vrf_seconds.observe(elapsed)
        return values

    # -- proposals ------------------------------------------------------------

    def _propose(
        self, ctx: RoundContext, stake_units: np.ndarray, total_stake: float
    ) -> List[_Proposal]:
        config = self.config
        weights = self._role_weights(
            Role.PROPOSER, 0, ctx.round_index, ctx.sortition_seed, stake_units, total_stake
        )
        pending = (
            self.transaction_source(ctx.round_index) if self.transaction_source else []
        )
        block_seed = crypto.next_round_seed(ctx.sortition_seed, ctx.round_index)
        proposals: List[_Proposal] = []
        for i in np.flatnonzero(weights > 0):
            i = int(i)
            behavior = self.behaviors[i]
            if not behavior.proposes:
                continue
            # Sub-user count floors the sortition weight: a weight in
            # (0, 1) holds no whole sub-user slot, so the node enters no
            # priority race at all (min() over zero candidates would
            # raise, not rank last).
            subusers = int(weights[i])
            if subusers < 1:
                continue
            vrf = crypto.vrf_evaluate(
                self._keypairs[i], ctx.sortition_seed, ctx.round_index, 0
            )
            priority = min(
                crypto.subuser_priority(vrf.proof, index)
                for index in range(subusers)
            )
            payload = self._validated_payload(pending)
            block = Block(
                round_index=ctx.round_index,
                previous_hash=self._tips[i],
                seed=block_seed,
                transactions=payload,
                proposer=i,
            )
            proposals.append(
                _Proposal(
                    sender=i,
                    block=block,
                    block_hash=block.block_hash(),
                    priority=priority,
                )
            )
            if behavior.equivocates:
                rogue_payload = payload[1:] if payload else ()
                rogue = Block(
                    round_index=ctx.round_index,
                    previous_hash=self._tips[i],
                    seed=block_seed,
                    transactions=rogue_payload,
                    proposer=i,
                )
                rogue_hash = rogue.block_hash()
                if rogue_hash != block.block_hash():
                    proposals.append(
                        _Proposal(
                            sender=i,
                            block=rogue,
                            block_hash=rogue_hash,
                            priority=priority,
                        )
                    )
        return proposals

    @staticmethod
    def _validated_payload(pending: List[Transaction]) -> Tuple[Transaction, ...]:
        return tuple(
            txn
            for txn in pending
            if txn.amount > 0 and txn.from_account != txn.to_account
        )

    def _best_proposals(
        self,
        proposals: List[_Proposal],
        value_index: Dict[int, int],
        hops: np.ndarray,
        budget: int,
    ) -> np.ndarray:
        """Per node: candidate index of the best proposal that arrives in time.

        Iterates proposals worst-first so the best reachable proposal ends
        up owning each node's slot — the array form of the DES's
        ``min(proposals, key=(priority, block_hash))``.  A node that saw
        none holds ``0``, the empty option it then votes for.
        """
        best = np.zeros(self.config.n_nodes, dtype=np.int64)
        ranked = sorted(
            proposals, key=lambda p: (p.priority, p.block_hash), reverse=True
        )
        for proposal in ranked:
            best[hops[proposal.sender] <= budget] = value_index[proposal.block_hash]
        return best

    # -- voting ----------------------------------------------------------------

    def _cast(
        self,
        nodes: np.ndarray,
        values: np.ndarray,
        cast_index: int,
        weights: np.ndarray,
        ranked: List[int],
        voted: np.ndarray,
    ) -> Optional[_Ballots]:
        """The committee votes of ``nodes``: voters with sortition weight only."""
        keep = self._votes_mask[nodes] & (weights[nodes] > 0)
        if not keep.any():
            return None
        nodes = nodes[keep]
        values = values[keep]
        for k in np.flatnonzero(self._equivocates_mask[nodes]):
            values[k] = self._equivocated(int(nodes[k]), int(values[k]), ranked)
        voted[nodes] = True
        return _Ballots(cast_index, nodes, weights[nodes], values)

    def _equivocated(self, node_id: int, honest_value: int, ranked: List[int]) -> int:
        """Fast-path analogue of ``Node._equivocated_value``.

        The DES draws from the node's stream over proposals in *arrival*
        order; the fast path has no arrival order, so it draws from a
        dedicated stream over proposals in priority order (``ranked``
        candidate indices) — statistically equivalent, never bit-matched
        (documented approximation).
        """
        return self._equiv_rngs[node_id].choice([0, honest_value] + ranked)

    def _tally(
        self,
        ballots: Sequence[_Ballots],
        step: int,
        hops: np.ndarray,
        n_candidates: int,
        needed: float,
    ) -> np.ndarray:
        """Per-node CountVotes for one step, as one array reduction.

        A vote reaches a node iff its hop distance fits the travel windows
        between its cast deadline and this tally's (one hop budget per
        distinct cast deadline).  The reach matrix times the weighted
        one-hot vote matrix is every node's weight per candidate; the
        weights are integers, so the float sums are exact in any order.
        The vectorized :func:`resolve_quorum` rule then picks each node's
        winner (candidates are ordered ascending, so the first argmax
        reproduces the smallest-value tie-break exactly), ``-1`` on timeout.
        """
        n = self.config.n_nodes
        if not ballots:
            return np.full(n, -1, dtype=np.int64)
        config = self.config
        budget_of = {
            cast: self.latency.hop_budget((step - cast) * config.step_timeout, config)
            for cast in {b.cast_index for b in ballots}
        }
        senders = np.concatenate([b.senders for b in ballots])
        values = np.concatenate([b.values for b in ballots])
        sizes = [len(b.senders) for b in ballots]
        budgets = np.repeat([budget_of[b.cast_index] for b in ballots], sizes)
        weighted = np.zeros((len(senders), n_candidates))
        weighted[np.arange(len(senders)), values] = np.concatenate(
            [b.weights for b in ballots]
        )
        reach = hops[senders] <= budgets[:, None]
        tally = reach.T.astype(np.float64) @ weighted
        quorum = tally > needed
        winner = np.where(quorum, tally, -1.0).argmax(axis=1)
        return np.where(quorum.any(axis=1), winner, -1)

    # -- network ----------------------------------------------------------------

    def _round_hops(self) -> np.ndarray:
        """The round's hop-distance matrix (per-round under message drops)."""
        if self._static_hops is not None:
            return self._static_hops
        n = self.config.n_nodes
        keep = self._drop_rng.random((n, n)) >= self.config.drop_probability
        return _bfs_hops(self._neighbors, self._online, self._relays, edge_keep=keep)

    # -- finalization -------------------------------------------------------------

    def _finalize_round(
        self,
        ctx: RoundContext,
        steps_used: int,
        concluded: np.ndarray,
        candidates: List[int],
        registry: Dict[int, _Proposal],
        proposed: set,
        voted: np.ndarray,
        final_votes: List[_Ballots],
        hops: np.ndarray,
    ) -> RoundRecord:
        config = self.config

        authoritative_value, authoritative_label = self._authoritative_outcome(
            ctx, concluded, candidates, registry, final_votes
        )

        # FINAL-vote tallies as seen by each node at extraction time: the
        # driver grants one trailing window past the last deadline, so a
        # vote cast at deadline c travels (steps_used + 1 - c) windows.
        extraction_index = steps_used + 1
        needed_final = config.t_final * config.tau_final
        final_counted = self._tally(
            final_votes, extraction_index, hops, len(candidates), needed_final
        )

        # Blocks remain collectible until extraction: the whole round is
        # the travel window.
        window_fin = config.proposal_wait + extraction_index * config.step_timeout
        budget_fin = self.latency.hop_budget(window_fin, config)
        empty_seed = crypto.next_round_seed(ctx.sortition_seed, ctx.round_index)
        auth_tip = self.authoritative.tip().block_hash()
        # Nodes on the same tip extend it with the same empty block.
        empty_after: Dict[int, int] = {}

        n_final = n_tentative = n_none = 0
        n_concluded_empty = n_desynced = n_caught_up = 0
        for i, k in zip(self._online_ids, concluded.tolist()):
            if k < 0:
                n_none += 1
                continue
            if k == 0:
                tip = self._tips[i]
                empty = empty_after.get(tip)
                if empty is None:
                    block = make_empty_block(ctx.round_index, tip, empty_seed)
                    empty = empty_after[tip] = block.block_hash()
                self._tips[i] = empty
                n_tentative += 1
                n_concluded_empty += 1
                continue
            value = candidates[k]
            proposal = registry[value]
            if hops[proposal.sender, i] > budget_fin:
                n_none += 1
                continue
            has_finality = final_counted[i] == k
            parent_matches = proposal.block.previous_hash == self._tips[i]
            if has_finality:
                n_final += 1
                if parent_matches:
                    self._tips[i] = value
                else:
                    self._tips[i] = auth_tip
                    n_caught_up += 1
            elif parent_matches:
                self._tips[i] = value
                n_tentative += 1
            else:
                n_none += 1
                n_desynced += 1

        snapshot = self.role_snapshot(
            ctx.round_index, proposed, set(np.flatnonzero(voted).tolist())
        )
        reward_total = 0.0
        reward_params: Dict[str, float] = {}
        if self.mechanism is not None:
            allocation = self.mechanism.allocate(snapshot)
            reward_total = allocation.total
            reward_params = dict(allocation.params)
            for node_id, amount in allocation.per_node.items():
                self.stakes[node_id] += amount
                self.rewards_received[node_id] += amount

        self.sortition_seed, _refreshed = crypto.refresh_seed(
            ctx.sortition_seed, ctx.round_index, config.seed_refresh_interval
        )

        record = RoundRecord(
            round_index=ctx.round_index,
            n_online=len(self._online_ids),
            n_final=n_final,
            n_tentative=n_tentative,
            n_none=n_none,
            n_concluded_empty=n_concluded_empty,
            n_desynced=n_desynced,
            n_caught_up=n_caught_up,
            authoritative_label=authoritative_label,
            authoritative_value=authoritative_value,
            steps_used=steps_used,
            reward_total=reward_total,
            reward_params=reward_params,
            n_leaders=len(snapshot.leaders),
            n_committee=len(snapshot.committee),
        )
        self.metrics.record(record)
        return record

    def _authoritative_outcome(
        self,
        ctx: RoundContext,
        concluded: np.ndarray,
        candidates: List[int],
        registry: Dict[int, _Proposal],
        final_votes: List[_Ballots],
    ):
        """Ground truth, identical to the DES's omniscient observer."""
        done = concluded[concluded >= 0]
        if not done.size:
            return None, ConsensusLabel.NONE
        # Most conclusions wins; argmax takes the first maximum, and the
        # candidates ascend, so ties go to the smallest value.
        winner = candidates[int(np.bincount(done, minlength=len(candidates)).argmax())]
        weights: Dict[int, int] = {}
        for ballots in final_votes:
            for k, weight in zip(ballots.values.tolist(), ballots.weights.tolist()):
                weights[candidates[k]] = weights.get(candidates[k], 0) + weight
        final_tally = resolve_quorum(weights, ctx.tau_final, ctx.t_final)
        if winner == EMPTY_HASH:
            block = make_empty_block(
                ctx.round_index,
                self.authoritative.tip().block_hash(),
                crypto.next_round_seed(ctx.sortition_seed, ctx.round_index),
            )
            self.authoritative.append(block, ConsensusLabel.TENTATIVE)
            return EMPTY_HASH, ConsensusLabel.TENTATIVE
        proposal = registry[winner]
        if proposal.block.previous_hash != self.authoritative.tip().block_hash():
            return winner, ConsensusLabel.NONE
        label = (
            ConsensusLabel.FINAL if final_tally == winner else ConsensusLabel.TENTATIVE
        )
        self.authoritative.append(proposal.block, label)
        return winner, label

    # -- role classification -------------------------------------------------------

    def role_snapshot(
        self, round_index: int, proposed: set, voted_any: set
    ) -> RoleSnapshot:
        """Classify online nodes by performed role (L / M / K)."""
        leaders: Dict[int, float] = {}
        committee: Dict[int, float] = {}
        others: Dict[int, float] = {}
        for i in self._online_ids:
            if i in proposed:
                leaders[i] = self.stakes[i]
            elif i in voted_any:
                committee[i] = self.stakes[i]
            else:
                others[i] = self.stakes[i]
        return RoleSnapshot(
            round_index=round_index,
            leaders=leaders,
            committee=committee,
            others=others,
        )


# -- population-scale committee sampling --------------------------------------


@dataclass(frozen=True)
class StreamedCommittee:
    """A sortition outcome holding *only* the selected participants.

    Produced by :func:`sample_committee_stream`: the non-participants —
    the overwhelming majority at population scale — are never
    materialized as per-node objects, so the memory footprint is
    O(selected), not O(population).
    """

    expected_size: float
    probability: float
    total_stake_units: int
    indices: np.ndarray  # (s,) int64 global agent indices
    weights: np.ndarray  # (s,) int64 selected sub-user counts
    stakes: np.ndarray  # (s,) float64 stakes of the selected agents

    @property
    def n_selected(self) -> int:
        """Number of distinct agents holding at least one sub-user slot."""
        return int(self.indices.size)

    @property
    def total_weight(self) -> int:
        """Total selected sub-user weight (expected ~``expected_size``)."""
        return int(self.weights.sum())


def sample_committee_stream(
    spec,
    expected_size: float,
    column: str = "committee.vrf",
    chunk_agents: Optional[int] = None,
    total_stake_units: Optional[int] = None,
) -> StreamedCommittee:
    """Sample one sortition committee from a streamed stake population.

    Streams a :class:`~repro.populations.spec.PopulationSpec` in O(chunk)
    memory: each chunk draws idealized-VRF uniforms from the population's
    own seed-block streams (``column`` names the substream, so several
    committees per population stay independent), inverts the binomial CDF
    with the batched :func:`~repro.sim.sortition.binomial_weights`
    primitive, and keeps only the selected agents.  Per-agent draws and
    integer stake totals are chunk-independent, so the committee is
    **bit-identical at every ``chunk_agents``** — the same contract as
    the population audit.

    ``total_stake_units`` (the integer stake total that fixes the
    selection probability ``expected_size / W``) is computed with an
    extra streaming pass when not supplied; callers auditing the same
    population repeatedly should compute it once and pass it in.
    """
    if expected_size <= 0:
        raise ConfigurationError(
            f"expected committee size must be positive, got {expected_size}"
        )
    if total_stake_units is None:
        total = 0
        for chunk in spec.iter_chunks(chunk_agents):
            # Integer accumulation is exact, hence order-independent.
            total += int(chunk.stake64().astype(np.int64).sum())
        total_stake_units = total
    if total_stake_units <= 0:
        raise ConfigurationError(
            "population has zero integer stake units; scale stakes up "
            "(sub-user sortition floors stakes to whole Algos)"
        )
    probability = min(1.0, expected_size / total_stake_units)

    indices: List[np.ndarray] = []
    weights: List[np.ndarray] = []
    stakes: List[np.ndarray] = []
    for chunk in spec.iter_chunks(chunk_agents):
        stake = chunk.stake64()
        units = stake.astype(np.int64)
        values = spec.chunk_draws(
            chunk.offset, chunk.n_agents, column, lambda rng, n: rng.random(n)
        )
        selected_weights = binomial_weights(values, units, probability)
        rows = np.flatnonzero(selected_weights > 0)
        if rows.size:
            indices.append((chunk.offset + rows).astype(np.int64))
            weights.append(selected_weights[rows])
            stakes.append(stake[rows])
    empty_i = np.empty(0, dtype=np.int64)
    return StreamedCommittee(
        expected_size=float(expected_size),
        probability=float(probability),
        total_stake_units=int(total_stake_units),
        indices=np.concatenate(indices) if indices else empty_i,
        weights=np.concatenate(weights) if weights else empty_i,
        stakes=np.concatenate(stakes) if stakes else np.empty(0, dtype=np.float64),
    )


def make_simulation(
    config: SimulationConfig,
    mechanism: Optional[RewardMechanism] = None,
    transaction_source: Optional[TransactionSource] = None,
    behaviors: Optional[Sequence[Behavior]] = None,
    latency: Optional[LatencyModel] = None,
):
    """Build the simulation engine selected by ``config.backend``.

    ``"des"`` returns the event-driven :class:`AlgorandSimulation` (the
    differential oracle); ``"fast"`` the vectorized :class:`FastSimulation`.
    Both expose ``run(n_rounds) -> SimulationMetrics`` with the same
    record schema.
    """
    if config.backend == "fast":
        return FastSimulation(
            config,
            mechanism=mechanism,
            transaction_source=transaction_source,
            behaviors=behaviors,
            latency=latency,
        )
    return AlgorandSimulation(
        config,
        mechanism=mechanism,
        transaction_source=transaction_source,
        behaviors=behaviors,
    )
