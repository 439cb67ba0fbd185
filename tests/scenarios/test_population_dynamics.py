"""Tests for the streamed population-dynamics layer.

Spec validation and round-trips, the golden-trajectory replay contract
(Section V's conclusions are pinned bit-exactly), stake churn with
selected-agent pinning, the carried epoch columns (churned or not)
against a fresh synthesis and the oracle's cumulative churn replay (and
the spill file's lifetime), the
campaign/orchestrator integration, and the ``repro-runner dynamics``
experiment surface.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.populations import SEED_BLOCK, PopulationSpec
from repro.scenarios import population_dynamics
from repro.scenarios.population_dynamics import (
    UPDATE_RULES,
    PopulationDynamicsSpec,
    dynamics_sweep_spec,
    dynamics_to_csv,
    render_dynamics_trajectories,
    run_population_dynamics,
    run_population_dynamics_campaign,
)
from repro.schemes.population_audit import (
    _build_structure,
    _chunk_context,
    _chunks,
)
from repro.schemes.registry import resolve_scheme

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _population(**overrides) -> PopulationSpec:
    settings = {
        "family": "zipf",
        "size": 600,
        "params": {"exponent": 1.9, "scale": 3.0},
        "cooperation": 0.9,
        "seed": 7,
    }
    settings.update(overrides)
    return PopulationSpec(**settings)


def _spec(**overrides) -> PopulationDynamicsSpec:
    settings = {
        "name": "unit",
        "population": _population(),
        "n_epochs": 5,
        "n_leaders": 3,
        "committee_size": 8,
    }
    settings.update(overrides)
    return PopulationDynamicsSpec(**settings)


class TestSpecValidation:
    def test_round_trips_through_params(self):
        spec = _spec(update_rule="best_response", churn_rate=0.2)
        rebuilt = PopulationDynamicsSpec.from_params(spec.to_params())
        assert rebuilt == spec
        assert rebuilt.cache_key() == spec.cache_key()

    def test_population_accepts_a_params_mapping(self):
        spec = PopulationDynamicsSpec(
            name="from-mapping", population=_population().to_params()
        )
        assert isinstance(spec.population, PopulationSpec)
        assert spec.population.size == 600

    def test_with_overrides_revalidates(self):
        spec = _spec()
        assert spec.with_overrides(n_epochs=9).n_epochs == 9
        with pytest.raises(ConfigurationError):
            spec.with_overrides(n_epochs=0)

    def test_cache_key_covers_every_field(self):
        assert _spec().cache_key() != _spec(churn_rate=0.1).cache_key()
        assert _spec().cache_key() != _spec(
            population=_population(seed=8)
        ).cache_key()

    def test_describe_mentions_the_shape(self):
        text = _spec().describe()
        assert "unit" in text and "replicator" in text and "E=5" in text

    def test_rejected_shapes(self):
        with pytest.raises(ConfigurationError):
            _spec(name="")
        with pytest.raises(ConfigurationError):
            _spec(update_rule="mimicry")
        with pytest.raises(ConfigurationError):
            _spec(replicator_intensity=0.0)
        with pytest.raises(ConfigurationError):
            _spec(replicator_mutation=1.0)
        with pytest.raises(ConfigurationError):
            _spec(churn_rate=1.5)
        with pytest.raises(ConfigurationError):
            _spec(churn_family="zipf")  # churn params without churn
        with pytest.raises(ConfigurationError):
            _spec(churn_rate=0.1, churn_family="no-such-family")

    def test_update_rules_constant_matches_validation(self):
        for rule in UPDATE_RULES:
            assert _spec(update_rule=rule).update_rule == rule


def _dynamics_drift_script():
    """The CI drift guard, loaded as a module (it owns the pinned runs)."""
    path = (
        Path(__file__).resolve().parents[2] / "benchmarks" / "check_dynamics_drift.py"
    )
    loader_spec = importlib.util.spec_from_file_location("check_dynamics_drift", path)
    module = importlib.util.module_from_spec(loader_spec)
    loader_spec.loader.exec_module(module)
    return module


class TestGoldenTrajectories:
    """Refactors cannot silently change the Section V conclusions."""

    REPLAYED = ("", "churn_", "jitter32_")

    @staticmethod
    def _replay(variant: str, scheme: str) -> None:
        script = _dynamics_drift_script()
        golden = script.golden_path(scheme, variant).read_text()
        spec = script.golden_specs()[variant]
        assert script.compute_payload(spec, scheme) == golden

    @pytest.mark.parametrize("scheme", ["foundation", "role_based"])
    def test_golden_replay_is_bit_identical(self, scheme):
        self._replay("", scheme)

    @pytest.mark.parametrize("scheme", ["foundation", "role_based"])
    def test_churned_golden_replay_is_bit_identical(self, scheme):
        """Churned stakes carried across 12 epochs replay bit for bit."""
        self._replay("churn_", scheme)

    @pytest.mark.parametrize("scheme", ["foundation", "role_based"])
    def test_jittered_float32_golden_replay_is_bit_identical(self, scheme):
        """Widened float32 stakes and jittered costs replay bit for bit."""
        self._replay("jitter32_", scheme)

    def test_every_pinned_run_is_replayed(self):
        assert tuple(_dynamics_drift_script().golden_specs()) == self.REPLAYED

    def test_goldens_pin_the_paper_verdicts(self):
        foundation = json.loads(
            (_GOLDEN_DIR / "population_dynamics_foundation.json").read_text()
        )
        role_based = json.loads(
            (_GOLDEN_DIR / "population_dynamics_role_based.json").read_text()
        )
        final_f = foundation["epochs"][-1]
        final_r = role_based["epochs"][-1]
        assert final_f["n_defecting"] == final_f["n_players"]  # unraveled
        assert final_f["block_success"] is False
        assert final_r["n_defecting"] == 0  # stabilized
        assert final_r["block_success"] is True


class TestEngineBehavior:
    def test_trajectory_shape_and_metadata(self):
        trajectory = run_population_dynamics(_spec(), "role_based")
        assert trajectory.scenario == "unit"
        assert trajectory.scheme == "role_based"
        assert len(trajectory.records) == 6
        assert trajectory.b_i > 0
        assert [record.epoch for record in trajectory.records] == list(range(6))

    def test_best_response_mode_runs_and_differs_from_replicator(self):
        replicator = run_population_dynamics(_spec(), "role_based")
        best_response = run_population_dynamics(
            _spec(update_rule="best_response"), "role_based"
        )
        assert best_response.records[0].n_cooperating == (
            replicator.records[0].n_cooperating
        )  # same realized epoch 0
        assert (
            best_response.defection_series() != replicator.defection_series()
        )

    def test_churn_pins_the_selected_and_the_calibration(self):
        """Stake churn perturbs the trajectory but never the structure.

        A gentle replicator intensity keeps the crowd profile *mixed*
        while blocks still succeed — the regime where the pool split
        actually depends on the stake distribution.  (At an all-C
        profile the cooperator class sweeps the whole budget whatever
        the stakes, so churn would be invisible in the aggregates.)
        """
        still = run_population_dynamics(
            _spec(n_epochs=4, replicator_intensity=0.5), "role_based"
        )
        churned = run_population_dynamics(
            _spec(n_epochs=4, replicator_intensity=0.5, churn_rate=0.5),
            "role_based",
        )
        assert churned.b_i == still.b_i
        assert churned.alpha == still.alpha
        # Same epoch-0 state (churn starts at epoch 1), different later
        # payoffs (the crowd's stakes moved under the same behavior draws).
        assert churned.records[0].n_cooperating == still.records[0].n_cooperating
        assert any(
            ours.mean_payoff_cooperate != theirs.mean_payoff_cooperate
            for ours, theirs in zip(churned.records[1:], still.records[1:])
        )

    def test_churn_family_override_is_used(self):
        uniform = run_population_dynamics(
            _spec(
                n_epochs=3,
                churn_rate=0.5,
                churn_family="uniform",
                churn_params={"low": 1.0, "high": 2.0},
            ),
            "role_based",
        )
        default = run_population_dynamics(
            _spec(n_epochs=3, churn_rate=0.5), "role_based"
        )
        assert uniform.records[-1].mean_payoff_cooperate != (
            default.records[-1].mean_payoff_cooperate
        )

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            run_population_dynamics(_spec(), "no-such-scheme")


class TestChurnCarry:
    """The column carry, churned or not, equals a fresh synthesis."""

    THRESHOLDS = (0.3, 0.1)  # (non-sync, sync) defection levels

    @staticmethod
    def _churned(**overrides) -> PopulationDynamicsSpec:
        settings = {
            "population": _population(size=2 * SEED_BLOCK + 700, seed=5),
            "churn_rate": 0.2,
            "chunk_agents": SEED_BLOCK,
        }
        settings.update(overrides)
        return _spec(**settings)

    @staticmethod
    def _engine(spec: PopulationDynamicsSpec):
        structure = _build_structure(
            [resolve_scheme("role_based")], spec.population, spec.audit_config()
        )
        return population_dynamics._build_engine(spec, "role_based", structure)

    @staticmethod
    def _record_spills(monkeypatch):
        opened = []
        real = population_dynamics.tempfile.TemporaryFile

        def recording(*args, **kwargs):
            handle = real(*args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr(
            population_dynamics.tempfile, "TemporaryFile", recording
        )
        return opened

    def _expected_actions(self, engine, chunk, sync, epoch, sel_action):
        uniforms = engine.spec.population.chunk_draws(
            chunk.offset,
            chunk.n_agents,
            f"dynamics.realize.{epoch}",
            lambda rng, n: rng.random(n),
        )
        level = np.where(sync, self.THRESHOLDS[1], self.THRESHOLDS[0])
        actions = (uniforms < level).astype(np.int8)
        for j, agent in enumerate(engine.structure.selected_index):
            if chunk.offset <= agent < chunk.offset + chunk.n_agents:
                actions[agent - chunk.offset] = sel_action[j]
        return actions

    @pytest.mark.parametrize("churn_rate", [0.2, 0.0], ids=["churned", "churn-free"])
    def test_carried_columns_equal_a_fresh_synthesis_for_60_epochs(self, churn_rate):
        population = _population(size=2 * SEED_BLOCK + 700, seed=5, cost_jitter=0.3)
        spec = self._churned(
            population=population, n_epochs=60, churn_rate=churn_rate
        )
        engine = self._engine(spec)
        structure = engine.structure
        chunks = list(_chunks(spec.population, engine.config))
        assert len(chunks) == 3
        sel_action = (np.arange(structure.config.n_selected) % 2).astype(np.int8)
        try:
            for epoch in range(spec.n_epochs + 1):
                population_dynamics._measure_pass(
                    engine, epoch, self.THRESHOLDS, sel_action, None
                )
                for chunk in chunks:
                    fresh = _chunk_context(structure, spec.population, chunk)
                    stake, cost, sync, action = engine.carry.read(chunk.offset)
                    replayed = population_dynamics._replayed_stake(
                        engine, chunk, epoch
                    )
                    assert stake.tobytes() == replayed.tobytes()
                    assert cost.tobytes() == chunk.cost64().tobytes()
                    assert sync.tobytes() == fresh.sync.tobytes()
                    expected = self._expected_actions(
                        engine, chunk, fresh.sync, epoch, sel_action
                    )
                    assert action.tobytes() == expected.tobytes()
                    # The update pass replays the held epoch unchanged.
                    held = population_dynamics._replayed_context(
                        engine, chunk.offset, epoch
                    )
                    assert held.stake.tobytes() == replayed.tobytes()
                    assert held.action.tobytes() == expected.tobytes()
                    assert held.roles.tobytes() == fresh.roles.tobytes()
                    assert held.coop_cost.tobytes() == fresh.coop_cost.tobytes()
        finally:
            engine.close()

    def test_out_of_order_epochs_raise(self):
        engine = self._engine(self._churned(n_epochs=3))
        offset = 0
        sel_action = np.zeros(engine.structure.config.n_selected, dtype=np.int8)

        def measure(epoch):
            population_dynamics._measured_context(
                engine, offset, epoch, self.THRESHOLDS, sel_action, None
            )

        def replay(epoch):
            population_dynamics._replayed_context(engine, offset, epoch)

        try:
            with pytest.raises(RuntimeError, match="holds epoch -1"):
                replay(0)  # nothing measured yet
            with pytest.raises(RuntimeError, match="holds epoch -1"):
                measure(1)
            population_dynamics._measure_pass(
                engine, 0, self.THRESHOLDS, sel_action, None
            )
            measure(1)
            for epoch in (0, 1, 3):  # re-measure, rewind, skip
                with pytest.raises(RuntimeError, match="cannot stream epoch"):
                    measure(epoch)
            for epoch in (0, 2):
                with pytest.raises(RuntimeError, match="cannot stream epoch"):
                    replay(epoch)
            replay(1)
        finally:
            engine.close()

    @pytest.mark.parametrize("n_epochs", [1, 6])
    @pytest.mark.parametrize("update_rule", UPDATE_RULES)
    def test_a_run_synthesizes_each_block_twice(
        self, monkeypatch, n_epochs, update_rule
    ):
        """The structure pass and the epoch-0 measure pass, at any E."""
        calls = []
        real = PopulationSpec.block

        def counting(population, block_index):
            calls.append(block_index)
            return real(population, block_index)

        monkeypatch.setattr(PopulationSpec, "block", counting)
        spec = self._churned(n_epochs=n_epochs, update_rule=update_rule)
        run_population_dynamics(spec, "role_based")
        assert sorted(calls) == sorted(2 * list(range(spec.population.n_blocks)))

    def test_the_spill_is_closed_after_a_run(self, monkeypatch):
        opened = self._record_spills(monkeypatch)
        run_population_dynamics(self._churned(n_epochs=3), "role_based")
        assert len(opened) == 1
        assert opened[0].closed
        run_population_dynamics(_spec(n_epochs=2), "role_based")
        assert len(opened) == 2  # churn-free runs carry their columns too
        assert opened[1].closed

    def test_the_spill_is_closed_when_the_run_raises(self, monkeypatch):
        spec = self._churned(n_epochs=4)
        opened = self._record_spills(monkeypatch)
        draws = []

        def failing_after_two_rounds(rng, n):
            draws.append(n)
            sign = 1.0 if len(draws) <= 2 * spec.population.n_blocks else -1.0
            return sign * (1.0 + rng.random(n))

        monkeypatch.setattr(
            population_dynamics,
            "resolve_sampler",
            lambda family, params: failing_after_two_rounds,
        )
        with pytest.raises(ConfigurationError, match="non-positive"):
            run_population_dynamics(spec, "role_based")
        assert len(draws) > 2 * spec.population.n_blocks  # failed in round 3
        assert len(opened) == 1
        assert opened[0].closed


class TestCampaign:
    def test_sweep_spec_grid_and_validation(self):
        sweep = dynamics_sweep_spec([_spec()], ["foundation", "role_based"])
        assert sweep.name == "population-dynamics"
        assert len(sweep.grid["dynamics"]) == 1
        assert len(sweep.grid["scheme"]) == 2
        with pytest.raises(ConfigurationError):
            dynamics_sweep_spec([], ["foundation"])
        with pytest.raises(ConfigurationError):
            dynamics_sweep_spec([_spec()], [])

    def test_campaign_matches_direct_runs_and_caches(self, tmp_path):
        specs = [_spec(n_epochs=3)]
        first = run_population_dynamics_campaign(
            specs, ["foundation", "role_based"], cache_dir=tmp_path
        )
        direct = run_population_dynamics(specs[0], "foundation")
        assert first[("unit", "foundation")].to_payload() == direct.to_payload()
        # Second run resumes entirely from the shard cache.
        again = run_population_dynamics_campaign(
            specs, ["foundation", "role_based"], cache_dir=tmp_path
        )
        assert {key: t.to_payload() for key, t in again.items()} == {
            key: t.to_payload() for key, t in first.items()
        }
        assert any(tmp_path.iterdir())

    def test_campaign_workers_are_semantically_invisible(self, tmp_path):
        specs = [_spec(n_epochs=2)]
        serial = run_population_dynamics_campaign(specs, ["role_based"])
        parallel = run_population_dynamics_campaign(
            specs, ["role_based"], workers=2
        )
        assert serial[("unit", "role_based")].to_payload() == (
            parallel[("unit", "role_based")].to_payload()
        )


class TestRenderingAndRunner:
    def test_render_mentions_schemes_and_verdicts(self):
        trajectories = run_population_dynamics_campaign(
            [_spec(n_epochs=3)], ["foundation", "role_based"]
        )
        text = render_dynamics_trajectories(trajectories)
        assert "foundation" in text and "role_based" in text
        assert "verdict" in text

    def test_csv_export(self, tmp_path):
        trajectories = run_population_dynamics_campaign(
            [_spec(n_epochs=2)], ["role_based"]
        )
        path = tmp_path / "dynamics.csv"
        dynamics_to_csv(trajectories, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("dynamics,scheme,epoch")
        assert len(lines) == 1 + 3  # header + epochs 0..2

    def test_runner_dynamics_experiment(self, tmp_path):
        from repro.analysis.runner import run_experiment

        outcome = run_experiment(
            "dynamics",
            scale="small",
            out=tmp_path,
            agents=600,
            epochs=2,
            chunk_agents=None,
            schemes=("role_based",),
            workers=1,
        )
        assert "role_based" in outcome.rendered
        assert (tmp_path / "dynamics.csv").exists()
        payload = json.loads((tmp_path / "dynamics.json").read_text())
        assert list(payload) == ["dynamics-small/role_based"]

    def test_runner_cli_flags_reach_the_experiment(self, tmp_path, capsys):
        from repro.analysis.runner import main

        code = main(
            [
                "dynamics",
                "--scale",
                "small",
                "--agents",
                "600",
                "--epochs",
                "2",
                "--scheme",
                "foundation",
                "--workers",
                "1",
                "--no-progress",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "foundation" in printed and "verdict" in printed
