"""The fast kernel's round records replay against the committed golden.

The pinned runs live in ``benchmarks/check_fastpath_records.py`` (the CI
guard); this test loads it as a module so the tier-1 suite and the guard
share one definition of what is pinned.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path


def _records_script():
    """The CI records guard, loaded as a module (it owns the pinned runs)."""
    path = (
        Path(__file__).resolve().parents[2] / "benchmarks" / "check_fastpath_records.py"
    )
    loader_spec = importlib.util.spec_from_file_location("check_fastpath_records", path)
    module = importlib.util.module_from_spec(loader_spec)
    loader_spec.loader.exec_module(module)
    return module


class TestFastpathGoldenRecords:
    """Every pinned run's records, rewards, stakes and weight counts."""

    def test_golden_records_replay_is_bit_identical(self):
        script = _records_script()
        assert script.compute_payload() == script.GOLDEN_PATH.read_text()

    def test_golden_covers_the_regimes_it_claims(self):
        script = _records_script()
        runs = {
            run["label"]: run
            for run in json.loads(script.GOLDEN_PATH.read_text())["runs"]
        }
        labels = [run["label"] for run in runs.values()]
        assert labels == [label for label, _config, _mech in script.golden_runs()]
        # Healthy networks finalize; half the nodes defecting never does.
        assert all(
            r["authoritative_label"] == "final"
            for r in runs["defection_0.0"]["records"]
        )
        assert not any(
            r["authoritative_label"] == "final"
            for r in runs["defection_0.5"]["records"]
        )
        # The reward run pays out, and a 3-step budget fails some rounds.
        assert any(
            float.fromhex(r) > 0 for r in runs["role_based_rewards"]["rewards_received"]
        )
        assert any(
            r["n_none"] == r["n_online"] for r in runs["max_binary_steps_3"]["records"]
        )
        assert all(
            r["steps_used"] == 13 for r in runs["no_short_circuit"]["records"]
        )
