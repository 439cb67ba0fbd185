"""CI guard: the fast kernel's round records must match the golden.

The golden JSON fixture ``tests/sim/golden/fastpath_records.json`` pins
the fast simulation kernel (:class:`repro.sim.fastpath.FastSimulation`)
bit for bit on configurations the DES differential suite never covers:
every :class:`~repro.sim.metrics.RoundRecord` field of every round, the
per-node ``rewards_received`` and final ``stakes`` (floats as
``float.hex``), plus the run's telemetry counts that prove sortition
weights are still evaluated lazily — ``repro_fastpath_vrf_keys_total``
and the per-role ``repro_fastpath_committee_weight`` histograms.

Pinned runs (100 nodes, the Figure 3 parameters unless noted):

* defection rates 0, 0.1, 0.3 and 0.5;
* malicious equivocators (their votes draw from dedicated streams);
* per-round message drops (``drop_probability > 0``);
* a role-based reward mechanism, so stakes compound round over round;
* ``short_circuit_rounds=False`` (every step runs to the budget);
* ``max_binary_steps=3`` (helper votes cut at the budget, step failures).

The ``fig3_campaign`` perfbench digests pin only the trimmed Figure 3
fractions and the DES agreement check covers only the calibrated regime,
so this is the check that pins the kernel's own agreement arithmetic
across commits.  Exits non-zero on divergence (fails the CI job).

Run from the repo root::

    PYTHONPATH=src python benchmarks/check_fastpath_records.py
    PYTHONPATH=src python benchmarks/check_fastpath_records.py --write  # regen

``--write`` regenerates the fixture — only for intentional semantic
changes to the fast kernel, with the diff reviewed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = _REPO_ROOT / "tests" / "sim" / "golden" / "fastpath_records.json"
N_ROUNDS = 12


def golden_runs():
    """Every pinned run, as ``[(label, config, mechanism)]``."""
    from repro.core.role_based import RoleBasedSharing
    from repro.sim import SimulationConfig

    def config(seed: int, **overrides) -> SimulationConfig:
        base = dict(
            n_nodes=100,
            seed=seed,
            stake_low=1.0,
            stake_high=50.0,
            gossip_fanout=5,
            tau_proposer=8.0,
            tau_step=60.0,
            tau_final=80.0,
            verify_crypto=False,
            backend="fast",
        )
        base.update(overrides)
        return SimulationConfig(**base)

    runs = [
        (f"defection_{rate}", config(100 + k, defection_rate=rate), None)
        for k, rate in enumerate((0.0, 0.1, 0.3, 0.5))
    ]
    runs += [
        (
            "malicious",
            config(200, malicious_rate=0.2, offline_rate=0.05),
            None,
        ),
        ("drops", config(201, drop_probability=0.1, defection_rate=0.1), None),
        (
            "role_based_rewards",
            config(202, defection_rate=0.2, malicious_rate=0.05),
            RoleBasedSharing(alpha=0.3, beta=0.4, reward=25.0),
        ),
        (
            "no_short_circuit",
            config(203, defection_rate=0.2, short_circuit_rounds=False),
            None,
        ),
        (
            "max_binary_steps_3",
            config(204, defection_rate=0.3, max_binary_steps=3),
            None,
        ),
    ]
    return runs


def _hex(value: float) -> str:
    return float(value).hex()


def _record(record) -> dict:
    """One round record, every field, floats as ``float.hex``."""
    pinned = {}
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if field.name == "authoritative_label":
            value = value.value
        elif field.name == "reward_total":
            value = _hex(value)
        elif field.name == "reward_params":
            value = {key: _hex(v) for key, v in sorted(value.items())}
        pinned[field.name] = value
    return pinned


def _telemetry(snapshot) -> dict:
    """The lazy-evaluation witnesses: VRF key total and per-role weights."""
    metrics = snapshot["metrics"]
    keys = metrics["repro_fastpath_vrf_keys_total"]["samples"]
    committee = metrics["repro_fastpath_committee_weight"]["samples"]
    return {
        "vrf_keys_total": _hex(sum(sample["value"] for sample in keys)),
        "committee_weight": {
            sample["labels"]["role"]: {
                "count": sample["count"],
                "sum": _hex(sample["sum"]),
                "counts": sample["counts"],
            }
            for sample in committee
        },
    }


def compute_payload() -> str:
    """Every pinned run's records and end state, serialized canonically."""
    from repro.sim.fastpath import FastSimulation
    from repro.telemetry.runtime import capture

    runs = []
    for label, config, mechanism in golden_runs():
        with capture() as registry:
            simulation = FastSimulation(config, mechanism=mechanism)
            metrics = simulation.run(N_ROUNDS)
        runs.append(
            {
                "label": label,
                "records": [_record(record) for record in metrics.records],
                "rewards_received": [_hex(r) for r in simulation.rewards_received],
                "stakes": [_hex(s) for s in simulation.stakes],
                "telemetry": _telemetry(registry.snapshot()),
            }
        )
    payload = {"n_rounds": N_ROUNDS, "runs": runs}
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    """Compare (or with ``--write`` regenerate) the golden records."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write",
        action="store_true",
        help="regenerate the golden fixture instead of checking it",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(_REPO_ROOT / "src"))

    current = compute_payload()
    if args.write:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(current)
        print(f"wrote {GOLDEN_PATH}")
        return 0
    if not GOLDEN_PATH.exists():
        print(f"FAIL: missing golden fixture {GOLDEN_PATH} (run with --write)")
        return 1
    if GOLDEN_PATH.read_text() != current:
        print(
            f"FAIL: fast-kernel records diverged from {GOLDEN_PATH.name} — the "
            "kernel's round semantics changed; if intentional, regenerate "
            "with --write"
        )
        return 1
    print(f"OK: fast-kernel records match {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
