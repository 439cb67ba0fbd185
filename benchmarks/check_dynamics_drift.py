"""CI guard: the streamed dynamics trajectories must match the goldens.

The golden JSON fixtures under ``tests/scenarios/golden/`` pin the full
epoch trajectories (every record field, bit-exact floats) of the paper's
two Section V schemes on a small fixed-seed Zipf population — foundation
unravels, role-based sharing stabilizes.  A second, churned run
(``population_dynamics_churn_*.json``: 10% of stakes resampled per
epoch over 12 epochs) pins the stake state carried across epochs and
chunk seams.  Its gentler replicator (intensity 0.5) keeps the
role-based crowd mixed, so the churned stakes move that scheme's payoff
means in every epoch; under foundation, blocks fail from epoch 1 on and
payoffs no longer depend on stake.  A third run
(``population_dynamics_jitter32_*.json``) stores the population in
float32 with per-agent cost jitter (sigma 0.3) and evolves it by
synchronous best response under the same churn, so the widened stake
and cost columns every pass reads are pinned too.  Its budget of six
times the bound gives the jittered costs headroom: role-based sharing
holds the Theorem 3 profile with every block produced (churned stakes
move its payoffs each epoch), while foundation unravels.  This script
re-runs the streamed driver and fails if any byte of a payload
diverges, so a refactor of the chunked kernels can't silently change
the paper's conclusions.  Exits non-zero on divergence (fails the CI
job).

Run from the repo root::

    PYTHONPATH=src python benchmarks/check_dynamics_drift.py
    PYTHONPATH=src python benchmarks/check_dynamics_drift.py --write  # regen

``--write`` regenerates the fixtures — only for intentional semantic
changes, with the diff reviewed and the campaign version bumped.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_GOLDEN_DIR = _REPO_ROOT / "tests" / "scenarios" / "golden"
SCHEMES = ("foundation", "role_based")


def golden_path(scheme: str, variant: str = "") -> Path:
    """Fixture location for one scheme's pinned trajectory."""
    return _GOLDEN_DIR / f"population_dynamics_{variant}{scheme}.json"


def golden_spec():
    """The pinned dynamics run: small, fixed-seed, chunked."""
    from repro.populations import PopulationSpec
    from repro.scenarios.population_dynamics import PopulationDynamicsSpec

    return PopulationDynamicsSpec(
        name="golden",
        population=PopulationSpec(
            family="zipf",
            size=16_384,
            params={"exponent": 1.9, "scale": 3.0},
            cooperation=0.9,
            seed=2021,
        ),
        n_epochs=8,
        chunk_agents=8_192,
    )


def golden_specs():
    """Every pinned run, keyed by its fixture-name variant prefix."""
    base = golden_spec()
    return {
        "": base,
        "churn_": base.with_overrides(
            name="golden-churn",
            churn_rate=0.1,
            n_epochs=12,
            replicator_intensity=0.5,
        ),
        "jitter32_": base.with_overrides(
            name="golden-jitter32",
            population=base.population.with_overrides(
                dtype="float32", cost_jitter=0.3
            ),
            update_rule="best_response",
            churn_rate=0.1,
            n_epochs=12,
            budget_multiplier=6.0,
        ),
    }


def compute_payload(spec, scheme: str) -> str:
    """One run's trajectory payload, serialized canonically."""
    from repro.scenarios.population_dynamics import run_population_dynamics

    payload = run_population_dynamics(spec, scheme).to_payload()
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    """Compare (or with ``--write`` regenerate) the golden trajectories."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write",
        action="store_true",
        help="regenerate the golden fixtures instead of checking them",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(_REPO_ROOT / "src"))

    failed = False
    runs = [
        (variant, spec, scheme)
        for variant, spec in golden_specs().items()
        for scheme in SCHEMES
    ]
    for variant, spec, scheme in runs:
        path = golden_path(scheme, variant)
        current = compute_payload(spec, scheme)
        if args.write:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(current)
            print(f"wrote {path}")
            continue
        if not path.exists():
            print(f"FAIL: missing golden fixture {path} (run with --write)")
            failed = True
            continue
        if path.read_text() != current:
            print(
                f"FAIL: {path.stem} trajectory diverged from {path.name} — the "
                "streamed dynamics semantics changed; if intentional, bump "
                "CAMPAIGN_VERSION and regenerate with --write"
            )
            failed = True
        else:
            print(f"OK: {path.stem} trajectory matches {path.name}")
    if failed:
        return 1
    if not args.write:
        print("dynamics goldens: no drift")
    return 0


if __name__ == "__main__":
    sys.exit(main())
