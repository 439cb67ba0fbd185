"""CI guard: the audits' gain bits must match the goldens.

The golden JSON fixtures under ``tests/schemes/golden/`` pin every cell
of two fused (scheme x budget x cost-scale) population audits and of two
batch audits bit for bit: ``max_gain``, ``max_shirk_gain``,
``n_deviations``, the verdict and the witness (its gain and stake
included), with every float stored as ``float.hex``.

* ``population_audit_grid_theorem3.json`` — a chunked 2x10^4-agent Zipf
  population under the Theorem 3 target, all five schemes, budgets
  0.5x-2x the bound and cost scales 0.5-2.
* ``population_audit_grid_population.json`` — the ``population`` target
  on two small uniform populations: one whose base block fails (several
  strong-synchrony defectors) and one with a sole sync defector, whose
  switch to C is the only deviation that earns a reward.
* ``audit_batch.json`` — the batch engine
  (:func:`repro.schemes.audit.audit_schemes`, the tournament's IC
  margins) on all five schemes: the default ``AuditConfig`` grid and an
  All-C grid over every stake kind.  Each cell also pins the oracle
  cross-check's ``oracle_max_diff`` and the witness's population.

The perfbench digest leaves the float gains out on purpose, and the
fused-versus-per-cell tests compare two callers of one kernel, so this
is the check that pins the gain arithmetic across commits.  Exits
non-zero on divergence (fails the CI job).

Run from the repo root::

    PYTHONPATH=src python benchmarks/check_audit_drift.py
    PYTHONPATH=src python benchmarks/check_audit_drift.py --write  # regen

``--write`` regenerates the fixtures — only for intentional semantic
changes to the gain arithmetic, with the diff reviewed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_GOLDEN_DIR = _REPO_ROOT / "tests" / "schemes" / "golden"
SCHEMES = ("foundation", "role_based", "irs", "axiomatic_tau", "hybrid")
BUDGETS = (0.5, 1.0, 1.5, 2.0)
COST_SCALES = (0.5, 1.0, 2.0)


#: Every pinned variant; ``batch`` runs the batch engine, the rest the
#: fused population grid.
VARIANTS = ("theorem3", "population", "batch")


def golden_path(variant: str) -> Path:
    """Fixture location for one pinned variant."""
    name = "audit_batch" if variant == "batch" else f"population_audit_grid_{variant}"
    return _GOLDEN_DIR / f"{name}.json"


def golden_runs():
    """Every pinned grid audit, as ``variant -> [(label, spec, config)]``."""
    from repro.populations import PopulationSpec
    from repro.schemes.population_audit import PopulationAuditConfig

    population_config = PopulationAuditConfig(
        target="population", n_leaders=2, committee_size=5, chunk_agents=None
    )
    return {
        "theorem3": [
            (
                "zipf",
                PopulationSpec(
                    family="zipf",
                    size=20_000,
                    params={"exponent": 1.9, "scale": 3.0},
                    seed=5,
                ),
                PopulationAuditConfig(chunk_agents=4096),
            )
        ],
        "population": [
            (
                "failed_base_block",
                PopulationSpec(family="uniform", size=300, cooperation=0.6, seed=7),
                population_config,
            ),
            (
                "sole_sync_defector",
                PopulationSpec(
                    family="uniform", size=150, cooperation=0.992, seed=0
                ),
                population_config,
            ),
        ],
    }


def batch_runs():
    """The pinned batch audits, as ``[(label, config)]``."""
    from repro.schemes.audit import AuditConfig

    return [
        ("theorem3", AuditConfig()),
        (
            "all_c",
            AuditConfig(
                target="all_c", stake_kinds=("uniform", "normal", "whale_mix")
            ),
        ),
    ]


def _hex(value: float) -> str:
    return float(value).hex()


def _cell(report) -> dict:
    """One cell's gain bits, floats as ``float.hex``."""
    witness = report.witness
    return {
        "scheme": report.scheme,
        "certified": report.certified,
        "max_gain": _hex(report.max_gain),
        "max_shirk_gain": _hex(report.max_shirk_gain),
        "n_deviations": report.n_deviations,
        "witness": None
        if witness is None
        else {
            "player": witness.player,
            "role": witness.role,
            "stake": _hex(witness.stake),
            "from": witness.from_strategy,
            "to": witness.to_strategy,
            "gain": _hex(witness.gain),
        },
    }


def _batch_cell(cell) -> dict:
    """One batch cell's gain bits, plus its oracle diff and coordinates."""
    pinned = _cell(cell)
    pinned["oracle_max_diff"] = _hex(cell.oracle_max_diff)
    if cell.witness is not None:
        pinned["witness"]["population"] = cell.witness.population
    return {
        "stake_kind": cell.stake_kind,
        "cost_scale": cell.cost_scale,
        "budget_multiplier": cell.budget_multiplier,
        **pinned,
    }


def _batch_payload() -> str:
    from repro.schemes.audit import audit_schemes

    runs = []
    for label, config in batch_runs():
        reports = audit_schemes(SCHEMES, config)
        runs.append(
            {
                "label": label,
                "target": config.target,
                "cells": [
                    _batch_cell(cell)
                    for scheme in SCHEMES
                    for cell in reports[scheme].cells
                ],
            }
        )
    return json.dumps({"runs": runs}, indent=2, sort_keys=True) + "\n"


def compute_payload(variant: str) -> str:
    """One variant's pinned cells, serialized canonically."""
    from repro.schemes.population_audit import audit_population_grid

    if variant == "batch":
        return _batch_payload()
    runs = []
    for label, spec, config in golden_runs()[variant]:
        grid = audit_population_grid(
            SCHEMES,
            spec,
            config,
            budget_multipliers=BUDGETS,
            cost_scales=COST_SCALES,
        )
        runs.append(
            {
                "label": label,
                "population": grid.population,
                "target": grid.target,
                "chunk_agents": config.chunk_agents,
                "cells": [
                    {
                        "budget_multiplier": b,
                        "cost_scale": cs,
                        **_cell(grid.reports[(scheme, b, cs)]),
                    }
                    for scheme, b, cs in grid.cells()
                ],
            }
        )
    return json.dumps({"runs": runs}, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    """Compare (or with ``--write`` regenerate) the golden grid cells."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write",
        action="store_true",
        help="regenerate the golden fixtures instead of checking them",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(_REPO_ROOT / "src"))

    failed = False
    for variant in VARIANTS:
        path = golden_path(variant)
        current = compute_payload(variant)
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
                f"FAIL: {path.stem} gains diverged from {path.name} — the "
                "deviation-gain arithmetic changed; if intentional, "
                "regenerate with --write"
            )
            failed = True
        else:
            print(f"OK: {path.stem} gains match {path.name}")
    if failed:
        return 1
    if not args.write:
        print("audit goldens: no drift")
    return 0


if __name__ == "__main__":
    sys.exit(main())
