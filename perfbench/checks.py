"""Output checks: stored digests of the reference outputs, else invariants.

``digests.json`` maps ``workload -> seed -> sha256`` of each workload's
deterministic output as the reference commit produced it (regenerate with
``record_digests.py`` only when a computation legitimately changes).  A
seed with a stored digest must reproduce it exactly; any other seed falls
back to the seed-free invariants each workload defines, so a wrong answer
never counts as a fast one.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(value: Any) -> bytes:
    """Sorted, compact JSON bytes (the digest input for structured data)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def load_digests() -> Dict[str, Dict[str, str]]:
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text())


def verify(
    workload: str,
    seed: int,
    digest: str,
    invariant_problems: List[str],
    table: Optional[Mapping[str, Mapping[str, str]]] = None,
) -> List[str]:
    """Problems with one output: digest mismatch, or failed invariants.

    With a stored digest for ``(workload, seed)`` the digest decides; the
    invariants are still reported, since a stored output must satisfy
    them too.  Without one, the invariants alone decide.
    """
    table = load_digests() if table is None else table
    expected = table.get(workload, {}).get(str(seed))
    problems = list(invariant_problems)
    if expected is not None and expected != digest:
        problems.append(
            f"{workload} seed {seed}: output digest {digest[:16]} differs from "
            f"the stored reference {expected[:16]}"
        )
    return problems


# -- audit_grid ---------------------------------------------------------------


def audit_identity(grid: Any) -> Dict[str, Any]:
    """The certified tensor and each witness's identity (no float gains).

    Gains may move in their last bits when the kernel's arithmetic is
    reassociated; the verdicts and which agent deviates how must not.
    """
    return {
        "certified": grid.certified_tensor().tolist(),
        "witnesses": {
            f"{scheme}|{b!r}|{cs!r}": [
                witness.player,
                witness.role,
                witness.from_strategy,
                witness.to_strategy,
            ]
            for (scheme, b, cs), witness in sorted(grid.witnesses().items())
        },
    }


def audit_invariants(grid: Any) -> List[str]:
    """Theorems 2/3: role_based is certified at budget 1.5, foundation is not."""
    problems = []
    for cs in grid.cost_scales:
        if not grid.report("role_based", 1.5, cs).certified:
            problems.append(f"role_based not certified at budget 1.5, cost {cs}")
        if grid.report("foundation", 1.5, cs).certified:
            problems.append(f"foundation certified at budget 1.5, cost {cs}")
    return problems


# -- dynamics_churn -----------------------------------------------------------


def dynamics_bytes(trajectory: Any) -> bytes:
    return json.dumps(trajectory.to_payload(), sort_keys=True).encode("utf-8")


def dynamics_invariants(trajectory: Any, n_epochs: int, n_agents: int) -> List[str]:
    """Role-based rewards keep blocks coming and drive defection down."""
    records = trajectory.records
    if len(records) != n_epochs + 1:
        return [f"expected {n_epochs + 1} epoch records, got {len(records)}"]
    problems = []
    if any(record.n_players != n_agents for record in records):
        problems.append("an epoch lost or gained agents")
    if not all(record.block_success for record in records):
        problems.append("an epoch produced no block under role_based rewards")
    first, last = records[0].defection_share, records[-1].defection_share
    if not last < first / 2:
        problems.append(f"defection share {first:.3f} -> {last:.3f} did not halve")
    return problems


def repeat_check(path: Path, counts: Mapping[str, float]) -> List[str]:
    """Exact counts must match what an earlier run at the same key stored.

    The first run at a key stores its counts; every later one compares.
    ``path`` encodes workload, seed, run length and a hash of the source
    tree, so a changed program starts a fresh record.
    """
    if path.exists():
        stored = json.loads(path.read_text())
        return [
            f"non-deterministic: {name} = {counts.get(name)} here, "
            f"{stored[name]} in an earlier run at the same seed"
            for name in sorted(stored)
            if stored[name] != counts.get(name)
        ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dict(counts), sort_keys=True))
    return []


def source_hash(src: Path) -> str:
    """Short hash of every Python file under ``src`` (names and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]
