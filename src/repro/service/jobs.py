"""Job kinds: validated, content-addressed units of service work.

Every ``POST /v1/jobs`` body names a **kind** (``audit``, ``dynamics``,
``scenarios``, ``tournament``) plus a ``params`` object.  This module
turns that pair into a :class:`PreparedJob`.  The kinds themselves —
fields, defaults, validation, execution and payload — are defined once
in :mod:`repro.analysis.kinds` and shared with the CLI; this module only
adapts them to requests.  Parameters are validated *eagerly*: unknown
kinds, unknown fields, out-of-range values and unknown scheme or
population family names all raise
:class:`~repro.errors.ConfigurationError` at submission time, so the
HTTP front end can answer a structured 400 and a bad request never
reaches a worker thread.  The normalized params' SHA-256 content hash
(the same :func:`~repro.analysis.sweep.canonical_json` idiom the shard
cache uses) becomes the job's **memoization key**: two requests that
mean the same computation hash to the same key no matter how their JSON
was spelled, which is what makes single-flight deduplication and
repeat-request cache hits sound.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Mapping, Type

from repro.analysis.kinds import KINDS, JobContext, KindParams
from repro.analysis.sweep import canonical_json
from repro.errors import ConfigurationError

__all__ = [
    "JOB_KINDS",
    "JobContext",
    "PreparedJob",
    "job_key",
    "prepare_job",
]


@dataclass(frozen=True)
class PreparedJob:
    """A validated request, ready to queue: kind + canonical params + closure.

    ``key`` is the content hash of ``(kind, params)``; ``run`` executes
    the job and returns the deterministic payload dict.
    """

    kind: str
    params: Dict[str, Any] = field(compare=False)
    key: str = field(compare=False)
    run: Callable[[JobContext], Dict[str, Any]] = field(compare=False, repr=False)


def job_key(kind: str, params: Mapping[str, Any]) -> str:
    """The memoization key: SHA-256 over the canonical-JSON (kind, params).

    Reuses :func:`~repro.analysis.sweep.canonical_json` (sorted keys, no
    whitespace drift) so the key is stable across processes and sessions
    — the same idiom that keys the orchestrator's shard cache.
    """
    blob = canonical_json({"kind": kind, "params": dict(params)})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _prepare(kind: Type[KindParams], raw: Mapping[str, Any]) -> PreparedJob:
    """Validate one registered kind's params; the closure serves its payload."""
    params = kind.from_json(raw)
    canonical = params.canonical()
    return PreparedJob(
        kind.kind,
        canonical,
        job_key(kind.kind, canonical),
        lambda context: kind.payload(params.run(context)),
    )


#: Request ``kind`` -> prepare function, one entry per registered
#: experiment kind; the engine and HTTP layer are kind-agnostic.
JOB_KINDS: Dict[str, Callable[[Mapping[str, Any]], PreparedJob]] = {
    name: partial(_prepare, kind) for name, kind in KINDS.items()
}


def prepare_job(kind: Any, params: Any) -> PreparedJob:
    """Validate and normalize one request into a :class:`PreparedJob`.

    Raises :class:`~repro.errors.ConfigurationError` (mapped to a
    structured HTTP 400 by the front end) for an unknown kind, non-object
    params, unknown fields, out-of-range values, or unknown scheme /
    population-family names — all *before* the job can reach the queue.
    """
    if not isinstance(kind, str) or kind not in JOB_KINDS:
        raise ConfigurationError(
            f"unknown job kind {kind!r}; choose from {sorted(JOB_KINDS)}"
        )
    if params is None:
        params = {}
    if not isinstance(params, Mapping):
        raise ConfigurationError(
            f"'params' must be a JSON object, got {type(params).__name__}"
        )
    return JOB_KINDS[kind](dict(params))
