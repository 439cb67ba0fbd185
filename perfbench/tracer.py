"""Outside-in tracing: spans recorded by wrapping each layer's public calls.

Nothing here touches the program's source.  :class:`Tracer` swaps a
timing wrapper in for a function or method attribute while a
``with tracer.installed():`` block is open and keeps every span in
memory — name, start, end, parent span, run id — until :meth:`dump`
writes them out as one JSON document.  A run is one top-level call (an
audit, a dynamics run, a sweep, a served job) with everything it
nested; runs are numbered from 0 in the order they started.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``(module path, attribute path, span name)`` for every wrapped call.
#: Methods are wrapped on their class, so every instance sees the wrapper;
#: a function imported by name into another module is wrapped there too.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.populations.spec", "PopulationSpec.block", "populations.block"),
    ("repro.populations.spec", "PopulationSpec.chunk_draws", "populations.chunk_draws"),
    ("repro.populations.spec", "PopulationSpec.block_rng", "populations.block_rng"),
    ("repro.schemes.population_audit", "audit_population_grid", "audit.grid"),
    ("repro.analysis.scale", "audit_population_grid", "audit.grid"),
    ("repro.analysis.scale", "run_scale", "service.job"),
    (
        "repro.scenarios.population_dynamics",
        "run_population_dynamics",
        "dynamics.run",
    ),
    ("repro.analysis.defection", "run_sweep", "orchestrator.run_sweep"),
)


def _resolve(module_path: str, attr_path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_path)
    *parents, name = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._next_id = 0
        self._next_run = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _wrap(self, function: Any, name: str) -> Any:
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            # A span opened with nothing above it starts a new run; its
            # nested spans inherit that run id.
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
                if stack:
                    parent, run = stack[-1]
                else:
                    parent, run = None, tracer._next_run
                    tracer._next_run += 1
            stack.append((span_id, run))
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": run,
                        }
                    )

        return traced

    @contextmanager
    def installed(
        self, targets: Sequence[Tuple[str, str, str]] = LAYER_TARGETS
    ) -> Iterator["Tracer"]:
        """Wrap every target for the block; the originals come back after."""
        saved = []
        try:
            for module_path, attr_path, name in targets:
                owner, attr = _resolve(module_path, attr_path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path: Path, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write every span (and ``extra`` context) as one JSON document."""
        with self._lock:
            spans = sorted(self.spans, key=lambda item: item["id"])
        document = dict(extra or {})
        document["spans"] = spans
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, sort_keys=True))
