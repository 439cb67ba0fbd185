"""CI guard: boot ``repro-runner serve`` and drive one full client session.

The service-smoke job's scripted client: starts the real server as a
subprocess (ephemeral port, printed on stdout), then performs the whole
API surface end to end —

1. ``GET /healthz`` answers 200/ok;
2. ``POST /v1/jobs`` with a small job of each kind (``audit``,
   ``dynamics``, ``scenarios``, ``tournament``) is accepted (202);
3. polling ``GET /v1/jobs/{id}`` reaches ``done``;
4. ``GET /v1/jobs/{id}/result`` returns the payload, byte-identical to
   the same params run through the CLI path (``scale.audit.json``,
   ``dynamics.json``, ``scenarios.json``, ``tournament.json``);
5. a **repeat audit submission answers 200 with ``memoized: true``** and
   serves the same bytes — the memo cache works across requests;
6. bad requests (unknown scheme, malformed JSON) answer structured
   400s and the service keeps serving;
7. ``GET /metrics`` exposes the service families and the exposition
   **passes the Prometheus linter**
   (:func:`repro.telemetry.lint_prometheus_text`).

Exits non-zero on the first failed expectation (fails the CI job).
Run from the repo root::

    PYTHONPATH=src python benchmarks/check_service_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: One small job per kind the session submits, and the ``run_experiment``
#: flags of the same computation at ``--scale small``.
JOBS = {
    "audit": (
        {"agents": 2000, "schemes": ["foundation", "role_based"]},
        {"agents": 2000, "schemes": ("foundation", "role_based")},
    ),
    "dynamics": (
        {"name": "dynamics-small", "agents": 8192, "epochs": 2},
        {"agents": 8192, "epochs": 2},
    ),
    "scenarios": ({}, {}),
    "tournament": ({}, {}),
}
AUDIT_PARAMS = JOBS["audit"][0]


def fail(message: str) -> None:
    """Print the failure and exit non-zero (fails the CI job)."""
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def request(
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Dict[str, str], bytes]:
    """One HTTP exchange against the served port."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return (
            response.status,
            {name.lower(): value for name, value in response.getheaders()},
            response.read(),
        )
    finally:
        conn.close()


def submit(
    port: int, params: Dict[str, object], kind: str = "audit"
) -> Tuple[int, Dict[str, object]]:
    """POST one job; return (status, decoded body)."""
    status, _, body = request(
        port,
        "POST",
        "/v1/jobs",
        body=json.dumps({"kind": kind, "params": params}).encode(),
        headers={"Content-Type": "application/json", "X-Client-Id": "ci-smoke"},
    )
    return status, json.loads(body)


def poll(port: int, job_id: str, timeout_s: float = 120.0) -> Dict[str, object]:
    """Poll the status endpoint until the job is terminal."""
    deadline = time.monotonic() + timeout_s
    while True:
        status, _, body = request(port, "GET", f"/v1/jobs/{job_id}")
        if status != 200:
            fail(f"poll of {job_id} answered {status}: {body!r}")
        job = json.loads(body)["job"]
        if job["state"] in ("done", "failed"):
            return job
        if time.monotonic() > deadline:
            fail(f"job {job_id} still {job['state']!r} after {timeout_s}s")
        time.sleep(0.2)


def cli_reference_bytes(kind: str) -> bytes:
    """Run one kind's job through the CLI path; return its payload file."""
    from repro.analysis.kinds import KINDS
    from repro.analysis.runner import run_experiment

    with tempfile.TemporaryDirectory() as tmp:
        run_experiment(
            KINDS[kind].experiment,
            scale="small",
            out=Path(tmp),
            workers=1,
            **JOBS[kind][1],
        )
        return (Path(tmp) / KINDS[kind].artifact).read_bytes()


def main() -> int:
    """Boot the server, run the scripted session, report pass/fail."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO_ROOT / "src")
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.analysis.runner",
            "serve",
            "--port",
            "0",
            "--workers",
            "1",
            "--no-progress",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=_REPO_ROOT,
    )
    try:
        assert server.stdout is not None
        ready = server.stdout.readline().strip()
        if not ready.startswith("serving on "):
            fail(f"unexpected startup line: {ready!r}")
        port = int(ready.rsplit(":", 1)[1])
        print(f"server up on port {port}")

        status, _, body = request(port, "GET", "/healthz")
        if status != 200 or json.loads(body)["status"] != "ok":
            fail(f"/healthz answered {status}: {body!r}")
        print("healthz: ok")

        served: Dict[str, bytes] = {}
        for kind, (params, _) in JOBS.items():
            status, first = submit(port, params, kind)
            if status != 202:
                fail(f"first {kind} submission answered {status}: {first}")
            job = poll(port, first["job"]["id"])
            if job["state"] != "done":
                fail(f"{kind} job failed: {job.get('error')}")
            status, _, result = request(
                port, "GET", f"/v1/jobs/{job['id']}/result"
            )
            if status != 200:
                fail(f"{kind} result fetch answered {status}")
            reference = cli_reference_bytes(kind)
            if result != reference:
                fail(
                    f"served {kind} result differs from the CLI's payload file "
                    f"({len(result)} vs {len(reference)} bytes)"
                )
            print(f"{kind} served: {len(result)} bytes, byte-identical to the CLI")
            served[kind] = result

        status, repeat = submit(port, AUDIT_PARAMS)
        if status != 200 or not repeat["job"]["memoized"]:
            fail(f"repeat submission was not a memo hit: {status} {repeat}")
        status, _, repeat_bytes = request(
            port, "GET", f"/v1/jobs/{repeat['job']['id']}/result"
        )
        if repeat_bytes != served["audit"]:
            fail("memoized result differs from the original bytes")
        print("memo cache on repeat submission: ok")

        status, error_body = submit(port, {"schemes": ["bogus_scheme"]})
        if status != 400 or error_body["error"]["type"] != "SchemeError":
            fail(f"unknown scheme not a structured 400: {status} {error_body}")
        status, _, body = request(port, "POST", "/v1/jobs", body=b"{not json")
        if status != 400:
            fail(f"malformed JSON answered {status}")
        print("structured 400s: ok")

        status, headers, metrics = request(port, "GET", "/metrics")
        if status != 200:
            fail(f"/metrics answered {status}")
        text = metrics.decode("utf-8")
        from repro.telemetry import PROMETHEUS_CONTENT_TYPE, lint_prometheus_text

        if headers["content-type"] != PROMETHEUS_CONTENT_TYPE:
            fail(f"wrong /metrics content type: {headers['content-type']}")
        problems = lint_prometheus_text(text)
        if problems:
            fail("Prometheus lint: " + "; ".join(problems))
        for family in (
            "repro_service_requests_total",
            "repro_service_jobs_executed_total",
            "repro_service_memo_hits_total",
            "repro_service_job_seconds",
        ):
            if family not in text:
                fail(f"metric family {family} missing from /metrics")
        print("metrics exposition: linted ok")

        print("service smoke: PASS")
        return 0
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            server.kill()


if __name__ == "__main__":
    sys.exit(main())
