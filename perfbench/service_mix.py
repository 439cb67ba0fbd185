"""service_mix: a closed loop of audit jobs against ``repro-runner serve``.

The server runs as a subprocess with the default engine configuration
(``serve --port 0``).  ``CLIENTS`` client threads each take the next task
of one seeded request stream, submit it, poll its status every
15-45 ms (``POLL_S``) until the job finishes and fetch the result bytes; only then
do they take the next task (a closed loop).  Tasks are audit jobs over
``AGENTS`` agents and two schemes, of three kinds:

* ``cold`` — a fresh population seed, so the service must compute (45%);
* ``memo`` — one of ``WARM_KEYS`` seeds primed during set-up, answered
  from the memo cache (40%);
* ``burst`` — one client submits ``BURST`` identical fresh requests back
  to back, which single-flight deduplication folds into one execution
  (15%).

No service traffic has been recorded for this program, so the mix, the
warm-set size and the poll interval are assumptions, not measurements;
the reason for each is at its constant below.

Latency runs from the POST until the result bytes are received.  A plain
run loops for the run length.  A traced run plays the same fixed prefix
of the stream against a plain server and against one started through
``serve_traced.py`` (the layer wrappers installed), in an order set by
the seed's parity, reading the service's ``/metrics`` before and after.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import checks
from benchmath import median, percentile, ratio
from common import (
    HERE,
    ROOT,
    SETUP_REPEATS,
    SRC,
    WORK,
    Outcome,
    line,
    peak_rss_mb,
    repeated_counts,
)
from layers import PER_LAYER, complete, program_layers
from readings import Readings

from repro.analysis.scale import ScaleConfig, run_scale

NAME = "service_mix"
AGENTS = 20_000
SCHEMES = ("foundation", "role_based")
CLIENTS = 2
#: Assumed: a few keys, so priming them keeps set-up short; the default
#: engine's memo holds far more, so any small warm set gives the same hits.
WARM_KEYS = 4
BURST = 3
#: Assumed mix, one block of it; the stream shuffles each block with the
#: seed, so every 20 tasks hold exactly this many of each kind (45/40/15%).
#: The shares are picked so that a 20-second run has at least 100 cold and
#: 100 memo samples (a p90 with 10 beyond it) and at least 20 burst ones.
MIX_BLOCK = ("cold",) * 9 + ("memo",) * 8 + ("burst",) * 3
#: Assumed: status polls wait a uniform random interval in this range,
#: mean 30 ms, short next to a cold job so a job gets a few polls; the
#: jitter keeps latency from being quantized to one poll period.
POLL_S = (0.015, 0.045)
HTTP_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 60.0
#: A traced run plays this many tasks per second of run length.
TRACED_TASKS_PER_SECOND = 3
#: Cold jobs whose served bytes are compared with the library's.
SAMPLED_COLD = 2


class TaskStream:
    """The seeded request mix: the k-th task is a pure function of the seed."""

    def __init__(self, seed: int, limit: Optional[int] = None) -> None:
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._used: set = set()
        self.limit = limit
        self.issued = 0
        self.warm = [self._fresh() for _ in range(WARM_KEYS)]
        self._block: List[str] = []

    def _fresh(self) -> int:
        while True:
            seed = self._rng.randrange(2**31)
            if seed not in self._used:
                self._used.add(seed)
                return seed

    def next(self) -> Optional[Tuple[str, int]]:
        with self._lock:
            if self.limit is not None and self.issued >= self.limit:
                return None
            self.issued += 1
            if not self._block:
                self._block = list(MIX_BLOCK)
                self._rng.shuffle(self._block)
            kind = self._block.pop()
            if kind == "memo":
                return kind, self.warm[self._rng.randrange(WARM_KEYS)]
            return kind, self._fresh()


def audit_params(seed: int) -> Dict[str, object]:
    return {"agents": AGENTS, "schemes": list(SCHEMES), "seed": seed}


def library_bytes(seed: int) -> bytes:
    """The CLI's ``scale.audit.json`` bytes for the same audit."""
    payload = run_scale(
        ScaleConfig(n_agents=AGENTS, schemes=SCHEMES, seed=seed)
    ).audit_payload()
    return json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")


def exchange(
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    client: Optional[str] = None,
) -> Tuple[int, bytes, float]:
    """One HTTP request: ``(status, body, round-trip seconds)``."""
    headers = {"Content-Type": "application/json"} if body is not None else {}
    if client is not None:
        headers["X-Client-Id"] = client
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    started = time.perf_counter()
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - started
    finally:
        conn.close()


class Server:
    """One ``repro-runner serve --port 0`` subprocess, healthy on return."""

    def __init__(self, index: int, trace_path: Optional[str] = None) -> None:
        if trace_path is None:
            command = [sys.executable, "-m", "repro.analysis.runner"]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"), trace_path]
        command += ["serve", "--port", "0", "--no-progress"]
        WORK.mkdir(parents=True, exist_ok=True)
        self._log = open(WORK / f"server-{index}.log", "w")
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        try:
            ready = self.process.stdout.readline().strip()  # type: ignore[union-attr]
            if not ready.startswith("serving on "):
                raise RuntimeError(f"server did not start: {ready!r}")
            self.port = int(ready.rsplit(":", 1)[1])
            deadline = time.monotonic() + 30.0
            while exchange(self.port, "GET", "/healthz")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("server never answered /healthz with 200")
                time.sleep(0.05)
        except BaseException:
            self.stop()
            raise

    def metrics(self) -> Readings:
        status, body, _ = exchange(self.port, "GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return Readings.from_prometheus(body.decode("utf-8"))

    def stop(self) -> None:
        """Interrupt the server and wait for it (kill after 15 s)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        self.process.stdout.close()  # type: ignore[union-attr]
        self._log.close()


@dataclass
class Sample:
    """One submission, from its POST to its result bytes."""

    kind: str
    seed: int
    started: float
    submit_s: float = 0.0
    status_s: List[float] = field(default_factory=list)
    result_s: float = 0.0
    latency_s: float = 0.0
    rejected: bool = False
    error: str = ""

    @property
    def http_s(self) -> float:
        return self.submit_s + sum(self.status_s) + self.result_s

    @property
    def ok(self) -> bool:
        return not self.rejected and not self.error


class Client:
    """A closed-loop client: one task at a time, every byte checked."""

    def __init__(
        self, port: int, name: str, served: Dict[int, bytes], lock: threading.Lock
    ) -> None:
        self.port = port
        self.name = name
        self._poll_rng = random.Random(name)
        self.samples: List[Sample] = []
        self._served = served
        self._lock = lock

    def run_task(self, kind: str, seed: int) -> None:
        body = json.dumps({"kind": "audit", "params": audit_params(seed)}).encode()
        accepted = []
        for _ in range(BURST if kind == "burst" else 1):
            sample = Sample(kind=kind, seed=seed, started=time.perf_counter())
            self.samples.append(sample)
            try:
                status, data, sample.submit_s = exchange(
                    self.port, "POST", "/v1/jobs", body, self.name
                )
                if status == 429:
                    sample.rejected = True
                elif status in (200, 202):
                    accepted.append((sample, json.loads(data)["job"]))
                else:
                    sample.error = f"POST answered {status}"
            except (OSError, ValueError, KeyError) as exc:
                sample.error = f"POST failed: {exc!r}"
        for sample, job in accepted:
            try:
                self._finish(sample, job)
            except (OSError, ValueError, KeyError) as exc:
                sample.error = f"job {job.get('id')} failed: {exc!r}"

    def _finish(self, sample: Sample, job: Dict[str, object]) -> None:
        while job["state"] not in ("done", "failed"):
            if time.perf_counter() - sample.started > JOB_TIMEOUT_S:
                sample.error = f"job {job['id']} unfinished after {JOB_TIMEOUT_S} s"
                return
            time.sleep(self._poll_rng.uniform(*POLL_S))
            status, data, elapsed = exchange(self.port, "GET", f"/v1/jobs/{job['id']}")
            sample.status_s.append(elapsed)
            if status != 200:
                sample.error = f"status poll answered {status}"
                return
            job = json.loads(data)["job"]
        if job["state"] != "done":
            sample.error = f"job {job['id']} failed: {job.get('error')}"
            return
        status, data, sample.result_s = exchange(
            self.port, "GET", f"/v1/jobs/{job['id']}/result"
        )
        sample.latency_s = time.perf_counter() - sample.started
        if status != 200:
            sample.error = f"result fetch answered {status}"
            return
        with self._lock:
            first = self._served.setdefault(sample.seed, data)
        if first != data:
            sample.error = f"seed {sample.seed} served different bytes on repeat"


def drive(
    port: int,
    stream: TaskStream,
    served: Dict[int, bytes],
    deadline: Optional[float] = None,
) -> Tuple[List[Sample], float]:
    """Run ``CLIENTS`` closed-loop threads until the deadline or stream end."""
    lock = threading.Lock()
    clients = [Client(port, f"perfbench-{i}", served, lock) for i in range(CLIENTS)]
    crashes: List[str] = []

    def loop(client: Client) -> None:
        try:
            while deadline is None or time.perf_counter() < deadline:
                task = stream.next()
                if task is None:
                    return
                client.run_task(*task)
        except Exception as exc:  # reported as a failed run, never swallowed
            crashes.append(f"{client.name} crashed: {exc!r}")

    threads = [
        threading.Thread(target=loop, args=(client,), daemon=True) for client in clients
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    budget = (deadline - started if deadline else 60.0) + JOB_TIMEOUT_S
    for thread in threads:
        thread.join(timeout=budget)
    window = time.perf_counter() - started
    samples = [sample for client in clients for sample in client.samples]
    crashes += [f"{t.name} hung for {budget:.0f} s" for t in threads if t.is_alive()]
    for crash in crashes:
        samples.append(Sample(kind="crash", seed=-1, started=started, error=crash))
    return samples, window


def boot(index: int, stream: TaskStream, served: Dict[int, bytes], trace_path=None):
    """Start a server and prime its memo cache with the warm set."""
    server = Server(index, trace_path)
    try:
        primer = Client(server.port, "perfbench-setup", served, threading.Lock())
        for seed in stream.warm:
            primer.run_task("warm", seed)
        errors = [s.error or "rejected" for s in primer.samples if not s.ok]
        if errors:
            raise RuntimeError(f"priming the memo set failed: {errors}")
    except BaseException:
        server.stop()
        raise
    return server


def warm_digest(stream: TaskStream, served: Dict[int, bytes]) -> str:
    """Digest of the warm set's served bytes (the stored reference output)."""
    return checks.sha256(b"".join(served.get(s, b"") for s in stream.warm))


def post_run_checks(
    seed: int, stream: TaskStream, samples: List[Sample], served, executed: float
) -> Tuple[int, List[str]]:
    """The output checks made after the timed phase: ``(checks, problems)``.

    Served bytes equal the library's on a fixed sample of seeds (one check
    each), the warm set's bytes match the stored digest if there is one,
    and every distinct fresh key executed exactly once.  Each check finds
    at most one problem, so the problems count the failed checks.
    """
    fresh = [s.seed for s in samples if s.kind == "cold" and s.ok]
    bursts = [s.seed for s in samples if s.kind == "burst" and s.ok]
    sampled = stream.warm + sorted(set(fresh))[:SAMPLED_COLD] + sorted(set(bursts))[:1]
    problems = [
        f"served bytes for audit seed {s} differ from the library's"
        for s in sampled
        if served.get(s) != library_bytes(s)
    ]
    problems += checks.verify(NAME, seed, warm_digest(stream, served), [])
    keys = {s.seed for s in samples if s.kind in ("cold", "burst") and not s.rejected}
    if executed != len(keys):
        problems.append(f"{executed:g} executions for {len(keys)} distinct fresh job keys")
    return len(sampled) + 2, problems


def _latency(samples: List[Sample], kind: str) -> List[float]:
    return [s.latency_s for s in samples if s.kind == kind and s.ok]


def _pct_line(name: str, values: List[float], q: float) -> str:
    found = percentile(values, q)
    if found is None:
        return line(name, "n/a", "ms", f"n={len(values)}: too few samples beyond")
    return line(name, found[0] * 1000.0, "ms", f"n={found[1]}")


def run(name: str, seed: int, seconds: int, trace: bool) -> Outcome:
    if trace:
        return _run_traced(seed, seconds)
    return _run_plain(seed, seconds)


def _run_plain(seed: int, seconds: int) -> Outcome:
    stream = TaskStream(seed)
    served: Dict[int, bytes] = {}
    setups = []
    server = None
    for index in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        started = time.perf_counter()
        server = boot(index, stream, served)
        setups.append(time.perf_counter() - started)
    assert server is not None
    try:
        before = server.metrics()
        samples, window = drive(
            server.port, stream, served, deadline=time.perf_counter() + seconds
        )
        delta = server.metrics().minus(before)
        rss = peak_rss_mb(server.process.pid)
    finally:
        server.stop()

    executed = delta.total("repro_service_jobs_executed_total")
    n_checks, check_problems = post_run_checks(seed, stream, samples, served, executed)
    problems = [s.error for s in samples if s.error] + check_problems
    # Each post-run check counts as one more operation, failed if it failed.
    attempted = len(samples) + n_checks
    failed = sum(1 for s in samples if s.error) + len(check_problems)
    completed = sum(1 for s in samples if s.ok)
    cold = _latency(samples, "cold")
    memo = _latency(samples, "memo")
    burst = _latency(samples, "burst")
    metrics = {
        "setup_s": (median(setups), "s"),
        "work_per_s": (completed / window, "1/s"),
        "op_p50_ms": (median(cold) * 1000.0 if cold else 0.0, "ms"),
        "peak_rss_mb": (rss, "MiB"),
    }
    rejected = ratio(sum(1 for s in samples if s.rejected), attempted)
    failed_ratio = ratio(failed, attempted)
    report = [
        f"workload {NAME}  seed {seed}  seconds {seconds}  trace 0",
        line(
            "failed_ratio",
            failed_ratio["value"],
            "",
            f"{failed}/{attempted} = {len(samples)} submissions + {n_checks} checks",
        ),
        line("setup_s", median(setups), "s", f"median of {len(setups)} boots + priming"),
        line("peak_rss_mb", rss, "MiB", "server process"),
        line("jobs_per_s", completed / window, "1/s", f"{completed} jobs = work_per_s"),
        _pct_line("cold_p50_ms", cold, 0.5) + "  = op_p50_ms",
        _pct_line("cold_p90_ms", cold, 0.9),
        _pct_line("memo_p50_ms", memo, 0.5),
        _pct_line("memo_p90_ms", memo, 0.9),
        _pct_line("burst_p50_ms", burst, 0.5),
        line("rejected_ratio", rejected["value"], "", f"{rejected['numerator']:g} 429s"),
    ]
    report += [f"  CHECK FAILED: {problem}" for problem in problems]
    return Outcome(not problems, attempted, failed, metrics, report)


def _run_traced(seed: int, seconds: int) -> Outcome:
    tasks = TRACED_TASKS_PER_SECOND * seconds
    served: Dict[int, bytes] = {}
    trace_path = WORK / f"trace-{NAME}-seed{seed}.json"
    server_spans = WORK / f"server-spans-{os.getpid()}.json"

    def play(traced: bool):
        """Boot a plain or traced server, prime it, play the prefix once."""
        stream = TaskStream(seed, limit=tasks)
        path = str(server_spans) if traced else None
        server = boot(int(traced), stream, served, trace_path=path)
        try:
            before = server.metrics()
            samples, window = drive(server.port, stream, served)
            return stream, samples, window, server.metrics().minus(before)
        finally:
            server.stop()

    # Which server plays first follows the seed's parity, so across seeds
    # neither side always meets the machine in the same state.
    traced_first = seed % 2 == 1
    if traced_first:
        stream, samples, window, delta = play(True)
        plain_samples, plain_window = play(False)[1:3]
    else:
        plain_samples, plain_window = play(False)[1:3]
        stream, samples, window, delta = play(True)
    all_spans = json.loads(server_spans.read_text())["spans"]
    server_spans.unlink()
    trace_path.write_text(
        json.dumps(
            {
                "workload": NAME,
                "seed": seed,
                "spans": all_spans,
                "requests": [asdict(sample) for sample in samples],
            },
            sort_keys=True,
        )
    )
    # The first WARM_KEYS runs are the set-up's priming executions.
    spans = [span for span in all_spans if span["run"] >= WARM_KEYS]
    executions = len({span["run"] for span in spans})

    everything = plain_samples + samples
    executed = delta.total("repro_service_jobs_executed_total")
    n_checks, check_problems = post_run_checks(seed, stream, samples, served, executed)
    n_checks += 1
    if executions != executed:
        check_problems.append(f"{executions} traced executions, /metrics {executed:g}")
    problems = [s.error for s in everything if s.error] + check_problems

    submissions = [s for s in samples if not s.rejected]
    polls = [elapsed for s in submissions for elapsed in s.status_s]
    cold = [s for s in samples if s.kind == "cold" and s.ok]
    execute_s = delta.total("repro_service_job_seconds_sum") / max(
        delta.total("repro_service_job_seconds_count"), 1.0
    )
    cold_latency = sum(s.latency_s for s in cold) / len(cold) if cold else 0.0
    cold_http = sum(s.http_s for s in cold) / len(cold) if cold else 0.0
    memo_hits = delta.total("repro_service_memo_hits_total")
    values = program_layers(delta, spans, executions)
    values.update(
        {
            "service.submit_ms": median([s.submit_s for s in samples]) * 1000.0,
            "service.status_ms": median(polls or [0.0]) * 1000.0,
            "service.result_ms": median([s.result_s for s in submissions]) * 1000.0,
            "service.polls_per_job": len(polls) / len(submissions),
            "service.execute_s": execute_s,
            "service.wait_s": cold_latency - execute_s - cold_http,
            "service.jobs_executed": executed,
            "service.memo_hits": memo_hits,
            "service.dedup_hits": delta.total("repro_service_dedup_hits_total"),
            "service.memo_hit_ratio": ratio(memo_hits, len(samples))["value"],
            "service.rejections": delta.total(
                "repro_service_admission_rejections_total"
            ),
            "telemetry.trace_overhead_ratio": window / plain_window - 1.0,
        }
    )
    values = complete(values)
    problems += repeated_counts(NAME, seed, seconds, [values])

    units = dict(PER_LAYER)
    report = [f"workload {NAME}  seed {seed}  seconds {seconds}  trace 1"]
    report += [line(key, value, units[key]) for key, value in values.items()]
    # wait_s is the residual of the mean cold latency, so the split below
    # adds up to that mean; the dominant-layer question is how much of it
    # the queue and the HTTP exchanges take next to the execution.
    parts = {
        "service.execute_s": execute_s,
        "service.wait_s": values["service.wait_s"],
        "HTTP": cold_http,
    }
    report.append(
        f"  dominant layer (service queue + HTTP): mean cold latency "
        f"{cold_latency * 1000:.4g} ms = "
        + " + ".join(
            f"{name} {part * 1000:.4g} ms ({ratio(part, cold_latency)['value']:.0%})"
            for name, part in parts.items()
        )
        + f"; {len(cold)} cold jobs, {executions} executions"
    )
    report.append(
        f"  telemetry.trace_overhead_ratio rests on 1 pair of {tasks}-task "
        f"prefixes ({'traced' if traced_first else 'plain'} first), each after "
        f"its server's untimed memo priming"
    )
    report.append(f"  spans written to {trace_path.relative_to(ROOT)}")
    report += [f"  CHECK FAILED: {problem}" for problem in problems]
    # Each post-run check counts as one more operation, failed if it failed.
    attempted = len(everything) + n_checks
    failed = sum(1 for s in everything if s.error) + len(check_problems)
    metrics = {key: (value, units[key]) for key, value in values.items()}
    return Outcome(not problems, attempted, failed, metrics, report)
