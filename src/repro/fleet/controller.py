"""The fleet controller: spec/v3 sweeps in, cached results out.

One controller owns the full state of every submitted sweep:

* **Jobs** — a submitted sweep of ``spec/v3`` payloads. At submit time
  every spec is decoded (so malformed payloads are rejected before any
  worker sees them) and fingerprinted exactly the way the serial
  :class:`~repro.runner.executor.ExperimentRunner` fingerprints its
  tasks, so the fleet shares the serial runner's content-addressed
  :class:`~repro.runner.cache.ResultCache` — a point already computed
  serially is a cache hit here, and vice versa.
* **Workers** — pull-based agents. A worker registers, then leases one
  task at a time. A lease carries the job's serialized env block
  (:func:`repro.env.snapshot`) so every worker runs the sweep under the
  submitter's knobs. Each job runs on one
  :class:`~repro.runner.lease.LeaseTable`, as the ``--jobs`` pool does:
  a worker's error report fails the job at once (the simulation is
  deterministic, so a retry would raise again), while a worker that
  stops heartbeating loses its lease and the attempt is spent — the
  task goes back to pending, or fails the job once its budget is gone —
  and the sweep completes on the surviving workers with results
  identical to a crash-free run: results are content-addressed, so a
  straggler's late report of a rescheduled task is a harmless duplicate
  write of the same bytes.
* **Events** — an append-only feed (submit, lease, result, expiry,
  registration) served as JSONL from a ``?since=`` cursor, and a
  minimal HTML dashboard polling the same endpoints.

Each POST body is decoded once, through its :mod:`repro.fleet.wire`
record, before its handler touches any state: a refusal is a 400.

The controller never executes a simulation itself and never blocks on a
worker: all scheduling state transitions happen lazily, under one lock,
when a request arrives. Determinism is structural — results are keyed
by content and assembled in task-index order, so scheduling order,
worker count, and crash timing are all invisible in the output.
"""

from __future__ import annotations

import itertools
import json
import re
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional
from urllib.parse import parse_qs, urlparse

from repro.codec import Codec
from repro.experiments.common import ExperimentSpec, run_experiment
from repro.fleet.wire import (
    LEASE,
    REGISTER,
    REPORT,
    SUBMIT,
    WIRE_SCHEMA,
    Report,
    Submit,
    WireFormatError,
    result_to_wire,
    spec_to_wire,
)
from repro.runner.cache import ResultCache
from repro.runner.lease import LeaseTable
from repro.runner.task import Task

#: Default seconds a lease stays valid without a heartbeat.
DEFAULT_LEASE_TTL = 15.0

#: Largest request body accepted; a longer ``Content-Length`` is a 413
#: before a byte is read. Ten times the largest body any shipped sweep
#: sends, rounded up: figure14's default-scale submit (100 specs on
#: 1000-node trees) is 1,333,500 bytes; the CI ``figure3 --sims 4``
#: sweep sends 51,604 and ``tests/test_fleet.py`` at most 5,749.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: A decimal count from a header or query string. At most 18 digits, so
#: ``int()`` cannot raise and the value fits an int64.
_COUNT = re.compile(r"[0-9]{1,18}")


class FleetAPIError(Exception):
    """A request the controller rejects; carries the HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class TaskState:
    """One sweep point inside a job."""

    index: int
    spec: ExperimentSpec
    fingerprint: str
    cached: bool = False             # resolved from the cache at submit


@dataclass
class Job:
    """A submitted sweep; ``table`` row ``n`` schedules ``tasks[n]``."""

    job_id: str
    experiment: str
    env: Dict[str, str]
    tasks: List[TaskState]
    table: LeaseTable[str]           # holders are worker ids
    error: str = ""


@dataclass
class WorkerState:
    """One registered worker agent."""

    worker_id: str
    name: str
    last_seen: float
    done: int = 0


class FleetController:
    """All fleet state and transitions; the HTTP layer is a thin shim.

    Every public method takes and returns plain JSON-able dicts, so the
    same surface is exercised directly by unit tests and over HTTP by
    the fleet client — there is exactly one code path.
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 retries: int = 2) -> None:
        self.cache = cache if cache is not None else ResultCache()
        self.lease_ttl = float(lease_ttl)
        self.retries = int(retries)
        self._lock = threading.RLock()
        self._started = time.monotonic()
        self._job_ids = itertools.count(1)
        self._worker_ids = itertools.count(1)
        self._event_seq = itertools.count(0)
        self.jobs: Dict[str, Job] = {}
        self.workers: Dict[str, WorkerState] = {}
        self.events: List[Dict[str, Any]] = []

    # -- internals -----------------------------------------------------

    def _record(self, event: str, **detail: Any) -> None:
        entry = {"seq": next(self._event_seq),
                 "t": round(time.monotonic() - self._started, 6),
                 "event": event}
        entry.update(detail)
        self.events.append(entry)

    def _expire(self) -> None:
        """Reclaim every lease whose deadline has passed (lazy sweep)."""
        for job in self.jobs.values():
            for index, worker_id in job.table.overdue(time.monotonic()):
                self._record("lease-expired", job=job.job_id,
                             index=index, worker=worker_id)
                self._spend(job, index, worker_id,
                            f"lease expired (worker {worker_id} stopped "
                            f"heartbeating)", "timeout")

    def _spend(self, job: Job, index: int, worker_id: str, reason: str,
               cause: str) -> bool:
        """``worker_id``'s attempt at a task failed. True when the task
        will be retried; when it is failed the job fails with it."""
        retrying = job.table.fail(index, worker_id, reason, cause)
        if not retrying and not job.error:
            job.error = (f"task {index} failed after "
                         f"{job.table.rows[index].attempts} attempts: "
                         f"{reason}")
            self._record("job-failed", job=job.job_id, error=job.error)
        return retrying

    def _leases(self, worker_id: str) -> List[List[Any]]:
        """``[job, index]`` of every task ``worker_id`` holds."""
        return [[job.job_id, index] for job in self.jobs.values()
                for index in job.table.held(worker_id)]

    def _job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise FleetAPIError(404, f"unknown job {job_id!r}")
        return job

    def _worker(self, worker_id: str) -> WorkerState:
        worker = self.workers.get(worker_id)
        if worker is None:
            raise FleetAPIError(404, f"unknown worker {worker_id!r}")
        return worker

    # -- job lifecycle -------------------------------------------------

    def submit(self, payload: Any) -> Dict[str, Any]:
        """Accept a sweep: decode every spec, fingerprint, pre-hit cache."""
        body: Submit = _body(SUBMIT, payload)
        tasks: List[TaskState] = []
        for index, spec in enumerate(body.specs):
            # The same fingerprint the serial runner computes for this
            # sweep point — the fleet and `repro figureN` share a cache.
            fingerprint = Task(experiment=body.experiment, index=index,
                               fn=run_experiment,
                               kwargs={"spec": spec}).fingerprint(body.salt)
            tasks.append(TaskState(index=index, spec=spec,
                                   fingerprint=fingerprint))
        with self._lock:
            job_id = f"job-{next(self._job_ids)}"
            job = Job(job_id=job_id, experiment=body.experiment,
                      env=body.env, tasks=tasks,
                      table=LeaseTable(len(tasks), self.retries))
            cached = 0
            for task in tasks:
                # An entry that decodes, not one that exists: a corrupt
                # entry is deleted here and its task recomputed, rather
                # than found missing by results().
                if self.cache.get(task.fingerprint)[0]:
                    job.table.complete(task.index)
                    task.cached = True
                    cached += 1
            self.jobs[job_id] = job
            self._record("submit", job=job_id, experiment=body.experiment,
                         tasks=len(tasks), cached=cached)
            state = job.table.state
            if state == "done":
                self._record("job-done", job=job_id, cached=cached)
            return {"job": job_id, "tasks": len(tasks), "cached": cached,
                    "state": state}

    def job_status(self, job_id: str) -> Dict[str, Any]:
        with self._lock:
            self._expire()
            job = self._job(job_id)
            return {"job": job.job_id, "experiment": job.experiment,
                    "state": job.table.state, "tasks": len(job.tasks),
                    "counts": job.table.counts, "error": job.error,
                    "cached": sum(1 for task in job.tasks if task.cached)}

    def list_jobs(self) -> Dict[str, Any]:
        with self._lock:
            return {"jobs": [self.job_status(job_id)
                             for job_id in self.jobs]}

    def results(self, job_id: str) -> Dict[str, Any]:
        """Every result in task-index order; 409 until the job is done."""
        with self._lock:
            self._expire()
            job = self._job(job_id)
            state = job.table.state
            if state == "failed":
                raise FleetAPIError(409, f"job {job_id} failed: "
                                         f"{job.error}")
            if state != "done":
                raise FleetAPIError(409, f"job {job_id} is still "
                                         f"running")
            payloads = []
            for task in job.tasks:
                hit, value = self.cache.get(task.fingerprint)
                if not hit:
                    raise FleetAPIError(
                        500, f"result for {job_id}/{task.index} missing "
                             f"from the cache (evicted mid-run?)")
                payloads.append(result_to_wire(value))
            return {"job": job_id, "results": payloads}

    # -- worker lifecycle ----------------------------------------------

    def register_worker(self, payload: Any) -> Dict[str, Any]:
        name = _body(REGISTER, payload).name
        with self._lock:
            worker_id = f"w{next(self._worker_ids)}"
            self.workers[worker_id] = WorkerState(
                worker_id=worker_id, name=name or worker_id,
                last_seen=time.monotonic())
            self._record("worker-registered", worker=worker_id,
                         name=name or worker_id)
            return {"worker": worker_id, "lease_ttl": self.lease_ttl,
                    "schema": WIRE_SCHEMA}

    def heartbeat(self, worker_id: str) -> Dict[str, Any]:
        with self._lock:
            self._expire()
            worker = self._worker(worker_id)
            worker.last_seen = time.monotonic()
            for job in self.jobs.values():
                job.table.renew(worker_id, worker.last_seen, self.lease_ttl)
            return {"ok": True, "leases": self._leases(worker_id)}

    def lease(self, payload: Any) -> Dict[str, Any]:
        """Hand the next pending task (lowest job, lowest index) out."""
        worker_id = _body(LEASE, payload).worker
        with self._lock:
            self._expire()
            worker = self._worker(worker_id)
            worker.last_seen = time.monotonic()
            for job in self.jobs.values():
                if job.table.state != "running":
                    continue
                index = job.table.lease(worker_id, worker.last_seen,
                                        self.lease_ttl)
                if index is None:
                    continue
                task = job.tasks[index]
                self._record("lease", job=job.job_id, index=index,
                             worker=worker_id,
                             attempt=job.table.rows[index].attempts)
                return {"task": {
                    "job": job.job_id, "index": index,
                    "experiment": job.experiment,
                    "spec": spec_to_wire(task.spec),
                    "fingerprint": task.fingerprint,
                    "env": job.env,
                    "lease_ttl": self.lease_ttl,
                }}
            return {"task": None}

    def report(self, payload: Any) -> Dict[str, Any]:
        """Accept a worker's result (or failure) for a leased task."""
        body: Report = _body(REPORT, payload)
        worker_id, job_id, index = body.worker, body.job, body.index
        with self._lock:
            self._expire()
            job = self._job(job_id)
            if not 0 <= index < len(job.tasks):
                raise FleetAPIError(404, f"no task {job_id}/{index}")
            worker = self.workers.get(worker_id)
            if worker is not None:
                worker.last_seen = time.monotonic()
            if job.table.rows[index].status in ("done", "failed"):
                # A straggler whose lease expired and whose task was
                # re-run elsewhere (or given up on). The result is
                # content-addressed and deterministic, so there is
                # nothing to reconcile.
                return {"ok": True, "duplicate": True}
            if body.error is not None:
                self._record("task-error", job=job_id, index=index,
                             worker=worker_id, error=body.error)
                return {"ok": True, "retrying": self._spend(
                    job, index, worker_id, body.error, "error")}
            self.cache.put(job.tasks[index].fingerprint, body.result)
            job.table.complete(index)
            if worker is not None:
                worker.done += 1
            self._record("result", job=job_id, index=index,
                         worker=worker_id, duration=body.duration)
            if job.table.state == "done":
                self._record("job-done", job=job_id)
            return {"ok": True}

    def list_workers(self) -> Dict[str, Any]:
        with self._lock:
            self._expire()
            now = time.monotonic()
            rows = []
            for worker in self.workers.values():
                age = now - worker.last_seen
                leases = self._leases(worker.worker_id)
                state = "busy" if leases else "idle"
                if age > 2 * self.lease_ttl:
                    state = "lost"
                rows.append({"worker": worker.worker_id,
                             "name": worker.name, "state": state,
                             "done": worker.done,
                             "leases": leases,
                             "last_seen_age": round(age, 3)})
            return {"workers": rows}

    # -- event feed ----------------------------------------------------

    def events_since(self, since: int,
                     job_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """Events with seq >= since, optionally filtered to one job."""
        with self._lock:
            self._expire()
            return [event for event in self.events
                    if event["seq"] >= since
                    and (job_id is None or event.get("job") == job_id)]


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------

DASHBOARD_HTML = """<!doctype html>
<html><head><title>repro fleet</title><style>
body { font-family: monospace; margin: 2em; }
table { border-collapse: collapse; margin-bottom: 1.5em; }
td, th { border: 1px solid #999; padding: 0.3em 0.8em; text-align: left; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; }
.done { color: #070; } .failed { color: #a00; } .running { color: #05a; }
</style></head><body>
<h1>repro fleet controller</h1>
<h2>jobs</h2><table id="jobs"><tr><td>loading...</td></tr></table>
<h2>workers</h2><table id="workers"><tr><td>loading...</td></tr></table>
<h2>events</h2><pre id="events"></pre>
<script>
let since = 0;
async function refresh() {
  const jobs = (await (await fetch('/api/v1/jobs')).json()).jobs;
  let html = '<tr><th>job</th><th>experiment</th><th>state</th>' +
             '<th>done</th><th>leased</th><th>pending</th>' +
             '<th>cached</th></tr>';
  for (const j of jobs) {
    html += `<tr><td>${j.job}</td><td>${j.experiment}</td>` +
            `<td class="${j.state}">${j.state}</td>` +
            `<td>${j.counts.done}/${j.tasks}</td>` +
            `<td>${j.counts.leased}</td><td>${j.counts.pending}</td>` +
            `<td>${j.cached}</td></tr>`;
  }
  document.getElementById('jobs').innerHTML = html;
  const workers = (await (await fetch('/api/v1/workers')).json()).workers;
  html = '<tr><th>worker</th><th>name</th><th>state</th><th>done</th>' +
         '<th>last seen</th></tr>';
  for (const w of workers) {
    html += `<tr><td>${w.worker}</td><td>${w.name}</td>` +
            `<td>${w.state}</td><td>${w.done}</td>` +
            `<td>${w.last_seen_age}s ago</td></tr>`;
  }
  document.getElementById('workers').innerHTML = html;
  const feed = await (await fetch(`/api/v1/events?since=${since}`)).text();
  const pre = document.getElementById('events');
  for (const line of feed.split('\\n')) {
    if (!line) continue;
    since = JSON.parse(line).seq + 1;
    pre.textContent += line + '\\n';
  }
  while (pre.textContent.split('\\n').length > 30)
    pre.textContent = pre.textContent.slice(
        pre.textContent.indexOf('\\n') + 1);
}
setInterval(refresh, 1000); refresh();
</script></body></html>
"""


def _body(codec: Codec, payload: Any) -> Any:
    """``payload`` decoded through its record; a refusal is a 400."""
    try:
        return codec.decode(payload)
    except WireFormatError as exc:
        raise FleetAPIError(400, str(exc)) from exc


def _count(text: str, what: str) -> int:
    if not _COUNT.fullmatch(text):
        raise FleetAPIError(
            400, f"{what} must be a non-negative integer, got {text!r}")
    return int(text)


class FleetRequestHandler(BaseHTTPRequestHandler):
    """Routes ``/api/v1/...`` onto the controller; JSON in, JSON out."""

    controller: FleetController  # injected by make_server()
    server_version = "repro-fleet/1"

    def log_message(self, format: str, *args: Any) -> None:
        pass  # the event feed is the log; stderr chatter breaks CLI use

    # -- plumbing ------------------------------------------------------

    def _send_json(self, payload: Dict[str, Any],
                   status: int = 200) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Any:
        length = _count(self.headers.get("Content-Length") or "0",
                        "Content-Length")
        if length > MAX_BODY_BYTES:
            raise FleetAPIError(
                413, f"request body of {length} bytes exceeds the "
                     f"{MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FleetAPIError(400, f"invalid JSON body: {exc}") from exc

    def _dispatch(self, method: str) -> None:
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        query = parse_qs(url.query)
        try:
            self._route(method, parts, query)
        except FleetAPIError as exc:
            self._send_json({"error": str(exc)}, status=exc.status)
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            self._send_json({"error": f"{type(exc).__name__}: {exc}"},
                            status=500)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    # -- routing -------------------------------------------------------

    def _route(self, method: str, parts: List[str],
               query: Dict[str, List[str]]) -> None:
        ctl = self.controller
        if method == "GET" and parts == []:
            body = DASHBOARD_HTML.encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/html; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        if parts[:2] != ["api", "v1"]:
            raise FleetAPIError(404, f"no route for {'/'.join(parts)!r}")
        route = parts[2:]
        if method == "GET":
            if route == ["ping"]:
                self._send_json({"ok": True, "schema": WIRE_SCHEMA})
            elif route == ["jobs"]:
                self._send_json(ctl.list_jobs())
            elif len(route) == 2 and route[0] == "jobs":
                self._send_json(ctl.job_status(route[1]))
            elif len(route) == 3 and route[0] == "jobs" \
                    and route[2] == "results":
                self._send_json(ctl.results(route[1]))
            elif route == ["workers"]:
                self._send_json(ctl.list_workers())
            elif route == ["events"]:
                self._send_events_jsonl(query)
            else:
                raise FleetAPIError(404,
                                    f"no route for GET /{'/'.join(parts)}")
            return
        if method == "POST":
            if route == ["jobs"]:
                self._send_json(ctl.submit(self._read_json()))
            elif route == ["workers", "register"]:
                self._send_json(ctl.register_worker(self._read_json()))
            elif len(route) == 3 and route[0] == "workers" \
                    and route[2] == "heartbeat":
                self._send_json(ctl.heartbeat(route[1]))
            elif route == ["lease"]:
                self._send_json(ctl.lease(self._read_json()))
            elif route == ["results"]:
                self._send_json(ctl.report(self._read_json()))
            else:
                raise FleetAPIError(404,
                                    f"no route for POST /{'/'.join(parts)}")
            return
        raise FleetAPIError(405, f"method {method} not allowed")

    def _send_events_jsonl(self, query: Dict[str, List[str]]) -> None:
        """Snapshot of the event feed, one JSON object per line."""
        job_id = query.get("job", [None])[0]
        since = _count(query.get("since", ["0"])[0], "since")
        body = "".join(json.dumps(event) + "\n" for event in
                       self.controller.events_since(since, job_id)).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def make_server(controller: FleetController, host: str = "127.0.0.1",
                port: int = 0) -> ThreadingHTTPServer:
    """An HTTP server bound to ``controller`` (port 0 = ephemeral)."""
    handler = type("BoundFleetHandler", (FleetRequestHandler,),
                   {"controller": controller})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def serve_forever(host: str = "127.0.0.1", port: int = 8765,
                  cache_dir: Optional[str] = None,
                  lease_ttl: float = DEFAULT_LEASE_TTL,
                  retries: int = 2) -> None:
    """Blocking entry point for ``repro fleet serve``."""
    cache = ResultCache(cache_dir) if cache_dir else ResultCache()
    controller = FleetController(cache=cache, lease_ttl=lease_ttl,
                                 retries=retries)
    server = make_server(controller, host=host, port=port)
    address = f"http://{server.server_address[0]}:{server.server_address[1]}"
    print(f"fleet controller listening on {address} "
          f"(cache: {cache.root}, lease ttl: {lease_ttl}s)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
