"""The fleet service: controller, workers, client, determinism.

The headline contract (ISSUE 9): a sweep run through the fleet — over
real HTTP, across multiple workers, *with worker crashes* — produces
RunMetrics bundles identical to the serial run. The tests below drive
an in-process ThreadingHTTPServer controller with worker threads (and,
for the crash test, a killed OS subprocess) and compare against
``ExperimentRunner`` ground truth.
"""

from __future__ import annotations

import copy
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SrmConfig
from repro.experiments.common import (
    ExperimentSpec,
    choose_scenario,
    run_experiment,
)
from repro.fleet.client import FleetClient, FleetError, FleetRunner
from repro.fleet.controller import (
    MAX_BODY_BYTES,
    FleetAPIError,
    FleetController,
    make_server,
)
from repro.fleet.worker import FleetWorker
from repro.oracle.fuzz import run_fuzz_case
from repro.runner import ExperimentRunner, ResultCache
from repro.sim.rng import RandomSource
from repro.topology.random_tree import random_labeled_tree

from conftest import draw_mutation, examples, mutated

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


class Fleet:
    """One controller + HTTP server + N worker threads, self-cleaning."""

    def __init__(self, tmp_path, lease_ttl: float = 5.0,
                 retries: int = 2) -> None:
        self.cache = ResultCache(tmp_path / "fleet-cache")
        self.controller = FleetController(cache=self.cache,
                                          lease_ttl=lease_ttl,
                                          retries=retries)
        self.server = make_server(self.controller)
        host, port = self.server.server_address
        self.url = f"http://{host}:{port}"
        self.client = FleetClient(self.url)
        self._server_thread = threading.Thread(
            target=self.server.serve_forever, daemon=True)
        self._server_thread.start()
        self.workers: list[FleetWorker] = []

    def start_worker(self, **kwargs) -> FleetWorker:
        kwargs.setdefault("poll_interval", 0.05)
        worker = FleetWorker(self.url, **kwargs)
        threading.Thread(target=worker.run, daemon=True).start()
        self.workers.append(worker)
        return worker

    def close(self) -> None:
        for worker in self.workers:
            worker.stop.set()
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def fleet(tmp_path):
    instance = Fleet(tmp_path)
    yield instance
    instance.close()


def _specs(count: int, seed: int = 9, nodes: int = 8):
    master = RandomSource(seed)
    specs = []
    for index in range(count):
        rng = master.fork(f"fleet-{index}")
        tspec = random_labeled_tree(nodes, rng)
        specs.append(ExperimentSpec(
            scenario=choose_scenario(tspec, session_size=nodes, rng=rng),
            seed=index, experiment="fleettest"))
    return specs


@pytest.fixture(scope="module")
def result_payload():
    """The spec/v3 result of ``_specs(1)[0]``, as a worker reports it."""
    return json.loads(run_experiment(_specs(1)[0]).to_json())


def _serial_results(specs, tmp_path):
    runner = ExperimentRunner(cache=ResultCache(tmp_path / "serial-cache"))
    return runner.map("fleettest", run_experiment,
                      [dict(spec=spec) for spec in specs])


def _assert_identical(fleet_results, serial_results):
    assert len(fleet_results) == len(serial_results)
    for ours, truth in zip(fleet_results, serial_results):
        assert ours.spec == truth.spec
        assert ours.outcomes == truth.outcomes
        if truth.metrics is None:
            assert ours.metrics is None
        else:
            ours_doc = json.dumps(ours.metrics.to_dict(), sort_keys=True)
            truth_doc = json.dumps(truth.metrics.to_dict(),
                                   sort_keys=True)
            assert ours_doc == truth_doc
        assert ours.artifacts == truth.artifacts


# ----------------------------------------------------------------------
# The determinism contract
# ----------------------------------------------------------------------


def test_two_worker_sweep_matches_serial(fleet, tmp_path):
    fleet.start_worker(name="w-a")
    fleet.start_worker(name="w-b")
    specs = _specs(6)
    job = fleet.client.submit("fleettest", specs)
    fleet.client.wait(job, timeout=120, poll=0.05)
    _assert_identical(fleet.client.results(job),
                      _serial_results(specs, tmp_path))


def test_fleet_runner_is_a_drop_in_for_figure_sweeps(fleet, tmp_path):
    from repro.experiments.figure3 import run_figure3

    fleet.start_worker(name="w-a")
    fleet.start_worker(name="w-b")
    ours = run_figure3(sizes=(8,), sims=3, seed=3,
                       runner=FleetRunner(fleet.url, timeout=120,
                                          poll=0.05))
    truth = run_figure3(sizes=(8,), sims=3, seed=3,
                        runner=ExperimentRunner(
                            cache=ResultCache(tmp_path / "serial-cache")))
    assert ours.format_table() == truth.format_table()
    assert json.dumps(ours.metrics.to_dict(), sort_keys=True) == \
        json.dumps(truth.metrics.to_dict(), sort_keys=True)


def test_submitter_cache_hits_skip_the_workers(fleet):
    specs = _specs(3)
    job1 = fleet.client.submit("fleettest", specs)
    # No workers yet: everything is pending.
    assert fleet.client.status(job1)["counts"]["pending"] == 3
    fleet.start_worker(name="w-a")
    fleet.client.wait(job1, timeout=120, poll=0.05)
    # Same sweep again: fully resolved from the shared cache at submit.
    job2 = fleet.client.submit("fleettest", specs)
    status = fleet.client.status(job2)
    assert status["state"] == "done"
    assert status["cached"] == 3


# ----------------------------------------------------------------------
# Worker loss
# ----------------------------------------------------------------------


def test_thread_worker_death_expires_lease_and_reschedules(tmp_path):
    fleet = Fleet(tmp_path, lease_ttl=0.8)
    try:
        specs = _specs(3)
        job = fleet.client.submit("fleettest", specs)
        victim = fleet.start_worker(name="victim", hold=60.0)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if fleet.client.status(job)["counts"]["leased"]:
                break
            time.sleep(0.02)
        assert fleet.client.status(job)["counts"]["leased"], \
            "victim never leased a task"
        victim.stop.set()  # dies holding the lease; never reports

        fleet.start_worker(name="survivor")
        fleet.client.wait(job, timeout=120, poll=0.05)
        _assert_identical(fleet.client.results(job),
                          _serial_results(specs, tmp_path))
        kinds = [event["event"] for event in fleet.client.events(job)]
        assert "lease-expired" in kinds
        assert victim.completed == 0
    finally:
        fleet.close()


def test_killed_subprocess_worker_mid_sweep(tmp_path):
    """SIGKILL a real `repro fleet worker` process holding a lease."""
    fleet = Fleet(tmp_path, lease_ttl=1.0)
    process = None
    try:
        specs = _specs(4)
        job = fleet.client.submit("fleettest", specs)
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "worker",
             "--url", fleet.url, "--name", "doomed",
             "--poll", "0.05", "--hold", "120"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if fleet.client.status(job)["counts"]["leased"]:
                break
            time.sleep(0.05)
        assert fleet.client.status(job)["counts"]["leased"], \
            "subprocess worker never leased a task"
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)

        fleet.start_worker(name="survivor")
        fleet.client.wait(job, timeout=120, poll=0.05)
        _assert_identical(fleet.client.results(job),
                          _serial_results(specs, tmp_path))
        kinds = [event["event"] for event in fleet.client.events(job)]
        assert "lease-expired" in kinds
    finally:
        if process is not None and process.poll() is None:
            process.kill()
        fleet.close()


def test_lease_expiry_spends_the_retry_budget(tmp_path):
    """A task that kills every worker that leases it is not retried
    forever: an expired lease spends one attempt, exactly as a pool
    crash or timeout does (one LeaseTable, docs/fleet.md)."""
    controller = FleetController(cache=ResultCache(tmp_path / "c"),
                                 lease_ttl=0.01, retries=2)
    controller.submit({"experiment": "poison",
                       "specs": [json.loads(_specs(1)[0].to_json())],
                       "env": {}, "salt": ""})
    leases = []
    for _ in range(8):
        worker = controller.register_worker({})["worker"]
        task = controller.lease({"worker": worker})["task"]
        if task is None:
            break
        leases.append(task)
        time.sleep(0.03)  # the worker dies; its lease expires
    assert len(leases) == 3  # retries + 1 attempts, then no more
    status = controller.job_status("job-1")
    assert status["state"] == "failed"
    assert status["counts"] == {"pending": 0, "leased": 0, "done": 0,
                                "failed": 1}
    assert "task 0" in status["error"]
    assert "lease expired" in status["error"]
    events = controller.events_since(0, "job-1")
    kinds = [event["event"] for event in events]
    assert kinds.count("lease-expired") == 3
    assert kinds.count("job-failed") == 1
    assert [event["attempt"] for event in events
            if event["event"] == "lease"] == [1, 2, 3]


@pytest.mark.parametrize("broken", [
    # Unknown scoped mode: explodes in run_experiment.
    {"kind": "scoped", "scoped_mode": "warp"},
    # The herd refuses adaptive timers when it is built.
    {"engine": "herd", "config": SrmConfig(adaptive=True)},
], ids=["unknown-scoped-mode", "herd-refuses-adaptive"])
def test_a_worker_error_report_fails_the_job_on_attempt_1(tmp_path, broken):
    """A spec the worker cannot run, through the error-report path end to
    end: the job fails on its first attempt, with a retry to spare."""
    fleet = Fleet(tmp_path, lease_ttl=5.0, retries=1)
    try:
        spec = _specs(1)[0]
        job = fleet.client.submit("boom", [ExperimentSpec(
            scenario=spec.scenario, experiment="boom", **broken)])
        fleet.start_worker(name="w-a")
        with pytest.raises(FleetError, match="failed"):
            fleet.client.wait(job, timeout=60, poll=0.05)
        status = fleet.client.status(job)
        assert status["state"] == "failed"
        assert "after 1 attempts" in status["error"]
        events = fleet.client.events(job)
        kinds = [event["event"] for event in events]
        assert kinds.count("task-error") == 1
        assert kinds.count("job-failed") == 1
        assert [event["attempt"] for event in events
                if event["event"] == "lease"] == [1]
    finally:
        fleet.close()


# ----------------------------------------------------------------------
# Protocol edges
# ----------------------------------------------------------------------


def test_malformed_submissions_are_rejected(fleet):
    with pytest.raises(FleetError, match="400"):
        fleet.client._post("/api/v1/jobs", {"experiment": "x",
                                            "specs": [{"bogus": 1}]})
    with pytest.raises(FleetError, match="400"):
        fleet.client._post("/api/v1/jobs", {"experiment": "",
                                            "specs": []})
    with pytest.raises(FleetError, match="404"):
        fleet.client.status("job-999")
    with pytest.raises(FleetError, match="404"):
        fleet.client.lease("w-unknown")


def test_malformed_wire_payloads_answer_400_not_500(fleet):
    """A payload that is JSON but not spec/v3 is the client's error: the
    decoders raise WireFormatError for any JSON value, so the controller
    never sees a raw AttributeError / TypeError to turn into a 500."""
    spec_payload = json.loads(_specs(1)[0].to_json())
    spec_payload["scenario"]["topology"]["edges"] = 5
    with pytest.raises(FleetError, match="400.*edges"):
        fleet.client._post("/api/v1/jobs", {"experiment": "x",
                                            "specs": [spec_payload]})
    spec = _specs(1)[0]
    job = fleet.client.submit("fleettest", [spec])
    result_payload = json.loads(run_experiment(spec).to_json())
    for metrics in ([], 5, {"schema": "run-metrics/v0"}):
        with pytest.raises(FleetError, match="400.*metrics"):
            fleet.client.report({"worker": "w", "job": job, "index": 0,
                                 "result": dict(result_payload,
                                                metrics=metrics)})
    with pytest.raises(FleetError, match="400.*artifacts"):
        fleet.client.report({"worker": "w", "job": job, "index": 0,
                             "result": dict(result_payload, artifacts=[])})


def test_results_before_completion_conflict(fleet):
    job = fleet.client.submit("fleettest", _specs(2))
    with pytest.raises(FleetError, match="409"):
        fleet.client.results(job)


def test_lease_carries_the_env_block(tmp_path):
    controller = FleetController(cache=ResultCache(tmp_path / "c"))
    submitted = controller.submit({
        "experiment": "envtest",
        "specs": [json.loads(spec.to_json()) for spec in _specs(1)],
        "env": {"SRM_CHECK": "1", "SRM_CACHE_SALT": "s"},
        "salt": "s",
    })
    worker = controller.register_worker({"name": "w"})
    lease = controller.lease({"worker": worker["worker"]})
    assert lease["task"]["env"] == {"SRM_CHECK": "1",
                                    "SRM_CACHE_SALT": "s"}
    assert submitted["state"] == "running"


def test_retired_scheduler_knob_in_env_block_fails_the_job(tmp_path,
                                                           monkeypatch):
    """A submitter still exporting ``SRM_SCHED_BACKEND`` (retired with
    the heap backend) gets a failed job naming the knob, and the worker
    applies none of the block."""
    monkeypatch.delenv("SRM_CHECK", raising=False)
    fleet = Fleet(tmp_path, retries=0)
    try:
        job = fleet.client.submit(
            "envtest", _specs(1),
            env_block={"SRM_CHECK": "1", "SRM_SCHED_BACKEND": "heap"})
        fleet.start_worker(name="w-a")
        with pytest.raises(FleetError, match="failed"):
            fleet.client.wait(job, timeout=60, poll=0.05)
        error = fleet.client.status(job)["error"]
        assert "UnknownKnobError" in error
        assert "SRM_SCHED_BACKEND" in error
        assert "SRM_CHECK" not in os.environ
    finally:
        fleet.close()


def test_duplicate_report_after_reschedule_is_benign(tmp_path):
    controller = FleetController(cache=ResultCache(tmp_path / "c"),
                                 lease_ttl=0.01)
    spec = _specs(1)[0]
    controller.submit({"experiment": "duptest",
                       "specs": [json.loads(spec.to_json())],
                       "env": {}, "salt": ""})
    straggler = controller.register_worker({})["worker"]
    lease = controller.lease({"worker": straggler})
    time.sleep(0.05)  # lease expires
    second = controller.register_worker({})["worker"]
    release = controller.lease({"worker": second})
    assert release["task"]["index"] == lease["task"]["index"]
    result_payload = json.loads(run_experiment(spec).to_json())
    first = controller.report({"worker": second, "job": "job-1",
                               "index": 0, "result": result_payload})
    assert first == {"ok": True}
    late = controller.report({"worker": straggler, "job": "job-1",
                              "index": 0, "result": result_payload})
    assert late.get("duplicate") is True
    assert controller.job_status("job-1")["state"] == "done"


def test_fleet_runner_rejects_non_spec_sweeps(fleet):
    runner = FleetRunner(fleet.url)
    # The runner's other task kind cannot cross the wire.
    with pytest.raises(FleetError, match="run_experiment"):
        runner.map("x", run_fuzz_case, [{"case": {"case_seed": 1}}])
    # Any other shape never becomes a Task at all.
    with pytest.raises(TypeError, match="not a runner task kind"):
        runner.map("x", len, [{}])
    with pytest.raises(TypeError, match="'spec'"):
        runner.map("x", run_experiment, [{"spec": _specs(1)[0],
                                          "extra": 1}])
    assert fleet.client.jobs() == []


def test_a_corrupt_cache_entry_is_recomputed(tmp_path, result_payload):
    """Submit resolves a task from the cache only if its entry decodes;
    it used to check that the file exists, so a corrupt entry made the
    job ``done`` at once and its results a 500."""
    cache_root = tmp_path / "c"
    controller = FleetController(cache=ResultCache(cache_root))
    body = {"experiment": "corrupt", "specs": [_specs(1)[0].to_wire()]}
    controller.submit(body)
    worker = controller.register_worker({})["worker"]
    controller.lease({"worker": worker})
    report = {"worker": worker, "job": "job-1", "index": 0,
              "result": result_payload}
    controller.report(report)
    entry, = cache_root.glob("*/*")
    entry.write_bytes(entry.read_bytes()[:100])
    assert controller.submit(body) == {"job": "job-2", "tasks": 1,
                                       "cached": 0, "state": "running"}
    assert controller.lease({"worker": worker})["task"]["job"] == "job-2"
    controller.report(dict(report, job="job-2"))
    assert controller.results("job-2")["results"] == [result_payload]


# ----------------------------------------------------------------------
# Request bodies fail closed
# ----------------------------------------------------------------------


def _leased_controller(cache_root):
    """A two-task job whose task 0 is leased to the returned worker."""
    controller = FleetController(cache=ResultCache(cache_root),
                                 lease_ttl=600.0)
    controller.submit({"experiment": "bodies",
                       "specs": [spec.to_wire() for spec in _specs(2)]})
    worker = controller.register_worker({"name": "w"})["worker"]
    assert controller.lease({"worker": worker})["task"]["index"] == 0
    return controller, worker


def _state(controller):
    """Every job's LeaseTable rows, and the event feed."""
    return (copy.deepcopy({job_id: job.table.rows
                           for job_id, job in controller.jobs.items()}),
            list(controller.events))


@pytest.mark.parametrize("path, action, value, key", [
    (("duration",), "replace", "slow", ""),
    (("index",), "replace", True, ""),
    (("result", "metrics", "requests"), "replace", "many", ""),
    (("result", "metrics", "recovery_ratios"), "replace", 7, ""),
    (("result", "metrics"), "add", 3, "requets"),
], ids=["string-duration", "bool-index", "string-count", "int-ratios",
        "unknown-metrics-key"])
def test_a_malformed_report_is_refused_before_any_state_changes(
        tmp_path, result_payload, path, action, value, key):
    """Each of these used to get through: a string duration raised
    ValueError (a 500) after the result was cached and the task
    completed; ``true`` completed task 1; bad metrics were cached, and
    broke ``RunMetrics.merged`` in the submitter; an unknown metrics
    key was dropped."""
    controller, worker = _leased_controller(tmp_path / "c")
    report = {"worker": worker, "job": "job-1", "index": 0,
              "duration": 0.5, "result": result_payload}
    before = _state(controller)
    with pytest.raises(FleetAPIError) as excinfo:
        controller.report(mutated(report, path, action, value, key))
    assert excinfo.value.status == 400
    assert _state(controller) == before
    assert len(controller.cache) == 0
    # The well-formed report still lands: cached, completed, recorded.
    assert controller.report(report) == {"ok": True}
    assert len(controller.cache) == 1
    assert [row.status for row in controller.jobs["job-1"].table.rows] \
        == ["done", "pending"]
    assert controller.events[-1]["event"] == "result"


@settings(max_examples=examples(200))
@given(data=st.data())
def test_post_handlers_return_or_refuse_without_side_effects(
        data, tmp_path_factory, result_payload):
    """Any one-node change to a valid body: the handler returns, or
    refuses it with a 400/404/409 and leaves every job's lease rows and
    the event feed as they were. Nothing else (no 500)."""
    controller, worker = _leased_controller(tmp_path_factory.mktemp("c"))
    handler, body = data.draw(st.sampled_from([
        ("submit", {"experiment": "more", "specs": [_specs(1)[0].to_wire()],
                    "env": {"SRM_CHECK": "1"}, "salt": "s"}),
        ("register_worker", {"name": "w2"}),
        ("lease", {"worker": worker}),
        ("report", {"worker": worker, "job": "job-1", "index": 0,
                    "duration": 0.5, "result": result_payload}),
    ]))
    _, mutant = draw_mutation(data, body)
    before = _state(controller)
    try:
        getattr(controller, handler)(mutant)
    except FleetAPIError as exc:
        assert exc.status in (400, 404, 409)
        assert _state(controller) == before


# ----------------------------------------------------------------------
# Observability: events, dashboard, CLI views
# ----------------------------------------------------------------------


def test_event_feed_jsonl_and_sse(fleet, tmp_path):
    fleet.start_worker(name="w-a")
    specs = _specs(2)
    job = fleet.client.submit("fleettest", specs)
    fleet.client.wait(job, timeout=120, poll=0.05)
    events = fleet.client.events(job)
    kinds = [event["event"] for event in events]
    assert kinds[0] == "submit"
    assert kinds[-1] == "job-done"
    assert kinds.count("result") == 2
    assert all(event["seq"] >= 0 and event["t"] >= 0
               for event in events)
    # The dashboard polls from a cursor: ?since= returns the tail, and
    # there is no second, streamed feed.
    tail = fleet.client.events(job, since=events[2]["seq"])
    assert tail == events[2:]
    assert _raw_request(fleet, "GET /api/v1/events/stream HTTP/1.0"
                               "\r\n\r\n") == 404


def test_dashboard_serves_html(fleet):
    import urllib.request

    with urllib.request.urlopen(fleet.url + "/", timeout=10) as reply:
        body = reply.read().decode()
    assert "repro fleet controller" in body
    assert "/api/v1/jobs" in body


def test_cli_status_and_workers_views(fleet, capsys):
    import argparse

    from repro.fleet.cli import run_fleet_command

    fleet.start_worker(name="cli-w")
    job = fleet.client.submit("fleettest", _specs(1))
    fleet.client.wait(job, timeout=120, poll=0.05)

    args = argparse.Namespace(mode="status", url=fleet.url, job=None)
    assert run_fleet_command(args) == 0
    out = capsys.readouterr().out
    assert "fleettest" in out and "done" in out

    args = argparse.Namespace(mode="workers", url=fleet.url)
    assert run_fleet_command(args) == 0
    out = capsys.readouterr().out
    assert "cli-w" in out


def test_worker_registration_and_listing(fleet):
    fleet.start_worker(name="alpha")
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        rows = fleet.client.workers()
        if rows:
            break
        time.sleep(0.02)
    assert rows and rows[0]["name"] == "alpha"
    assert rows[0]["state"] in ("idle", "busy")


def test_controller_direct_api_error_statuses(tmp_path):
    controller = FleetController(cache=ResultCache(tmp_path / "c"))
    with pytest.raises(FleetAPIError) as excinfo:
        controller.job_status("nope")
    assert excinfo.value.status == 404
    with pytest.raises(FleetAPIError) as excinfo:
        controller.submit({"experiment": "x", "specs": "not-a-list"})
    assert excinfo.value.status == 400


# ----------------------------------------------------------------------
# The HTTP edge fails closed
# ----------------------------------------------------------------------


def _raw_request(fleet, request: str) -> int:
    """Send ``request`` on a raw socket; return the reply's status."""
    import socket

    with socket.create_connection(fleet.server.server_address,
                                  timeout=10) as sock:
        sock.sendall(request.encode())
        status_line = sock.makefile("rb").readline().decode()
    return int(status_line.split()[1])


@pytest.mark.parametrize("request_text, status", [
    # No body follows any of these headers: a server that trusted them
    # would block in rfile.read() instead of answering.
    ("POST /api/v1/lease HTTP/1.0\r\nContent-Length: "
     f"{MAX_BODY_BYTES + 1}\r\n\r\n", 413),
    ("POST /api/v1/lease HTTP/1.0\r\nContent-Length: -1\r\n\r\n", 400),
    ("POST /api/v1/lease HTTP/1.0\r\nContent-Length: abc\r\n\r\n", 400),
    ("POST /api/v1/jobs HTTP/1.0\r\nContent-Length: 1_0\r\n\r\n", 400),
    ("GET /api/v1/events?since=abc HTTP/1.0\r\n\r\n", 400),
    # No SSE route: the JSONL feed above is the only one.
    ("GET /api/v1/events/stream?since=abc HTTP/1.0\r\n\r\n", 404),
], ids=["oversized-length", "negative-length", "non-integer-length",
        "underscored-length", "non-integer-since", "non-integer-sse-since"])
def test_malformed_lengths_and_cursors_are_rejected(fleet, request_text,
                                                    status):
    assert _raw_request(fleet, request_text) == status
    assert fleet.client.ping()["ok"] is True
