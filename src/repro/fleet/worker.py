"""The fleet worker agent: register, lease, execute, report, repeat.

A worker is deliberately stateless: every piece of information it needs
to run a task arrives in the lease (the spec/v3 payload, the job's env
block, the lease TTL), and everything it produces leaves in the report.
Killing a worker at any point — mid-execution included — loses nothing:
the controller's lease expires and the task reruns elsewhere, and the
deterministic simulation produces the identical result there.

While executing, a daemon thread heartbeats at a third of the lease TTL
so long tasks keep their lease; the ``hold`` knob (``--hold`` on the
CLI) inserts an artificial pause between lease and execution, which is
how the crash-recovery tests and the CI fleet-smoke job make "worker
dies holding a lease" reproducible on fast simulations.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

from repro.experiments.common import RunResult, run_experiment
from repro.fleet.client import FleetClient, FleetError
from repro.fleet.wire import REPORT, Report, spec_from_wire


class FleetWorker:
    """One pull-based worker loop against a controller."""

    def __init__(self, base_url: str, name: str = "",
                 poll_interval: float = 0.2,
                 hold: float = 0.0,
                 max_tasks: Optional[int] = None,
                 stop: Optional[threading.Event] = None) -> None:
        self.client = FleetClient(base_url)
        self.name = name
        self.poll_interval = float(poll_interval)
        #: Seconds to sleep between leasing a task and executing it.
        #: A test/CI hook: a worker killed during the hold dies while
        #: provably holding a lease.
        self.hold = float(hold)
        self.max_tasks = max_tasks
        self.stop = stop if stop is not None else threading.Event()
        self.worker_id = ""
        self.lease_ttl = 0.0
        self.completed = 0

    # ------------------------------------------------------------------

    def register(self) -> str:
        reply = self.client.register_worker(self.name)
        self.worker_id = reply["worker"]
        self.lease_ttl = float(reply["lease_ttl"])
        return self.worker_id

    def run(self) -> int:
        """Work until stopped (or ``max_tasks`` done); returns the count."""
        if not self.worker_id:
            self.register()
        idle_sleep = self.poll_interval
        while not self.stop.is_set():
            if self.max_tasks is not None \
                    and self.completed >= self.max_tasks:
                break
            try:
                lease = self.client.lease(self.worker_id)
            except FleetError:
                # Controller briefly unreachable (restart, races in
                # tests): back off and retry rather than dying.
                self.stop.wait(idle_sleep)
                continue
            task = lease.get("task")
            if not task:
                self.stop.wait(idle_sleep)
                continue
            self._execute(task)
        return self.completed

    # ------------------------------------------------------------------

    def _execute(self, task: Dict[str, Any]) -> None:
        from repro import env

        if self.hold > 0:
            if self.stop.wait(self.hold):
                return
        heartbeat_stop = threading.Event()
        beater = threading.Thread(
            target=self._heartbeat_loop, args=(heartbeat_stop,),
            daemon=True)
        beater.start()
        begun = time.monotonic()
        try:
            env.apply(task.get("env", {}))
            result = run_experiment(spec_from_wire(task["spec"]))
            # Encoded here: a result with no wire form is the task's error.
            body = self._report_body(task, begun, result=result)
        except Exception as exc:  # noqa: BLE001 - reported, not fatal
            body = self._report_body(
                task, begun, error=f"{type(exc).__name__}: {exc}")
        finally:
            heartbeat_stop.set()
            beater.join()
        try:
            self.client.report(body)
        except FleetError:
            # The lease will expire and the task rerun; a lost report
            # of a deterministic result is safe to drop.
            return
        if body["error"] is None:
            self.completed += 1

    def _heartbeat_loop(self, done: threading.Event) -> None:
        interval = max(self.lease_ttl / 3.0, 0.05)
        while not done.wait(interval):
            try:
                self.client.heartbeat(self.worker_id)
            except FleetError:
                pass  # transient; the next beat (or report) retries

    def _report_body(self, task: Dict[str, Any], begun: float,
                     result: Optional[RunResult] = None,
                     error: Optional[str] = None) -> Dict[str, Any]:
        return REPORT.encode(Report(
            worker=self.worker_id, job=task["job"], index=task["index"],
            duration=round(time.monotonic() - begun, 6), result=result,
            error=error))
