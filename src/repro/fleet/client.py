"""Client side of the fleet API: FleetClient and FleetRunner.

:class:`FleetClient` is the raw HTTP binding — stdlib ``urllib`` only,
JSON in and out, every fleet endpoint as one method; request bodies are
encoded through the :mod:`repro.fleet.wire` records the controller
decodes them with.

:class:`FleetRunner` is the piece that makes the fleet invisible to the
experiment layer: an :class:`~repro.runner.executor.ExperimentRunner` —
same ``map`` / ``run``, same metrics merge — that overrides one step,
where the misses execute. ``run_figure3(runner=FleetRunner(url))`` ships
the sweep through a controller and hands the figure code the same
``RunResult`` list, in the same order, that a serial run produces. The
figure's own aggregation is untouched, which is what makes fleet output
byte-identical to serial output.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.experiments.common import ExperimentSpec
from repro.fleet.wire import LEASE, REGISTER, SUBMIT, Lease, Register, Submit, result_from_wire
from repro.runner.executor import ExperimentRunner
from repro.runner.task import RUN_EXPERIMENT, Task, function_ref


class FleetError(RuntimeError):
    """Any failure talking to (or reported by) the controller."""


class FleetClient:
    """Thin JSON-over-HTTP binding for the ``/api/v1`` surface."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        url = f"{self.base_url}{path}"
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            url, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as reply:
                payload = json.loads(reply.read().decode())
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = json.loads(exc.read().decode()).get("error", "")
            except Exception:  # noqa: BLE001 - detail is best-effort
                pass
            raise FleetError(
                f"{method} {path} -> {exc.code}"
                + (f": {detail}" if detail else "")) from exc
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise FleetError(f"{method} {path} failed: {exc}") from exc
        if not isinstance(payload, dict):
            raise FleetError(f"{method} {path}: non-object reply")
        return payload

    def _get(self, path: str) -> Dict[str, Any]:
        return self._request("GET", path)

    def _post(self, path: str, body: Dict[str, Any]) -> Dict[str, Any]:
        return self._request("POST", path, body)

    # -- API surface ---------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self._get("/api/v1/ping")

    def submit(self, experiment: str, specs: Sequence[ExperimentSpec],
               env_block: Optional[Dict[str, str]] = None,
               salt: Optional[str] = None) -> str:
        """Submit a sweep of ExperimentSpecs; returns the job id.

        ``env_block`` defaults to this process's explicitly-set SRM
        knobs (:func:`repro.env.snapshot`) and ``salt`` to the local
        cache salt, so workers reproduce the submitter's environment
        and fingerprints match the submitter's serial runs.
        """
        from repro import env

        if env_block is None:
            env_block = env.snapshot()
        if salt is None:
            salt = env.cache_salt()
        reply = self._post("/api/v1/jobs", SUBMIT.encode(Submit(
            experiment=experiment, specs=list(specs), env=env_block,
            salt=salt)))
        return str(reply["job"])

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._get(f"/api/v1/jobs/{job_id}")

    # Worker-side surface (used by FleetWorker).

    def register_worker(self, name: str = "") -> Dict[str, Any]:
        return self._post("/api/v1/workers/register",
                          REGISTER.encode(Register(name=name)))

    def heartbeat(self, worker_id: str) -> Dict[str, Any]:
        return self._post(f"/api/v1/workers/{worker_id}/heartbeat", {})

    def lease(self, worker_id: str) -> Dict[str, Any]:
        return self._post("/api/v1/lease",
                          LEASE.encode(Lease(worker=worker_id)))

    def report(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """Send a body the worker encoded through ``wire.REPORT``."""
        return self._post("/api/v1/results", body)

    def jobs(self) -> List[Dict[str, Any]]:
        return list(self._get("/api/v1/jobs")["jobs"])

    def workers(self) -> List[Dict[str, Any]]:
        return list(self._get("/api/v1/workers")["workers"])

    def wait(self, job_id: str, timeout: Optional[float] = None,
             poll: float = 0.2) -> Dict[str, Any]:
        """Poll until the job finishes; raise FleetError on failure."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] == "done":
                return status
            if status["state"] == "failed":
                raise FleetError(f"job {job_id} failed: "
                                 f"{status.get('error', '')}")
            if deadline is not None and time.monotonic() > deadline:
                raise FleetError(
                    f"job {job_id} did not finish within {timeout}s "
                    f"(counts: {status['counts']})")
            time.sleep(poll)

    def results(self, job_id: str) -> List[Any]:
        """The job's RunResults, decoded, in task-index order."""
        reply = self._get(f"/api/v1/jobs/{job_id}/results")
        return [result_from_wire(payload)
                for payload in reply["results"]]

    def events(self, job_id: Optional[str] = None,
               since: int = 0) -> List[Dict[str, Any]]:
        """JSONL snapshot of the event feed (optionally one job's)."""
        query = f"?since={since}"
        if job_id is not None:
            query += f"&job={job_id}"
        url = f"{self.base_url}/api/v1/events{query}"
        try:
            with urllib.request.urlopen(url,
                                        timeout=self.timeout) as reply:
                lines = reply.read().decode().splitlines()
        except (urllib.error.URLError, OSError) as exc:
            raise FleetError(f"GET /api/v1/events failed: {exc}") from exc
        return [json.loads(line) for line in lines if line.strip()]


class FleetRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` whose misses execute on a fleet.

    Only spec-shaped sweeps — ``map(experiment, run_experiment,
    [{"spec": ExperimentSpec}, ...])`` — can cross the wire; that is
    every figure's surface. The runner's other task kind, a fuzz
    sweep, raises rather than silently running locally. Retries and
    lease deadlines are the controller's.
    """

    def __init__(self, base_url_or_client: Any,
                 env_block: Optional[Dict[str, str]] = None,
                 salt: Optional[str] = None,
                 timeout: Optional[float] = None,
                 poll: float = 0.2,
                 metrics_path: Optional[str] = None) -> None:
        super().__init__(salt=salt, metrics_path=metrics_path)
        self.client = base_url_or_client \
            if isinstance(base_url_or_client, FleetClient) \
            else FleetClient(str(base_url_or_client))
        self.env_block = env_block
        self.timeout = timeout
        self.poll = poll

    def _execute(self, tasks: Sequence[Task], misses: List[int],
                 finish: Callable[..., None]) -> None:
        for position in misses:
            ref = function_ref(tasks[position].fn)
            if ref != RUN_EXPERIMENT:
                raise FleetError(f"FleetRunner can only execute "
                                 f"run_experiment sweeps, not {ref}")
        experiments = {tasks[position].experiment for position in misses}
        if len(experiments) != 1:
            raise FleetError("FleetRunner.run() expects tasks from one "
                             "experiment per call")
        job_id = self.client.submit(
            experiments.pop(),
            [tasks[position].kwargs["spec"] for position in misses],
            env_block=self.env_block, salt=self.salt)
        self.client.wait(job_id, timeout=self.timeout, poll=self.poll)
        for position, value in zip(misses, self.client.results(job_id)):
            # attempts=0, pid=None: nothing ran in this process.
            finish(position, "ok", 0, result=value)
