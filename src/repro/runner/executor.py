"""The experiment-execution engine: cache, pool, manifest, progress.

:class:`ExperimentRunner` is the one object the experiment layer talks
to. Given a list of :class:`~repro.runner.task.Task` sweep points it

* resolves cache hits from the :class:`~repro.runner.cache.ResultCache`,
* executes the misses — in-process when ``jobs == 1``, on a
  crash-tolerant worker pool otherwise, on a fleet when the runner is a
  :class:`~repro.fleet.client.FleetRunner`. A task's own exception
  fails the run at once; the pool and the fleet each run a
  :class:`~repro.runner.lease.LeaseTable`, which re-leases a task whose
  worker was lost (crash, deadline, expired lease) up to ``retries``
  times,
* appends a JSONL :class:`~repro.runner.manifest.RunManifest` row per
  task, and
* emits live progress through a :class:`repro.sim.trace.Trace`, so any
  ``Trace`` listener (a tqdm-style printer, a test harness) can watch
  the run without polling.

Results are always returned in task order, never completion order:
``jobs=4`` reproduces ``jobs=1`` exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.env import cache_salt as code_version_salt
from repro.runner.cache import ResultCache
from repro.runner.manifest import RunManifest
from repro.runner.pool import TaskFailed, run_inline, run_pool
from repro.runner.task import Task
from repro.sim.trace import Trace


class RunnerError(RuntimeError):
    """A task failed: it raised, or lost its worker too often."""


@dataclass
class TaskReport:
    """Everything the manifest records about one task."""

    task_id: str
    experiment: str
    index: int
    fingerprint: str
    status: str            # "ok" | "failed" | "timeout"
    attempts: int
    duration: float
    cache: str             # "hit" | "miss" | "off"
    pid: Optional[int]


class ExperimentRunner:
    """Executes task sweeps; the substrate every figure runs on.

    ``jobs=1`` (the default) runs tasks in-process with no worker
    machinery at all — library callers that never touch the runner knobs
    get exactly the old serial behavior. ``jobs>1`` fans tasks out to a
    worker pool; ``task_timeout`` and ``retries`` (the budget for lost
    workers) only apply there: in-process, a task cannot preempt itself
    and there is no worker to lose.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 manifest_path: Optional[str] = None,
                 retries: int = 2,
                 task_timeout: Optional[float] = None,
                 trace: Optional[Trace] = None,
                 salt: Optional[str] = None,
                 metrics_path: Optional[str] = None) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.manifest_path = manifest_path
        #: When set, every run() merges the RunMetrics bundles carried by
        #: its results and persists them as JSON at this path.
        self.metrics_path = metrics_path
        self.retries = max(0, int(retries))
        self.task_timeout = task_timeout
        self.trace = trace if trace is not None else Trace()
        self.salt = salt if salt is not None else code_version_salt()
        #: Reports accumulate across ``run()`` invocations, newest last.
        self.reports: List[TaskReport] = []
        self._started = time.monotonic()

    # ------------------------------------------------------------------

    def map(self, experiment: str, fn: Callable[..., Any],
            kwargs_list: Sequence[Dict[str, Any]]) -> List[Any]:
        """Sweep ``fn`` over per-point kwargs; results in sweep order."""
        tasks = [Task(experiment=experiment, index=index, fn=fn,
                      kwargs=dict(kwargs))
                 for index, kwargs in enumerate(kwargs_list)]
        return self.run(tasks)

    def _elapsed(self) -> float:
        """Seconds since ``run()`` began: the trace's one time base."""
        return time.monotonic() - self._started

    def run(self, tasks: Sequence[Task]) -> List[Any]:
        """Execute every task; return their results in task order."""
        self._started = time.monotonic()
        manifest = RunManifest(self.manifest_path) \
            if self.manifest_path else None
        experiments = sorted({task.experiment for task in tasks})
        self.trace.record(0.0, "runner", "run_start",
                          experiments=experiments, tasks=len(tasks),
                          jobs=self.jobs)
        if manifest:
            manifest.header(experiments=experiments, tasks=len(tasks),
                            jobs=self.jobs, retries=self.retries,
                            task_timeout=self.task_timeout, salt=self.salt,
                            cache="on" if self.cache is not None else "off")
        fingerprints = [task.fingerprint(self.salt) for task in tasks]
        results: List[Any] = [None] * len(tasks)
        first_report = len(self.reports)

        def finish(position: int, status: str, attempts: int,
                   duration: float = 0.0, pid: Optional[int] = None,
                   result: Any = None, hit: bool = False) -> None:
            """Record how one task ended; store and cache an ``ok`` result."""
            task = tasks[position]
            if status == "ok":
                results[position] = result
                if self.cache is not None and not hit:
                    self.cache.put(fingerprints[position], result)
            report = TaskReport(
                task_id=task.task_id, experiment=task.experiment,
                index=task.index, fingerprint=fingerprints[position],
                status=status, attempts=attempts, duration=duration,
                cache="hit" if hit else
                "miss" if self.cache is not None else "off", pid=pid)
            self.reports.append(report)
            if manifest:
                manifest.task(
                    task=report.task_id, experiment=report.experiment,
                    index=report.index, fingerprint=report.fingerprint,
                    status=report.status, attempts=report.attempts,
                    duration=round(report.duration, 6), cache=report.cache,
                    pid=report.pid)
            self.trace.record(self._elapsed(), "runner", "task_done",
                              task=report.task_id, status=report.status,
                              cache=report.cache, attempts=report.attempts)

        failed = True
        try:
            misses: List[int] = []
            for position, fingerprint in enumerate(fingerprints):
                hit, value = self.cache.get(fingerprint) \
                    if self.cache is not None else (False, None)
                if hit:
                    finish(position, "ok", 0, result=value, hit=True)
                else:
                    misses.append(position)
            if misses:
                self._execute(tasks, misses, finish)
            if self.metrics_path:
                self._persist_metrics(results, experiments, manifest)
            failed = False
        except TaskFailed as failure:
            finish(failure.index,
                   "timeout" if failure.cause == "timeout" else "failed",
                   failure.attempts)
            raise RunnerError(str(failure)) from failure
        finally:
            reports = self.reports[first_report:]
            hits = sum(1 for report in reports if report.cache == "hit")
            wall = self._elapsed()
            self.trace.record(wall, "runner", "run_end",
                              completed=len(reports), cache_hits=hits,
                              failed=failed)
            if manifest:
                manifest.summary(
                    completed=len(reports), cache_hits=hits,
                    cache_misses=sum(1 for report in reports
                                     if report.cache == "miss"),
                    failed=failed, wall_seconds=round(wall, 6))
                manifest.close()
        return results

    # ------------------------------------------------------------------

    def _execute(self, tasks: Sequence[Task], misses: List[int],
                 finish: Callable[..., None]) -> None:
        """Run ``tasks[position]`` for every miss and ``finish`` it:
        in this process when ``jobs == 1``, on the pool otherwise."""
        # Completions are reported (manifest row, cache write, trace
        # record) from the event callback as each task lands, so a
        # listener sees live progress rather than one burst at the end.
        def on_event(kind: str, **detail: Any) -> None:
            position = detail.pop("index")
            if kind in ("retry", "start"):
                self.trace.record(self._elapsed(), "runner", f"task_{kind}",
                                  task=tasks[position].task_id, **detail)
            elif kind == "done":  # attempts, duration, pid, result
                finish(position, "ok", **detail)

        items = [(position, tasks[position].fn, tasks[position].kwargs)
                 for position in misses]
        if self.jobs == 1:
            run_inline(items, on_event)
        else:
            run_pool(items, jobs=self.jobs, timeout=self.task_timeout,
                     retries=self.retries, on_event=on_event)

    def _persist_metrics(self, results: List[Any],
                         experiments: List[str],
                         manifest: Optional[RunManifest]) -> None:
        """Merge the results' RunMetrics bundles and save them as JSON.

        Results without a bundle (analytic experiment kinds, task
        functions that return no ``RunResult``) are skipped; a cache hit
        contributes the bundle decoded from its entry's JSON, so a
        fully-cached run persists the same bundle as a cold one.
        """
        from repro.metrics.bundle import RunMetrics, save_bundle

        bundles = [bundle for bundle in
                   (getattr(result, "metrics", None) for result in results)
                   if isinstance(bundle, RunMetrics)]
        if not bundles:
            return
        merged = RunMetrics.merged(bundles,
                                   experiment=",".join(experiments))
        path = save_bundle(merged, self.metrics_path)
        self.trace.record(self._elapsed(), "runner", "metrics_saved",
                          path=str(path), bundles=len(bundles))
        if manifest:
            manifest.metrics(path=str(path), bundles=len(bundles),
                             experiments=experiments,
                             headline=merged.headline())
