"""repro.runner: parallel experiment execution with caching and manifests.

The orchestration substrate every figure sweep runs on:

* :mod:`repro.runner.task` — one sweep point of one of the two task
  kinds (``run_experiment``, ``run_fuzz_case``), with a stable content
  fingerprint
* :mod:`repro.runner.cache` — content-addressed on-disk result cache,
  one spec/v3 JSON file per ``RunResult``
* :mod:`repro.runner.lease` — the one task state machine (attempts,
  deadlines) the pool and the fleet run on
* :mod:`repro.runner.pool` — the two local transports: in this
  process, and a crash-tolerant worker pool on that table, with
  per-task deadlines
* :mod:`repro.runner.manifest` — JSONL run manifests (one row per task)
* :mod:`repro.runner.executor` — :class:`ExperimentRunner`, the facade
  the experiments and the CLI talk to

Quickstart::

    from repro.runner import ExperimentRunner, ResultCache
    from repro.experiments.figure4 import run_figure4

    runner = ExperimentRunner(jobs=8, cache=ResultCache())
    result = run_figure4(runner=runner)      # parallel + cached
    print(result.format_table())             # identical to runner-less
"""

from repro.env import cache_salt as code_version_salt
from repro.runner.cache import ResultCache
from repro.runner.executor import ExperimentRunner, RunnerError, TaskReport
from repro.runner.manifest import RunManifest, read_manifest
from repro.runner.pool import Execution, TaskFailed, run_pool
from repro.runner.task import Task, canonical, function_ref

__all__ = [
    "Task",
    "canonical",
    "function_ref",
    "ResultCache",
    "ExperimentRunner",
    "RunnerError",
    "TaskReport",
    "code_version_salt",
    "RunManifest",
    "read_manifest",
    "Execution",
    "TaskFailed",
    "run_pool",
]
