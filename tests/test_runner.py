"""Tests for repro.runner: tasks, cache, pool, manifests, determinism."""

from __future__ import annotations

import io
import os
import time

import pytest

from repro.codec import WireFormatError
from repro.core.config import SrmConfig
from repro.experiments.common import (
    ExperimentSpec,
    RunResult,
    Scenario,
    run_experiment,
)
from repro.oracle.fuzz import run_fuzz_case
from repro.runner import (
    ExperimentRunner,
    ResultCache,
    RunnerError,
    Task,
    canonical,
    read_manifest,
)
from repro.runner import pool
from repro.topology.chain import chain

# ----------------------------------------------------------------------
# Module-level task functions: workers import them by reference, so they
# cannot be closures. A test admits the ones it runs with the
# ``admit_tasks`` fixture; each takes one JSON ``case`` dict. Cross-
# attempt state lives in files, not memory — a retried task may land in
# a different process.
# ----------------------------------------------------------------------


def _spec(seed, config=None, engine="direct"):
    return ExperimentSpec(
        scenario=Scenario(spec=chain(2), members=[0, 1], source=0,
                          drop_edge=(0, 1)),
        config=config, seed=seed, engine=engine)


def _result(case):
    """A RunResult without running anything: what the cache stores."""
    return RunResult(spec=_spec(case["seed"]))


def _count_attempt(case):
    """Record one attempt in the case's counter file; True while fewer
    than ``needed`` attempts have been made."""
    with open(case["counter"], "a") as handle:
        handle.write("x")
    return os.path.getsize(case["counter"]) < case["needed"]


def _crash_until(case):
    """Hard-kill the worker until ``needed`` attempts happened."""
    if _count_attempt(case):
        os._exit(17)
    return case["value"] + 1


def _raise_until(case):
    """Raise (cleanly) until ``needed`` attempts happened."""
    if _count_attempt(case):
        raise ValueError("injected failure")
    return case["value"] + 1


def _always_raises(case):
    raise RuntimeError("permanent failure")


def _raises_timed_out(case):
    raise OSError("connection timed out")


def _sleepy(case):
    time.sleep(case["seconds"])
    return case["seconds"]


def _counter_case(path, value=41, needed=2):
    return {"case": {"counter": str(path), "value": value,
                     "needed": needed}}


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


def _case_task(index, case, experiment="exp"):
    return Task(experiment, index, run_fuzz_case, {"case": case})


def test_fingerprint_stable_across_calls_and_indices():
    task_a = _case_task(0, {"x": 3})
    task_b = _case_task(17, {"x": 3})
    assert task_a.fingerprint("salt") == task_b.fingerprint("salt")
    assert task_a.fingerprint("salt") == task_a.fingerprint("salt")


def test_fingerprint_changes_with_inputs_and_salt():
    base = _case_task(0, {"x": 3}).fingerprint("salt")
    assert _case_task(0, {"x": 4}).fingerprint("salt") != base
    assert _case_task(0, {"x": 3}, "other").fingerprint("salt") != base
    assert _case_task(0, {"x": 3}).fingerprint("v2") != base


def test_fingerprint_covers_dataclass_fields():
    base = Task("exp", 0, run_experiment,
                {"spec": _spec(1, SrmConfig())}).fingerprint("")
    tweaked = Task("exp", 0, run_experiment,
                   {"spec": _spec(1, SrmConfig(c2=99.0))}).fingerprint("")
    assert tweaked != base


def test_canonical_handles_plain_data():
    value = canonical({"b": (1, 2), "a": [3, 1], "c": {1: 2.5, "d": None},
                       "spec": _spec(4)})
    assert value["b"] == [1, 2]
    assert value["a"] == [3, 1]
    assert value["c"] == {"1": 2.5, "d": None}
    assert value["spec"] == _spec(4).to_wire()


def test_canonical_encodes_a_bare_name_as_its_field_list():
    """Names are tuples (repro.core.names), so one passed bare would
    fingerprint as the list of its fields. No task kind takes one — a
    spec goes through ``to_wire`` and a fuzz case is JSON — and this
    pins the encoding of ``canonical`` itself."""
    from repro.core.names import AduName, PageId

    name = AduName(source=3, page=PageId(creator=3, number=7), seq=12)
    assert canonical({"name": name}) == {"name": [3, [3, 7], 12]}


def test_canonical_rejects_unfingerprintable_types():
    # No set sorting and no dataclass walking: a dataclass without a
    # wire form (SrmConfig) is refused like any other unknown type.
    for value in (object(), {1, 2}, SrmConfig()):
        with pytest.raises(TypeError):
            canonical(value)


# ----------------------------------------------------------------------
# The two task kinds: anything else is refused when the Task is built
# ----------------------------------------------------------------------


def _module_level_function(spec):
    return spec


def _nested_function():
    def nested(spec):
        return spec
    return nested


def _generator():
    return (index for index in range(3))


@pytest.mark.parametrize("fn, kwargs", [
    (lambda spec: spec, lambda: {"spec": _spec(1)}),
    (_nested_function(), lambda: {"spec": _spec(1)}),
    (_module_level_function, lambda: {"spec": _spec(1)}),
    (len, lambda: {"spec": _spec(1)}),
    (run_experiment, lambda: {"spec": io.StringIO("an open handle")}),
    (run_experiment, lambda: {"spec": _generator()}),
    (run_fuzz_case, lambda: {"case": {"members": _generator()}}),
    (run_fuzz_case, lambda: {"case": {"log": io.StringIO()}}),
    (run_experiment, lambda: {"spec": _spec(1), "extra": 1}),
    (run_experiment, lambda: {}),
    (run_experiment, lambda: {"case": {"x": 1}}),
    (run_experiment, lambda: {"spec": _spec(1).to_wire()}),
    (run_fuzz_case, lambda: {"case": _spec(1)}),
    (run_fuzz_case, lambda: {"case": [1, 2]}),
    (run_fuzz_case, lambda: {"case": {"edge": (0, 1)}}),
    (run_fuzz_case, lambda: {"case": {1: "non-string key"}}),
], ids=["lambda", "nested-function", "module-level-function", "builtin",
        "open-handle", "generator", "generator-in-case", "handle-in-case",
        "extra-kwarg", "no-kwarg", "wrong-kwarg", "wired-spec",
        "spec-as-case", "list-case", "tuple-in-case", "int-key-in-case"])
def test_task_refuses_all_but_its_two_kinds_at_construction(fn, kwargs):
    with pytest.raises(TypeError, match="exp/0"):
        Task("exp", 0, fn, kwargs())


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_refused_task_never_reaches_a_worker(monkeypatch, jobs):
    def no_worker(*args, **kwargs):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(pool, "_Worker", no_worker)
    runner = ExperimentRunner(jobs=jobs)
    with pytest.raises(TypeError, match="not a runner task kind"):
        runner.map("exp", lambda spec: spec, [{"spec": _spec(1)}] * 2)
    assert runner.reports == []


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = "ab" + "0" * 62
    hit, _ = cache.get(key)
    assert not hit
    cache.put(key, _result({"seed": 42}))
    hit, value = cache.get(key)
    assert hit and value == _result({"seed": 42})
    assert cache.path_for(key).name == f"{key}.json"
    assert len(cache) == 1
    assert (cache.hits, cache.misses) == (1, 1)
    # Only RunResults have a stored form.
    with pytest.raises(WireFormatError, match="not a RunResult"):
        cache.put(key, {"answer": 42})


def test_cache_corrupt_entry_counts_as_miss(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = "cd" + "0" * 62
    cache.put(key, _result({"seed": 1}))
    cache.path_for(key).write_bytes(b"not json")
    hit, _ = cache.get(key)
    assert not hit and cache.misses == 1
    assert not cache.path_for(key).exists()  # corrupt entry was deleted


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    for index in range(3):
        cache.put(f"{index:02d}" + "0" * 62, _result({"seed": index}))
    assert cache.clear() == 3
    assert len(cache) == 0


# ----------------------------------------------------------------------
# Runner: cache hits/misses, manifests, failures, timeouts
# ----------------------------------------------------------------------


def _seeds(*seeds):
    return [{"case": {"seed": seed}} for seed in seeds]


def test_runner_cache_hit_and_miss_on_fingerprint_change(tmp_path,
                                                         admit_tasks):
    admit_tasks(_result)
    cache = ResultCache(tmp_path / "cache")
    first = ExperimentRunner(cache=cache)
    assert first.map("exp", _result, _seeds(1, 2)) == [
        _result({"seed": 1}), _result({"seed": 2})]
    assert [report.cache for report in first.reports] == ["miss", "miss"]

    second = ExperimentRunner(cache=cache)
    # seed=2 is cached from the first run; seed=3 is a genuinely new point.
    assert second.map("exp", _result, _seeds(2, 3)) == [
        _result({"seed": 2}), _result({"seed": 3})]
    assert [report.cache for report in second.reports] == ["hit", "miss"]


def test_runner_manifest_rows(tmp_path, admit_tasks):
    admit_tasks(_result)
    manifest_path = tmp_path / "run.jsonl"
    runner = ExperimentRunner(cache=ResultCache(tmp_path / "cache"),
                              manifest_path=str(manifest_path))
    runner.map("exp", _result, _seeds(5))
    header, = read_manifest(manifest_path, "header")
    assert header["tasks"] == 1 and header["cache"] == "on"
    task_row, = read_manifest(manifest_path, "task")
    assert task_row["task"] == "exp/0"
    assert task_row["status"] == "ok"
    assert task_row["cache"] == "miss"
    assert task_row["attempts"] == 1
    assert task_row["pid"] == os.getpid()
    summary, = read_manifest(manifest_path, "summary")
    assert summary["completed"] == 1 and not summary["failed"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_error_is_final_even_when_a_retry_would_pass(tmp_path, jobs,
                                                        admit_tasks):
    """A task's own exception ends it at once, whatever its budget: both
    task kinds are deterministic, so a second attempt is never made."""
    admit_tasks(_raise_until)
    counter = tmp_path / "counter"
    runner = ExperimentRunner(jobs=jobs, retries=2)
    with pytest.raises(RunnerError, match="after 1 attempt"):
        runner.map("flaky", _raise_until, [_counter_case(counter)])
    assert counter.read_text() == "x"
    report, = runner.reports
    assert report.status == "failed" and report.attempts == 1
    assert "task_retry" not in [record.kind for record in runner.trace]


def test_serial_permanent_failure_raises(tmp_path, admit_tasks):
    admit_tasks(_always_raises)
    manifest_path = tmp_path / "run.jsonl"
    runner = ExperimentRunner(jobs=1, retries=1,
                              manifest_path=str(manifest_path))
    with pytest.raises(RunnerError, match="permanent failure"):
        runner.map("bad", _always_raises, [{"case": {}}])
    task_row, = read_manifest(manifest_path, "task")
    assert task_row["status"] == "failed" and task_row["attempts"] == 1
    summary, = read_manifest(manifest_path, "summary")
    assert summary["failed"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_herd_refused_spec_fails_on_attempt_1_with_no_backoff(tmp_path,
                                                                 jobs):
    """The herd refuses adaptive timers. That refusal used to run three
    times, with backoff sleeps between, before the runner gave up."""
    manifest_path = tmp_path / "run.jsonl"
    spec = _spec(1, SrmConfig(adaptive=True), engine="herd")
    runner = ExperimentRunner(jobs=jobs, manifest_path=str(manifest_path))
    begun = time.monotonic()
    with pytest.raises(RunnerError, match="HerdUnsupportedError"):
        runner.map("herd-adaptive", run_experiment, [{"spec": spec}])
    assert time.monotonic() - begun < 0.5
    task_row, = read_manifest(manifest_path, "task")
    assert task_row["status"] == "failed" and task_row["attempts"] == 1


def test_parallel_retry_after_worker_crash(tmp_path, admit_tasks):
    admit_tasks(_crash_until)
    counter = tmp_path / "counter"
    runner = ExperimentRunner(jobs=2, retries=2)
    out = runner.map("crashy", _crash_until, [_counter_case(counter)])
    assert out == [42]
    report, = runner.reports
    assert report.status == "ok" and report.attempts == 2
    kinds = [record.kind for record in runner.trace]
    assert "task_retry" in kinds


def test_parallel_timeout_kills_and_raises(tmp_path, admit_tasks):
    admit_tasks(_sleepy)
    manifest_path = tmp_path / "run.jsonl"
    runner = ExperimentRunner(jobs=2, retries=1, task_timeout=0.3,
                              manifest_path=str(manifest_path))
    begun = time.monotonic()
    with pytest.raises(RunnerError, match="timed out"):
        runner.map("sleepy", _sleepy, [{"case": {"seconds": 60}}])
    assert time.monotonic() - begun < 20  # never waited the full sleep
    task_row, = read_manifest(manifest_path, "task")
    assert task_row["status"] == "timeout" and task_row["attempts"] == 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_task_that_says_timed_out_is_failed_not_timeout(tmp_path, jobs,
                                                          admit_tasks):
    """The manifest status comes from ``TaskFailed.cause`` — how the last
    attempt ended — not from a substring of the task's own message."""
    admit_tasks(_raises_timed_out)
    manifest_path = tmp_path / "run.jsonl"
    runner = ExperimentRunner(jobs=jobs, retries=0, task_timeout=30,
                              manifest_path=str(manifest_path))
    with pytest.raises(RunnerError, match="timed out"):
        runner.map("flaky-net", _raises_timed_out, [{"case": {}}])
    task_row, = read_manifest(manifest_path, "task")
    assert task_row["status"] == "failed" and task_row["attempts"] == 1


def test_parallel_results_arrive_in_task_order(admit_tasks):
    admit_tasks(_sleepy)
    # Uneven task durations: completion order differs from task order.
    runner = ExperimentRunner(jobs=3)
    delays = [0.2, 0.0, 0.1, 0.05]
    out = runner.map("sleepy", _sleepy,
                     [{"case": {"seconds": seconds}} for seconds in delays])
    assert out == delays
    # Manifest-free run: reports list is still in completion order, but
    # every task is present exactly once.
    assert sorted(report.index for report in runner.reports) == [0, 1, 2, 3]


def test_trace_listener_sees_live_progress(tmp_path, admit_tasks):
    admit_tasks(_crash_until)
    # Serially nothing can be lost; on the pool, task 1 crashes its
    # worker once and is leased again.
    for jobs, needed in ((1, (1, 1)), (2, (1, 2))):
        runner = ExperimentRunner(jobs=jobs, retries=1)
        seen = []
        runner.trace.subscribe(lambda record: seen.append(record))
        begun = time.monotonic()
        runner.map("exp", _crash_until,
                   [_counter_case(tmp_path / f"jobs{jobs}-{x}", x, n)
                    for x, n in enumerate(needed)])
        wall = time.monotonic() - begun
        kinds = [record.kind for record in seen]
        assert kinds[0] == "run_start"
        assert kinds.count("task_done") == 2
        assert kinds.count("task_start") == 2 + (jobs == 2)
        assert ("task_retry" in kinds) == (jobs == 2)
        assert kinds[-1] == "run_end"
        # One time base: every row is stamped with seconds since the run
        # began, so the trace reads in order and ends inside the wall
        # clock (task_start / task_retry used to carry time.monotonic()).
        times = [record.time for record in seen]
        assert times == sorted(times)
        assert 0.0 <= times[0] and times[-1] <= wall
