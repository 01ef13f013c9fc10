"""Tests for repro.runner: tasks, cache, pool, manifests, determinism."""

from __future__ import annotations

import os
import time

import pytest

from repro.codec import WireFormatError
from repro.core.config import SrmConfig
from repro.experiments.common import ExperimentSpec, RunResult, Scenario
from repro.runner import (
    ExperimentRunner,
    ResultCache,
    RunnerError,
    Task,
    canonical,
    read_manifest,
)
from repro.topology.chain import chain

# ----------------------------------------------------------------------
# Module-level task functions: workers import them by reference, so they
# cannot be closures. Cross-attempt state lives in files, not memory —
# a retried task may land in a different process.
# ----------------------------------------------------------------------


def _double(x):
    return 2 * x


def _result(seed):
    """A RunResult without running anything: what the cache stores."""
    return RunResult(spec=ExperimentSpec(
        scenario=Scenario(spec=chain(2), members=[0, 1], source=0,
                          drop_edge=(0, 1)), seed=seed))


def _crash_until(counter_path, value, attempts_needed):
    """Hard-kill the worker until ``attempts_needed`` attempts happened."""
    with open(counter_path, "a") as handle:
        handle.write("x")
    if os.path.getsize(counter_path) < attempts_needed:
        os._exit(17)
    return value + 1


def _raise_until(counter_path, value, attempts_needed):
    """Raise (cleanly) until ``attempts_needed`` attempts happened."""
    with open(counter_path, "a") as handle:
        handle.write("x")
    if os.path.getsize(counter_path) < attempts_needed:
        raise ValueError("injected failure")
    return value + 1


def _always_raises():
    raise RuntimeError("permanent failure")


def _raises_timed_out():
    raise OSError("connection timed out")


def _sleepy(seconds):
    time.sleep(seconds)
    return seconds


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


def test_fingerprint_stable_across_calls_and_indices():
    task_a = Task("exp", 0, _double, dict(x=3))
    task_b = Task("exp", 17, _double, dict(x=3))
    assert task_a.fingerprint("salt") == task_b.fingerprint("salt")
    assert task_a.fingerprint("salt") == task_a.fingerprint("salt")


def test_fingerprint_changes_with_inputs_and_salt():
    base = Task("exp", 0, _double, dict(x=3)).fingerprint("salt")
    assert Task("exp", 0, _double, dict(x=4)).fingerprint("salt") != base
    assert Task("other", 0, _double, dict(x=3)).fingerprint("salt") != base
    assert Task("exp", 0, _double, dict(x=3)).fingerprint("v2") != base


def test_fingerprint_covers_dataclass_fields():
    config = SrmConfig()
    tweaked = SrmConfig(c2=99.0)
    base = Task("exp", 0, _double, dict(x=config)).fingerprint("")
    assert Task("exp", 0, _double, dict(x=tweaked)).fingerprint("") != base


def test_canonical_handles_plain_data():
    value = canonical({"b": (1, 2), "a": {3, 1}, "c": SrmConfig()})
    assert value["b"] == [1, 2]
    assert value["a"] == [1, 3]
    assert value["c"]["__type__"].endswith("SrmConfig")


def test_canonical_encodes_a_bare_name_as_its_field_list():
    """Names are tuples (repro.core.names), so one passed bare would
    fingerprint as the list of its fields. No task argument carries one
    today — sweeps pass specs, which go through ``to_wire`` — and this
    pins the encoding for whoever adds the first."""
    from repro.core.names import AduName, PageId

    name = AduName(source=3, page=PageId(creator=3, number=7), seq=12)
    assert canonical({"name": name}) == {"name": [3, [3, 7], 12]}


def test_canonical_rejects_unfingerprintable_types():
    with pytest.raises(TypeError):
        canonical(object())


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = "ab" + "0" * 62
    hit, _ = cache.get(key)
    assert not hit
    cache.put(key, _result(42))
    hit, value = cache.get(key)
    assert hit and value == _result(42)
    assert cache.path_for(key).name == f"{key}.json"
    assert len(cache) == 1
    assert (cache.hits, cache.misses) == (1, 1)
    # Only RunResults have a stored form.
    with pytest.raises(WireFormatError, match="not a RunResult"):
        cache.put(key, {"answer": 42})


def test_cache_corrupt_entry_counts_as_miss(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = "cd" + "0" * 62
    cache.put(key, _result(1))
    cache.path_for(key).write_bytes(b"not json")
    hit, _ = cache.get(key)
    assert not hit and cache.misses == 1
    assert not cache.path_for(key).exists()  # corrupt entry was deleted


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    for index in range(3):
        cache.put(f"{index:02d}" + "0" * 62, _result(index))
    assert cache.clear() == 3
    assert len(cache) == 0


# ----------------------------------------------------------------------
# Runner: cache hits/misses, manifests, retries, timeouts
# ----------------------------------------------------------------------


def test_runner_cache_hit_and_miss_on_fingerprint_change(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    first = ExperimentRunner(cache=cache)
    assert first.map("exp", _result, [dict(seed=1), dict(seed=2)]) == [
        _result(1), _result(2)]
    assert [report.cache for report in first.reports] == ["miss", "miss"]

    second = ExperimentRunner(cache=cache)
    # seed=2 is cached from the first run; seed=3 is a genuinely new point.
    assert second.map("exp", _result, [dict(seed=2), dict(seed=3)]) == [
        _result(2), _result(3)]
    assert [report.cache for report in second.reports] == ["hit", "miss"]


def test_runner_manifest_rows(tmp_path):
    manifest_path = tmp_path / "run.jsonl"
    runner = ExperimentRunner(cache=ResultCache(tmp_path / "cache"),
                              manifest_path=str(manifest_path))
    runner.map("exp", _result, [dict(seed=5)])
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


def test_serial_retry_then_succeed(tmp_path):
    counter = tmp_path / "counter"
    runner = ExperimentRunner(jobs=1, retries=2, backoff=0.01)
    out = runner.map("flaky", _raise_until,
                     [dict(counter_path=str(counter), value=41,
                           attempts_needed=2)])
    assert out == [42]
    report, = runner.reports
    assert report.status == "ok" and report.attempts == 2


def test_serial_permanent_failure_raises(tmp_path):
    manifest_path = tmp_path / "run.jsonl"
    runner = ExperimentRunner(jobs=1, retries=1, backoff=0.01,
                              manifest_path=str(manifest_path))
    with pytest.raises(RunnerError, match="permanent failure"):
        runner.map("bad", _always_raises, [dict()])
    task_row, = read_manifest(manifest_path, "task")
    assert task_row["status"] == "failed" and task_row["attempts"] == 2
    summary, = read_manifest(manifest_path, "summary")
    assert summary["failed"]


def test_parallel_retry_after_worker_crash(tmp_path):
    counter = tmp_path / "counter"
    runner = ExperimentRunner(jobs=2, retries=2, backoff=0.01)
    out = runner.map("crashy", _crash_until,
                     [dict(counter_path=str(counter), value=41,
                           attempts_needed=2)])
    assert out == [42]
    report, = runner.reports
    assert report.status == "ok" and report.attempts == 2
    kinds = [record.kind for record in runner.trace]
    assert "task_retry" in kinds


def test_parallel_timeout_kills_and_raises(tmp_path):
    manifest_path = tmp_path / "run.jsonl"
    runner = ExperimentRunner(jobs=2, retries=1, backoff=0.01,
                              task_timeout=0.3,
                              manifest_path=str(manifest_path))
    begun = time.monotonic()
    with pytest.raises(RunnerError, match="timed out"):
        runner.map("sleepy", _sleepy, [dict(seconds=60)])
    assert time.monotonic() - begun < 20  # never waited the full sleep
    task_row, = read_manifest(manifest_path, "task")
    assert task_row["status"] == "timeout" and task_row["attempts"] == 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_task_that_says_timed_out_is_failed_not_timeout(tmp_path, jobs):
    """The manifest status comes from ``TaskFailed.cause`` — how the last
    attempt ended — not from a substring of the task's own message."""
    manifest_path = tmp_path / "run.jsonl"
    runner = ExperimentRunner(jobs=jobs, retries=0, task_timeout=30,
                              manifest_path=str(manifest_path))
    with pytest.raises(RunnerError, match="timed out"):
        runner.map("flaky-net", _raises_timed_out, [dict()])
    task_row, = read_manifest(manifest_path, "task")
    assert task_row["status"] == "failed" and task_row["attempts"] == 1


def test_parallel_results_arrive_in_task_order():
    # Uneven task durations: completion order differs from task order.
    runner = ExperimentRunner(jobs=3)
    delays = [0.2, 0.0, 0.1, 0.05]
    out = runner.map("sleepy", _sleepy,
                     [dict(seconds=seconds) for seconds in delays])
    assert out == delays
    # Manifest-free run: reports list is still in completion order, but
    # every task is present exactly once.
    assert sorted(report.index for report in runner.reports) == [0, 1, 2, 3]


def test_trace_listener_sees_live_progress(tmp_path):
    for jobs in (1, 2):
        runner = ExperimentRunner(jobs=jobs, retries=1, backoff=0.01)
        seen = []
        runner.trace.subscribe(lambda record: seen.append(record))
        begun = time.monotonic()
        runner.map("exp", _raise_until,
                   [dict(counter_path=str(tmp_path / f"jobs{jobs}-{x}"),
                         value=x, attempts_needed=x) for x in (1, 2)])
        wall = time.monotonic() - begun
        kinds = [record.kind for record in seen]
        assert kinds[0] == "run_start"
        assert kinds.count("task_done") == 2
        assert kinds.count("task_start") == 3 and "task_retry" in kinds
        assert kinds[-1] == "run_end"
        # One time base: every row is stamped with seconds since the run
        # began, so the trace reads in order and ends inside the wall
        # clock (task_start / task_retry used to carry time.monotonic()).
        times = [record.time for record in seen]
        assert times == sorted(times)
        assert 0.0 <= times[0] and times[-1] <= wall
