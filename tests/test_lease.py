"""repro.runner.lease: the one task state machine, and its three transports.

Part one drives :class:`LeaseTable` with a hypothesis state machine —
several holders leasing, renewing, completing, failing (their own tasks
and other people's) while a clock advances and overdue leases are
reclaimed — and checks after every step what every transport relies
on. Part two runs one script through the serial runner, the ``--jobs``
pool and a fleet controller and demands the same attempts and the same
end state from all three: a task's own exception ends it on attempt 1
everywhere, and a lost holder (a crashed pool worker, an expired fleet
lease) hands its task to attempt 2.
"""

from __future__ import annotations

import json
import math
import time

import pytest
from conftest import examples
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from test_fleet import _specs
from test_runner import (
    _always_raises,
    _counter_case,
    _crash_until,
    _raise_until,
)

from repro.experiments.common import run_experiment
from repro.fleet.controller import FleetController
from repro.runner import ExperimentRunner, ResultCache, RunnerError
from repro.runner.lease import LeaseTable

HOLDERS = ("a", "b", "c")


class LeaseMachine(RuleBasedStateMachine):
    """Random holders against one table; the model is a few shadow sets."""

    @initialize(size=st.integers(1, 5), retries=st.integers(0, 3))
    def build(self, size, retries):
        self.table = LeaseTable(size, retries)
        self.now = 0.0
        self.completed = set()       # indices complete() said True for
        self.ended = {}              # index -> its Row, copied at its end

    def _snapshot(self, index):
        self.ended.setdefault(index, vars(self.table.rows[index]).copy())

    # -- rules ---------------------------------------------------------

    @rule(holder=st.sampled_from(HOLDERS),
          ttl=st.sampled_from([None, 1.0, 5.0]))
    def lease(self, holder, ttl):
        pending = [index for index, row in enumerate(self.table.rows)
                   if row.status == "pending"]
        index = self.table.lease(holder, self.now, ttl)
        # No waiting: the lowest pending task is always leasable.
        assert index == min(pending, default=None)
        if index is None:
            return
        row = self.table.rows[index]
        assert (row.status, row.holder) == ("leased", holder)
        assert row.deadline == (math.inf if ttl is None else self.now + ttl)

    @rule(holder=st.sampled_from(HOLDERS), ttl=st.sampled_from([1.0, 5.0]))
    def renew(self, holder, ttl):
        held = self.table.held(holder)
        self.table.renew(holder, self.now, ttl)
        assert all(self.table.rows[index].deadline == self.now + ttl
                   for index in held)

    @rule(data=st.data())
    def complete(self, data):
        index = data.draw(st.integers(0, len(self.table.rows) - 1))
        was = self.table.rows[index].status
        first = self.table.complete(index)
        assert first == (was in ("pending", "leased"))
        if first:
            assert index not in self.completed, "complete() True twice"
            self.completed.add(index)
            self._snapshot(index)

    @rule(data=st.data(), holder=st.sampled_from(HOLDERS),
          cause=st.sampled_from(["error", "crash"]))
    def fail(self, data, holder, cause):
        index = data.draw(st.integers(0, len(self.table.rows) - 1))
        row = self.table.rows[index]
        before = vars(row).copy()
        mine = row.status == "leased" and row.holder == holder
        again = self.table.fail(index, holder, "boom", cause)
        if not mine:
            assert vars(row) == before, "a stranger's report changed a row"
        elif cause == "error":
            # The task raised: final, whatever budget it had left.
            assert row.status == "failed" and not again
            self._snapshot(index)
        elif not again:
            assert row.status == "failed"
            assert row.attempts == self.table.retries + 1
            self._snapshot(index)
        else:
            assert row.status == "pending"
            assert row.attempts <= self.table.retries
        assert again == (row.status != "failed")

    @rule(step=st.sampled_from([0.1, 1.0, 3.0, 10.0]))
    def advance_and_expire(self, step):
        self.now += step
        for index, holder in self.table.overdue(self.now):
            row = self.table.rows[index]
            assert row.deadline <= self.now and row.holder == holder
            if not self.table.fail(index, holder, "lease expired",
                                   "timeout"):
                self._snapshot(index)
        assert self.table.overdue(self.now) == []

    # -- what must hold after every step -------------------------------

    @invariant()
    def no_task_has_two_holders(self):
        held = [index for holder in HOLDERS
                for index in self.table.held(holder)]
        assert len(held) == len(set(held))
        assert sorted(held) == [index for index, row
                                in enumerate(self.table.rows)
                                if row.status == "leased"]

    @invariant()
    def attempts_stay_within_budget(self):
        assert all(row.attempts <= self.table.retries + 1
                   for row in self.table.rows)

    @invariant()
    def ended_tasks_never_change_again(self):
        for index, frozen in self.ended.items():
            assert vars(self.table.rows[index]) == frozen

    @invariant()
    def failed_tasks_say_why(self):
        for row in self.table.rows:
            if row.status == "failed":
                assert row.reason and row.cause

    @invariant()
    def counts_and_state_agree_with_the_rows(self):
        counts = self.table.counts
        assert sum(counts.values()) == len(self.table.rows)
        assert self.table.state == (
            "failed" if counts["failed"] else
            "done" if counts["done"] == len(self.table.rows) else "running")

    def teardown(self):
        """Drain: with every rule's work played out, nothing is left
        pending or leased — each task is done, or failed with a cause."""
        if not hasattr(self, "table"):
            return
        for _ in range(10_000):
            counts = self.table.counts
            if not counts["pending"] and not counts["leased"]:
                break
            self.now += 1.0
            for index, holder in self.table.overdue(self.now):
                self.table.fail(index, holder, "lease expired", "timeout")
            index = self.table.lease("drain", self.now, 1.0)
            if index is not None and index % 2:
                assert self.table.complete(index)
            elif index is None:
                for holder in HOLDERS:   # leases with no deadline
                    for held in self.table.held(holder):
                        self.table.fail(held, holder, "gave up", "crash")
        for row in self.table.rows:
            assert row.status in ("done", "failed")
            assert row.status == "done" or (row.reason and row.cause)
            assert row.attempts <= self.table.retries + 1


TestLeaseTable = LeaseMachine.TestCase
TestLeaseTable.settings = settings(max_examples=examples(150),
                                   stateful_step_count=40)


# ----------------------------------------------------------------------
# One behaviour, three transports
# ----------------------------------------------------------------------

RETRIES = 1


def _through_the_runner(jobs, script, tmp_path):
    """``(state, attempts)`` of the one task, run by an ExperimentRunner."""
    runner = ExperimentRunner(jobs=jobs, retries=RETRIES)
    if script == "lost":
        runner.map("script", _crash_until,
                   [_counter_case(tmp_path / "count", value=1)])
    else:
        fn = _raise_until if script == "flaky" else _always_raises
        with pytest.raises(RunnerError):
            runner.map("script", fn, [_counter_case(tmp_path / "count")])
    report, = runner.reports
    return {"ok": "done"}.get(report.status, report.status), report.attempts


def _through_the_fleet(script, tmp_path):
    """The same script with this test standing in for the workers: an
    error is a worker's error report, a lost holder an expired lease."""
    controller = FleetController(cache=ResultCache(tmp_path / "cache"),
                                 lease_ttl=0.01 if script == "lost" else 60,
                                 retries=RETRIES)
    spec = _specs(1)[0]
    controller.submit({"experiment": "script", "env": {}, "salt": "",
                       "specs": [json.loads(spec.to_json())]})
    worker = controller.register_worker({})["worker"]
    attempts = 0
    while (task := controller.lease({"worker": worker})["task"]) is not None:
        attempts += 1
        if script == "lost" and attempts == 1:
            time.sleep(0.03)  # the worker dies; its lease expires
            continue
        report = {"worker": worker, "job": task["job"],
                  "index": task["index"]}
        if script == "lost":
            report["result"] = json.loads(run_experiment(spec).to_json())
        else:
            report["error"] = "ValueError: injected failure"
        controller.report(report)
    return controller.job_status("job-1")["state"], attempts


def _outcome(transport, script, tmp_path, admit_tasks):
    admit_tasks(_always_raises, _crash_until, _raise_until)
    if transport == "fleet":
        return _through_the_fleet(script, tmp_path)
    return _through_the_runner({"serial": 1, "pool": 2}[transport], script,
                               tmp_path)


@pytest.mark.parametrize("transport", ["serial", "pool", "fleet"])
@pytest.mark.parametrize("script, expected", [
    ("flaky", ("failed", 1)),    # errors once: a retry would pass
    ("poison", ("failed", 1)),   # errors every time
])
def test_one_script_three_transports(transport, script, expected, tmp_path,
                                     admit_tasks):
    """A task's own exception ends it on attempt 1 on every transport,
    with ``retries`` to spare."""
    assert _outcome(transport, script, tmp_path, admit_tasks) == expected


@pytest.mark.parametrize("transport", ["pool", "fleet"])
def test_a_lost_holder_is_re_leased_as_attempt_2(transport, tmp_path,
                                                 admit_tasks):
    """A crashed pool worker or an expired fleet lease spends one attempt,
    and the next lease finishes the task. (Serially the only holder is
    the process running the test: it cannot be lost and carry on.)"""
    assert _outcome(transport, "lost", tmp_path, admit_tasks) == ("done", 2)
