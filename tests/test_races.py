"""The tie-order race detector: hooks, permutations, scenarios, CLI.

The determinism contract fixes the ``(time, seq)`` drain order; the
race detector checks the stronger invariant that protocol behavior is
*invariant* to same-instant drain order. These tests pin three things:

* the scheduler permutation hook preserves semantics (a permuted run
  fires the same events, and production agrees with the naive
  ``tests/reference_scheduler.py`` under the same permutation),
* the clean scenario suite is byte-identical under permuted replay
  while genuinely permuting tie batches (no vacuous pass), and
* the planted ``tie-order`` mutant — a shared-set leader election in
  the agent's request timer, planted here with ``monkeypatch`` — is
  caught in a clean scenario, with a usable trace diff.
"""

from __future__ import annotations

import pytest
from conftest import SCHEDULERS
from reference_scheduler import ReferenceScheduler

from repro.core.agent import SrmAgent
from repro.lint.cli import main as lint_main
from repro.lint.races import (
    SCENARIOS,
    TiePermutation,
    canonical_stream,
    check_races,
)
from repro.sim.scheduler import EventScheduler

CLEAN_NAMES = [scenario.name for scenario in SCENARIOS]


@pytest.fixture
def tie_order(monkeypatch):
    """Plant the ``tie-order`` mutant: request timers that expire at one
    instant elect a leader by a shared set's iteration order, and only
    the leader goes on. Who has joined the set when a timer fires
    depends on the drain order, so permuted replays diverge."""
    expired = SrmAgent._request_timer_expired
    elections = {}

    def elect_then_expire(self, context):
        claimed = elections.setdefault(
            (id(self._scheduler), self._scheduler.now), set())
        claimed.add(self.node_id)
        if next(iter(claimed)) == self.node_id:
            expired(self, context)

    monkeypatch.setattr(SrmAgent, "_request_timer_expired",
                        elect_then_expire)


# ----------------------------------------------------------------------
# Scheduler permutation hooks.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("make", SCHEDULERS.values(), ids=SCHEDULERS)
def test_permuter_reorders_ties_but_keeps_the_event_set(make):
    fired = []
    sched = make()
    for tag in ["a", "b", "c", "d"]:
        sched.schedule(1.0, fired.append, tag)
    sched.schedule(2.0, fired.append, "late")
    sched.set_tie_permuter(lambda batch: list(reversed(batch)))
    sched.run()
    assert fired == ["d", "c", "b", "a", "late"]


@pytest.mark.parametrize("make", SCHEDULERS.values(), ids=SCHEDULERS)
def test_permuted_callback_may_reschedule_and_cancel(make):
    fired = []
    sched = make()

    def arm_same_instant():
        fired.append("head")
        sched.schedule(0.0, fired.append, "follow-on")

    sched.schedule(1.0, arm_same_instant)
    handle = sched.schedule(1.0, fired.append, "doomed")
    sched.schedule(1.0, handle.cancel)
    sched.set_tie_permuter(lambda batch: list(reversed(batch)))
    sched.run()
    # The cancel member drains before "doomed" under reversal, and the
    # follow-on event (fresh seq) lands in the next batch — exactly the
    # contract semantics, just reordered within the instant.
    assert fired == ["head", "follow-on"]


def test_backends_agree_under_the_same_permutation():
    def run(make):
        fired = []
        sched = make()
        for rank in range(6):
            sched.schedule(1.0, fired.append, rank)
        sched.set_tie_permuter(TiePermutation(3))
        sched.run()
        return fired

    assert run(EventScheduler) == run(ReferenceScheduler)


def test_tie_permutation_is_seeded_and_counts_batches():
    batch = [(seq, object()) for seq in range(8)]
    one, two = TiePermutation(5), TiePermutation(5)
    assert one(list(batch)) == two(list(batch))
    assert one.batches == two.batches == 1
    assert sorted(one(list(batch))) == sorted(batch)
    # A different seed gives a different shuffle of 8 elements (the
    # LCG would have to collide across 8! orderings to fail this).
    assert TiePermutation(6)(list(batch)) != TiePermutation(5)(list(batch))


# ----------------------------------------------------------------------
# Clean scenarios: byte-identical replay, non-vacuous.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", CLEAN_NAMES)
def test_clean_scenario_is_drain_order_invariant(name):
    report = check_races([name], permutations=8)
    assert report.ok, report.format()
    assert report.permuted_batches > 0, \
        "vacuous pass: no tie batch was ever permuted"
    assert report.replays == 8


# ----------------------------------------------------------------------
# A planted tie-order bug: the detector must catch it.
# ----------------------------------------------------------------------


def test_injected_tie_order_bug_is_caught(tie_order):
    report = check_races(["figure5-small"], permutations=4)
    assert not report.ok
    assert report.findings[0].scenario == "figure5-small"
    excerpt = report.findings[0].excerpt
    assert "--- contract-order" in excerpt
    assert "+++ permuted-order" in excerpt
    assert any(line.startswith(("-t=", "+t=", "-==", "+=="))
               for line in excerpt.splitlines())


def test_unknown_injection_and_scenarios_raise():
    with pytest.raises(ValueError):
        check_races(["no-such-scenario"])
    with pytest.raises(ValueError):
        check_races(permutations=1)


# ----------------------------------------------------------------------
# Canonicalization.
# ----------------------------------------------------------------------


def test_canonical_stream_masks_volatile_uids_and_sorts_within_instant():
    from repro.sim.trace import TraceRecord

    records = [
        TraceRecord(2.0, 1, "drop", {"packet": 17, "link": (0, 1)}),
        TraceRecord(2.0, 0, "recv_data", {"repair": True}),
        TraceRecord(3.0, 0, "send_repair", {}),
    ]
    lines = canonical_stream(records)
    assert lines[0].startswith("t=2.0 node=0 recv_data")
    assert "packet=*" in lines[1]
    assert "packet=17" not in lines[1]
    assert lines[2].startswith("t=3.0")


# ----------------------------------------------------------------------
# CLI plumbing (exit codes are the race-smoke CI contract).
# ----------------------------------------------------------------------


def test_cli_clean_race_check_exits_zero(capsys):
    assert lint_main(["--races", "--race-scenarios", "figure3-small",
                      "--race-permutations", "4"]) == 0
    out = capsys.readouterr().out
    assert "0 divergence(s)" in out
    assert "tie batches permuted" in out


def test_cli_injected_canary_exits_nonzero_with_diff(tie_order, capsys):
    assert lint_main(["--races", "--race-scenarios", "figure5-small",
                      "--race-permutations", "4"]) == 1
    out = capsys.readouterr().out
    assert "RACE figure5-small" in out
    assert "+++ permuted-order" in out


def test_cli_unknown_scenario_is_usage_error():
    assert lint_main(["--races", "--race-scenarios", "nope"]) == 2
    # The per-backend selector left with the heap backend.
    with pytest.raises(SystemExit) as usage:
        lint_main(["--races", "--race-backends", "calendar"])
    assert usage.value.code == 2
    # Planted bugs live in the mutant catalog, not behind a flag.
    with pytest.raises(SystemExit) as usage:
        lint_main(["--inject", "tie-order"])
    assert usage.value.code == 2
