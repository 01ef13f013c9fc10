"""Contract tests for the discrete-event scheduler.

Every test runs against the production ``EventScheduler`` *and* the naive
``tests/reference_scheduler.py``: the (time, seq) execution order, the
error behavior and the clock/step/peek semantics are the contract, and
running the reference through the same tests keeps the reference honest.

(``conftest.SCHEDULERS`` explains the ``heap`` / ``calendar`` ids.)
"""

import pytest
from conftest import SCHEDULERS

from repro.sim.scheduler import SimulationError


@pytest.fixture(params=list(SCHEDULERS))
def sched(request):
    return SCHEDULERS[request.param]()


def test_events_run_in_time_order(sched):
    order = []
    sched.schedule(3.0, order.append, "c")
    sched.schedule(1.0, order.append, "a")
    sched.schedule(2.0, order.append, "b")
    sched.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_run_in_schedule_order(sched):
    order = []
    for label in "abcde":
        sched.schedule(5.0, order.append, label)
    sched.run()
    assert order == list("abcde")


def test_clock_advances_to_event_time(sched):
    seen = []
    sched.schedule(7.5, lambda: seen.append(sched.now))
    sched.run()
    assert seen == [7.5]
    assert sched.now == 7.5


def test_run_until_stops_before_later_events(sched):
    fired = []
    sched.schedule(1.0, fired.append, 1)
    sched.schedule(10.0, fired.append, 10)
    executed = sched.run(until=5.0)
    assert executed == 1
    assert fired == [1]
    assert sched.now == 5.0
    sched.run()
    assert fired == [1, 10]


def test_run_until_advances_clock_even_with_no_events(sched):
    sched.run(until=42.0)
    assert sched.now == 42.0


def test_cancelled_event_does_not_fire(sched):
    fired = []
    event = sched.schedule(1.0, fired.append, "x")
    event.cancel()
    sched.run()
    assert fired == []


def test_cancel_is_idempotent(sched):
    event = sched.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sched.run() == 0


def test_events_scheduled_during_run_are_executed(sched):
    order = []

    def first():
        order.append("first")
        sched.schedule(1.0, lambda: order.append("nested"))

    sched.schedule(1.0, first)
    sched.run()
    assert order == ["first", "nested"]


def test_scheduling_in_the_past_raises(sched):
    with pytest.raises(SimulationError):
        sched.schedule(-1.0, lambda: None)


def test_schedule_at_in_the_past_raises(sched):
    sched.schedule(5.0, lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.schedule_at(1.0, lambda: None)


def test_max_events_limits_execution(sched):
    fired = []
    for i in range(10):
        sched.schedule(float(i), fired.append, i)
    sched.run(max_events=3)
    assert fired == [0, 1, 2]


def test_max_events_limits_execution_within_a_tie(sched):
    # Simultaneous events exercise the calendar queue's tie-batch
    # drain; max_events must still stop mid-burst.
    fired = []
    for i in range(10):
        sched.schedule(1.0, fired.append, i)
    assert sched.run(max_events=4) == 4
    assert fired == [0, 1, 2, 3]
    sched.run()
    assert fired == list(range(10))


def test_step_executes_one_event(sched):
    fired = []
    sched.schedule(1.0, fired.append, "a")
    sched.schedule(2.0, fired.append, "b")
    assert sched.step() is True
    assert fired == ["a"]
    assert sched.step() is True
    assert sched.step() is False


def test_peek_time_skips_cancelled(sched):
    event = sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    event.cancel()
    assert sched.peek_time() == 2.0


def test_peek_time_empty_is_none(sched):
    assert sched.peek_time() is None


def test_reset_clears_everything(sched):
    sched.schedule(1.0, lambda: None)
    sched.run()
    sched.schedule(2.0, lambda: None)
    sched.reset()
    assert sched.now == 0.0
    assert sched.pending() == 0
    assert sched.peek_time() is None


def test_events_processed_counter(sched):
    for i in range(5):
        sched.schedule(float(i), lambda: None)
    sched.run()
    assert sched.events_processed == 5


def test_pending_counts_only_live_events(sched):
    keep = sched.schedule(1.0, lambda: None)
    drop = sched.schedule(2.0, lambda: None)
    drop.cancel()
    assert sched.pending() == 1
    keep.cancel()
    assert sched.pending() == 0


def test_reentrant_run_raises(sched):
    errors = []

    def reenter():
        try:
            sched.run()
        except SimulationError as exc:
            errors.append(exc)

    sched.schedule(1.0, reenter)
    sched.run()
    assert len(errors) == 1


def test_zero_delay_event_fires_at_current_time(sched):
    times = []
    sched.schedule(5.0, lambda: sched.schedule(
        0.0, lambda: times.append(sched.now)))
    sched.run()
    assert times == [5.0]


def test_event_scheduled_inside_a_tie_fires_after_the_tie(sched):
    # An event scheduled at the *same instant* from inside a
    # simultaneous burst gets a larger seq, so it fires after every
    # member of the burst (in production this is the tie-batch drain's
    # seq guarantee).
    order = []

    def second(label):
        order.append(label)

    def first(label):
        order.append(label)
        if label == "a":
            sched.schedule(0.0, second, "late")

    for label in "abc":
        sched.schedule(1.0, first, label)
    sched.run()
    assert order == ["a", "b", "c", "late"]


def test_cancel_inside_a_tie_suppresses_later_members(sched):
    # A burst member cancelling a simultaneous sibling (SRM suppression
    # at zero distance) must keep the sibling from firing.
    fired = []
    events = []

    def member(i):
        fired.append(i)
        if i == 0:
            events[2].cancel()

    for i in range(4):
        events.append(sched.schedule(1.0, member, i))
    sched.run()
    assert fired == [0, 1, 3]
