"""Unit tests for cancellable timers."""

from repro.sim.scheduler import EventScheduler
from repro.sim.timers import Timer, TimerState


def make():
    sched = EventScheduler()
    fired = []
    timer = Timer(sched, lambda: fired.append(sched.now), name="t")
    return sched, timer, fired


def test_timer_fires_at_expiry():
    sched, timer, fired = make()
    timer.start(4.0)
    assert timer.pending
    assert timer.expiry == 4.0
    sched.run()
    assert fired == [4.0]
    assert timer.state is TimerState.FIRED


def test_cancel_prevents_firing():
    sched, timer, fired = make()
    timer.start(4.0)
    timer.cancel()
    sched.run()
    assert fired == []
    assert timer.state is TimerState.CANCELLED


def test_cancel_unstarted_timer_is_noop():
    _, timer, _ = make()
    timer.cancel()
    assert timer.state is TimerState.IDLE


def test_restart_replaces_previous_schedule():
    sched, timer, fired = make()
    timer.start(4.0)
    timer.start(10.0)
    sched.run()
    assert fired == [10.0]


def test_reschedule_preserves_set_at():
    sched, timer, fired = make()
    timer.start(4.0)
    first_set = timer.set_at
    sched.run(until=2.0)
    timer.reschedule(8.0)
    assert timer.set_at == first_set
    assert timer.expiry == 10.0
    sched.run()
    assert fired == [10.0]


def test_reschedule_idle_timer_behaves_like_start():
    sched, timer, fired = make()
    timer.reschedule(3.0)
    sched.run()
    assert fired == [3.0]


def test_time_remaining():
    sched, timer, _ = make()
    timer.start(10.0)
    sched.run(until=4.0)
    assert timer.time_remaining() == 6.0
    timer.cancel()
    assert timer.time_remaining() == 0.0


def test_timer_can_be_restarted_after_firing():
    sched, timer, fired = make()
    timer.start(1.0)
    sched.run()
    timer.start(1.0)
    sched.run()
    assert fired == [1.0, 2.0]


def test_pending_property_tracks_state():
    sched, timer, _ = make()
    assert not timer.pending
    timer.start(1.0)
    assert timer.pending
    sched.run()
    assert not timer.pending


def test_release_cancels_and_forgets_the_callback():
    sched, timer, fired = make()
    timer.start(4.0)
    timer.release()
    assert timer.state is TimerState.CANCELLED and timer.expiry == 4.0
    timer.start(1.0)  # a released timer never calls back again
    sched.run()
    assert fired == [] and timer.state is TimerState.FIRED
    assert sched.pending() == 0


def test_clear_drops_pending_events_and_keeps_the_clock():
    sched, timer, fired = make()
    timer.start(4.0)
    sched.schedule(9.0, fired.append, "late")
    sched.run(until=2.0)
    sched.clear()
    assert sched.pending() == 0 and sched.now == 2.0
    timer.cancel()  # a late cancel of a dropped event is harmless
    assert sched.pending() == 0
    sched.run()
    assert fired == []
