"""A protocol timer is its scheduler event: arm, move, cancel, release.

Owners hold the handle ``EventScheduler.schedule`` returns, move it
with ``reschedule_event`` (rebinding what it returns), stop it with
``cancel`` and let go of it with ``release``.
"""

import gc
import weakref

from repro.sim import perf
from repro.sim.scheduler import Event, EventScheduler


def make():
    sched = EventScheduler()
    fired = []
    return sched, fired, lambda: fired.append(sched.now)


def test_timer_fires_at_expiry():
    sched, fired, record = make()
    event = sched.schedule(4.0, record)
    assert event.pending
    assert event.time == 4.0
    sched.run()
    assert fired == [4.0]
    assert not event.pending


def test_cancel_prevents_firing():
    sched, fired, record = make()
    event = sched.schedule(4.0, record)
    event.cancel()
    sched.run()
    assert fired == [] and not event.pending and sched.pending() == 0


def test_cancel_unstarted_timer_is_noop():
    # Cancelling twice, or after the event fired, undoes nothing more:
    # the other pending event and the counters stay as they were.
    sched, fired, record = make()
    event = sched.schedule(4.0, record)
    other = sched.schedule(5.0, fired.append, "other")
    before = perf.GLOBAL.events_cancelled
    event.cancel()
    event.cancel()
    assert perf.GLOBAL.events_cancelled == before + 1
    assert sched.pending() == 1 and other.pending
    sched.run()
    other.cancel()
    assert perf.GLOBAL.events_cancelled == before + 1
    assert fired == ["other"] and sched.pending() == 0


def test_restart_replaces_previous_schedule():
    sched, fired, record = make()
    event = sched.schedule(4.0, record)
    moved = sched.reschedule_event(event, 10.0)
    assert moved is event and moved.pending and moved.time == 10.0
    assert sched.pending() == 1
    sched.run()
    assert fired == [10.0]


def test_reschedule_preserves_set_at():
    # An event keeps no arming time of its own: its owner does (a
    # request context's ``detected_at``), handed over as an argument
    # that a move carries along with the callback.
    sched, fired, _ = make()
    event = sched.schedule(4.0, lambda set_at: fired.append(
        (set_at, sched.now)), 0.0)
    sched.run(until=2.0)
    event = sched.reschedule_event(event, 8.0)
    assert event.time == 10.0 and event.args == (0.0,)
    sched.run()
    assert fired == [(0.0, 10.0)]


def test_reschedule_idle_timer_behaves_like_start():
    # A cancelled event is revived with a fresh sequence number: it
    # drains after an event armed for the same instant before it.
    sched, fired, _ = make()
    event = sched.schedule(1.0, fired.append, "revived")
    event.cancel()
    sched.schedule(3.0, fired.append, "first")
    event = sched.reschedule_event(event, 3.0)
    assert event.pending and sched.pending() == 2
    sched.run()
    assert fired == ["first", "revived"]


def test_time_remaining():
    sched, _, record = make()
    event = sched.schedule(10.0, record)
    sched.run(until=4.0)
    assert event.time - sched.now == 6.0
    event.cancel()
    assert not event.pending and event.time == 10.0


def test_timer_can_be_restarted_after_firing():
    # The session's way: the callback re-arms the event that fired it.
    sched, fired, _ = make()
    handles = []

    def tick():
        fired.append(sched.now)
        if len(fired) < 2:
            handles[0] = sched.reschedule_event(handles[0], 1.0)

    handles.append(sched.schedule(1.0, tick))
    sched.run()
    assert fired == [1.0, 2.0] and not handles[0].pending


def test_pending_property_tracks_state():
    # ``pending`` is a plain slot, not a property: reading it enters no
    # Python frame.
    assert "pending" in Event.__slots__
    sched, _, record = make()
    event = sched.schedule(1.0, record)
    assert event.pending
    sched.run()
    assert not event.pending
    event = sched.reschedule_event(event, 1.0)
    assert event.pending
    event.cancel()
    assert not event.pending


class Owner:
    """Holds its timer's event; the event calls back into it."""

    def __init__(self, sched):
        self.fired = 0
        self.timer = sched.schedule(4.0, self.expired, self)

    def expired(self, owner):
        self.fired += 1


def test_release_cancels_and_forgets_the_callback():
    sched, _, _ = make()
    owner = Owner(sched)
    event = owner.timer
    event.release()
    assert not event.pending and event.time == 4.0
    assert event.args == () and event.callback != owner.expired
    gone = weakref.ref(owner)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del owner
        assert gone() is None  # freed by reference counting alone
    finally:
        if enabled:
            gc.enable()
    event = sched.reschedule_event(event, 1.0)  # never calls back again
    sched.run()
    assert not event.pending and sched.pending() == 0


def test_clear_drops_pending_events_and_keeps_the_clock():
    sched, fired, record = make()
    event = sched.schedule(4.0, record)
    sched.schedule(9.0, fired.append, "late")
    sched.run(until=2.0)
    sched.clear()
    assert sched.pending() == 0 and sched.now == 2.0
    assert not event.pending  # the owner's pending test sees it gone
    event.cancel()  # a late cancel of a dropped event is harmless
    assert sched.pending() == 0
    sched.run()
    assert fired == []
