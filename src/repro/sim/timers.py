"""What protocol timers need from a scheduler: the event handle is the timer.

SRM's request and repair machinery is timer-heavy: timers are set from
random intervals, reset (backed off) when a duplicate request is heard,
and cancelled when a repair arrives. A scheduler's event handle carries
that whole lifecycle, so protocol code holds the handle itself:

* ``event = scheduler.schedule(delay, owner.method, context)`` arms a
  timer; when it fires, ``owner.method(context)`` runs in one frame;
* ``event = scheduler.reschedule_event(event, delay)`` moves a pending
  timer, or re-arms a fired or cancelled one, with a fresh sequence
  number (callers always rebind the handle it returns);
* ``event.cancel()`` stops it, and ``event.pending`` tells whether it
  is still waiting to fire;
* ``event.release()`` cancels it for good and drops its callback, so a
  handle whose callback reaches back to its owner is no reference
  cycle once the owner lets go of it.

The discrete-event :class:`repro.sim.scheduler.EventScheduler` and the
real-time :class:`repro.live.scheduler.LiveScheduler` both satisfy
these protocols, so protocol code runs unchanged on either engine.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable


@runtime_checkable
class ScheduledEvent(Protocol):
    """A handle returned by a scheduler's ``schedule``: a one-shot timer.

    ``time`` is the absolute time it fires at (or fired, or was going
    to fire at). ``pending`` is a plain attribute, true from arming
    until it fires, is cancelled or its scheduler drops it.
    """

    time: float
    pending: bool

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once."""

    def release(self) -> None:
        """Cancel for good and drop the callback and its arguments."""


@runtime_checkable
class TimerScheduler(Protocol):
    """The structural interface agents need.

    A clock plus relative one-shot scheduling and re-arming — satisfied
    by the discrete-event :class:`repro.sim.scheduler.EventScheduler`
    and by the real-time :class:`repro.live.scheduler.LiveScheduler`.
    Protocol code written against this interface runs unchanged on
    either engine.
    """

    @property
    def now(self) -> float:
        """Current time (simulated or session wall-clock seconds)."""
        ...

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> ScheduledEvent:
        """Run ``callback(*args)`` ``delay`` units from now."""
        ...

    def reschedule_event(self, event: Any, delay: float) -> ScheduledEvent:
        """Fire ``event``'s callback ``delay`` units from now instead.

        Equal to ``event.cancel()`` and a new :meth:`schedule` of its
        callback and arguments (one fresh sequence number); the handle
        returned replaces ``event``.
        """
        ...
