"""Cancellable, reschedulable timers on top of the event scheduler.

SRM's request and repair machinery is timer-heavy: timers are set from
random intervals, reset (backed off) when a duplicate request is heard,
and cancelled when a repair arrives. :class:`Timer` wraps that lifecycle
so protocol code never touches raw events.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional, Protocol, runtime_checkable


@runtime_checkable
class ScheduledEvent(Protocol):
    """A cancellable handle returned by a scheduler's ``schedule``."""

    __slots__ = ()

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once."""


@runtime_checkable
class TimerScheduler(Protocol):
    """The structural interface :class:`Timer` (and agents) need.

    A clock plus relative one-shot scheduling — satisfied by the
    discrete-event :class:`repro.sim.scheduler.EventScheduler` and by the
    real-time :class:`repro.live.scheduler.LiveScheduler`. Protocol code
    written against this interface runs unchanged on either engine.
    """

    __slots__ = ()

    @property
    def now(self) -> float:
        """Current time (simulated or session wall-clock seconds)."""
        ...

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> ScheduledEvent:
        """Run ``callback(*args)`` ``delay`` units from now."""
        ...


class TimerState(enum.Enum):
    """Lifecycle of a :class:`Timer`."""

    IDLE = "idle"          # never started, or consumed after firing
    PENDING = "pending"    # scheduled and waiting to fire
    FIRED = "fired"        # callback has run
    CANCELLED = "cancelled"


def _released() -> None:
    """The callback of a released timer: it does nothing."""


class Timer:
    """A one-shot timer that can be restarted, rescheduled and cancelled.

    The callback receives no arguments; bind context with a closure or a
    bound method. ``expiry`` is the absolute simulated time at which the
    timer will fire (or fired / was going to fire).
    """

    __slots__ = ("_scheduler", "_callback", "name", "_event", "_state",
                 "_resched", "expiry", "set_at")

    def __init__(self, scheduler: TimerScheduler,
                 callback: Callable[[], Any], name: str = "") -> None:
        self._scheduler = scheduler
        self._callback = callback
        self.name = name
        self._event: Optional[ScheduledEvent] = None
        self._state = TimerState.IDLE
        # Schedulers that can move a pending entry in place (the
        # simulator's EventScheduler; not the live engine's) expose
        # ``reschedule_event``; re-arming through it skips the cancel +
        # reallocate round trip. Resolved once per timer, by attribute
        # lookup: a member makes a timer per loss and per repair.
        try:
            resched = scheduler.reschedule_event  # type: ignore[attr-defined]
        except AttributeError:
            resched = None
        self._resched: Optional[Callable[..., ScheduledEvent]] = resched
        self.expiry: Optional[float] = None
        self.set_at: Optional[float] = None

    @property
    def state(self) -> TimerState:
        return self._state

    @property
    def pending(self) -> bool:
        return self._state is TimerState.PENDING

    def start(self, delay: float) -> None:
        """Start (or restart) the timer to fire ``delay`` from now."""
        scheduler = self._scheduler
        event = self._event
        if event is not None and self._state is TimerState.PENDING:
            resched = self._resched
            if resched is not None:
                self._event = resched(event, delay)
                now = scheduler.now
                self.set_at = now
                self.expiry = now + delay
                return  # still PENDING, now for the new expiry
            event.cancel()
        now = scheduler.now
        self.set_at = now
        self.expiry = now + delay
        self._event = scheduler.schedule(delay, self._fire)
        self._state = TimerState.PENDING

    def reschedule(self, delay: float) -> None:
        """Move a pending timer to fire ``delay`` from now.

        Unlike :meth:`start`, this preserves ``set_at`` (the time the
        timer was first armed), which SRM uses to measure request/repair
        delay across backoffs.
        """
        if self._state is not TimerState.PENDING:
            self.start(delay)
            return
        event = self._event
        assert event is not None
        scheduler = self._scheduler
        resched = self._resched
        if resched is not None:
            self._event = resched(event, delay)
        else:
            event.cancel()
            self._event = scheduler.schedule(delay, self._fire)
        self.expiry = scheduler.now + delay

    def cancel(self) -> None:
        """Cancel the timer if pending; otherwise a no-op."""
        if self._state is TimerState.PENDING:
            event = self._event
            if event is not None:
                event.cancel()
            self._state = TimerState.CANCELLED
        self._event = None

    def release(self) -> None:
        """Cancel for good, and forget the callback.

        A callback that reaches back to the timer's owner makes owner
        and timer one reference cycle; a released timer is no part of
        it, so reference counting frees both once the owner is dropped.
        Its state, ``expiry`` and ``set_at`` stay readable. (The body
        of :meth:`cancel` is inlined: a burst releases thousands.)
        """
        if self._state is TimerState.PENDING:
            event = self._event
            if event is not None:
                event.cancel()
            self._state = TimerState.CANCELLED
        self._event = None
        self._callback = _released

    def time_remaining(self) -> float:
        """Time until expiry; zero if not pending."""
        if self._state is not TimerState.PENDING or self.expiry is None:
            return 0.0
        return max(0.0, self.expiry - self._scheduler.now)

    def _fire(self) -> None:
        self._state = TimerState.FIRED
        self._event = None
        self._callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        # An unnamed timer (the agent's request and repair timers) is
        # labelled by its callback.
        label = self.name or getattr(self._callback, "__qualname__", "?")
        return f"<Timer {label!r} {self._state.value} expiry={self.expiry}>"
