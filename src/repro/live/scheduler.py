"""Real-time timer scheduling over asyncio.

:class:`LiveScheduler` implements the structural
:class:`repro.sim.timers.TimerScheduler` interface — ``now``, relative
one-shot ``schedule`` and ``reschedule_event`` (a cancel plus a new
``schedule``) — on top of ``loop.call_later``. Its :class:`LiveEvent`
handles are the protocol's timers, as the simulator's events are, so
all the SRM timer machinery runs unchanged in real time.

**The frozen clock.** ``now`` does not track the wall clock
continuously: it advances only at dispatch points (a timer firing, a
datagram arriving) and stays frozen while a callback runs. Every trace
record emitted from one callback therefore carries the same timestamp,
which preserves the timestamp-equality invariants the protocol oracles
rely on (e.g. a ``repair_cancelled`` justified by a ``recv_repair`` at
the *same* time). The sim's scheduler has this property by construction;
the live scheduler keeps it deliberately.

Events may be scheduled before the event loop exists (agents arm session
timers at join time): they are parked and armed when :meth:`start` runs,
and re-armed on a later start if the loop was stopped mid-flight.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Optional, Tuple

from repro.live.clock import WallClock


def _released(*args: Any) -> None:
    """The callback of a released event: it does nothing."""


class LiveEvent:
    """A handle for one scheduled callback: a protocol timer is one.

    ``time`` is the session time it fires at; ``pending`` is true from
    arming until it fires or is cancelled.
    """

    __slots__ = ("seq", "time", "callback", "args", "pending", "handle",
                 "_scheduler")

    def __init__(self, scheduler: "LiveScheduler", seq: int, time: float,
                 callback: Callable[..., Any],
                 args: Tuple[Any, ...]) -> None:
        self._scheduler = scheduler
        self.seq = seq
        self.time = time
        self.callback = callback
        self.args = args
        self.pending = True
        self.handle: Optional[asyncio.TimerHandle] = None

    def cancel(self) -> None:
        """Prevent the callback from running. Safe to call repeatedly."""
        self.pending = False
        if self.handle is not None:
            self.handle.cancel()
            self.handle = None
        self._scheduler._forget(self)

    def release(self) -> None:
        """Cancel for good, and drop the callback and its arguments."""
        self.cancel()
        self.callback = _released
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self.pending else "idle"
        return f"<LiveEvent #{self.seq} {state} time={self.time:.4f}>"


class LiveScheduler:
    """``TimerScheduler`` over an asyncio event loop and a wall clock."""

    def __init__(self, clock: Optional[WallClock] = None) -> None:
        self._clock = clock if clock is not None else WallClock()
        self._now = 0.0
        self._seq = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = False
        #: seq -> event, insertion-ordered (deterministic iteration).
        self._pending: Dict[int, LiveEvent] = {}
        #: Callbacks dispatched so far (observability / tests).
        self.fired = 0

    # ------------------------------------------------------------------
    # TimerScheduler interface
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Session time, frozen between dispatch points."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> LiveEvent:
        """Run ``callback(*args)`` ``delay`` seconds from now."""
        self._seq += 1
        time = self._now + max(0.0, delay)
        event = LiveEvent(self, self._seq, time, callback, args)
        self._pending[event.seq] = event
        if self._loop is not None:
            self._arm(event)
        return event

    def reschedule_event(self, event: LiveEvent,
                         delay: float) -> LiveEvent:
        """Cancel ``event`` and schedule its callback ``delay`` from now;
        the new handle replaces it."""
        event.cancel()
        return self.schedule(delay, event.callback, *event.args)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        """Bind the loop, zero the session clock, arm parked events."""
        self._loop = loop
        if not self._started:
            self._clock.restart()
            self._started = True
        for event in sorted(self._pending.values(),
                            key=lambda ev: (ev.time, ev.seq)):
            self._arm(event)

    def stop(self) -> None:
        """Unbind the loop; pending events stay parked for a restart."""
        for event in self._pending.values():
            if event.handle is not None:
                event.handle.cancel()
                event.handle = None
        self._loop = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    def advance(self) -> float:
        """Unfreeze: move ``now`` up to real elapsed session time.

        Called at every dispatch point (timer fire, datagram arrival)
        *before* the work runs. ``now`` never goes backwards.
        """
        if self._started:
            elapsed = self._clock.elapsed()
            if elapsed > self._now:
                self._now = elapsed
        return self._now

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def clock(self) -> WallClock:
        """The wall clock session time is measured against."""
        return self._clock

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _arm(self, event: LiveEvent) -> None:
        assert self._loop is not None
        if event.handle is not None:
            event.handle.cancel()
        remaining = max(0.0, event.time - self._clock.elapsed())
        event.handle = self._loop.call_later(remaining, self._fire, event)

    def _fire(self, event: LiveEvent) -> None:
        self._pending.pop(event.seq, None)
        event.handle = None
        if not event.pending:
            return
        self.advance()
        event.pending = False
        self.fired += 1
        event.callback(*event.args)

    def _forget(self, event: LiveEvent) -> None:
        self._pending.pop(event.seq, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LiveScheduler now={self._now:.4f} "
                f"pending={len(self._pending)}>")
