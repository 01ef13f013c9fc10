"""One live head event tracking the minimum of a timer-expiry array.

The agent engine arms one scheduler event per pending timer; the herd
keeps a whole wave of timers as a float64 expiry array (``inf`` = idle)
and arms exactly *one* event — at the array minimum. Handlers mutate the
array freely and call :meth:`resync`; when the head fires, every member
whose expiry equals the fire time (an exact float comparison — herd
expiries are built ``now + delay`` with the same one addition the agent
uses, so equal instants are bit-equal) is handed to the callback as one
tie batch, mirroring the event scheduler's same-instant draining.

Re-arming uses ``cancel()`` + ``schedule_at(absolute)`` rather than the
relative ``reschedule_event``: a relative re-arm recomputes ``now +
remaining`` and can drift a ulp away from the agent's expiry, which
would silently break the differential equivalence suite.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

import numpy as np

from repro.sim.scheduler import EventScheduler

FloatArray = Any
IntArray = Any


class HerdWave:
    """Bulk scheduler citizen: one head event over an expiry array."""

    __slots__ = ("label", "_scheduler", "_expiries", "_fire", "_event",
                 "_armed")

    def __init__(self, scheduler: EventScheduler, expiries: FloatArray,
                 fire: Callable[[IntArray], None], label: str = "") -> None:
        self.label = label
        self._scheduler = scheduler
        self._expiries = expiries
        self._fire = fire
        self._event: Optional[Any] = None
        self._armed = math.inf

    def resync(self) -> None:
        """Re-arm the head after any mutation of the expiry array."""
        head = float(np.min(self._expiries)) if self._expiries.size \
            else math.inf
        if head == self._armed:  # lint: ignore[SRM004] exact re-arm check
            return
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._armed = head
        if not math.isinf(head):
            self._event = self._scheduler.schedule_at(head, self._head_fire)

    def cancel(self) -> None:
        """Retire the wave (end of round)."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._armed = math.inf

    def release(self) -> None:
        """Retire the wave for good: cancel it and drop the callback,
        which is a bound method of the simulation that holds the wave."""
        self.cancel()
        self._fire = None  # type: ignore[assignment]

    def _head_fire(self) -> None:
        now = self._scheduler.now
        self._event = None
        self._armed = math.inf
        # Deliberate exact-instant tie batch (see module docstring).
        idx = np.flatnonzero(self._expiries == now)  # lint: ignore[SRM004]
        self._fire(idx)
        self.resync()
