"""Rate-limited, priority-ordered transmission (Sections III-C, III-E).

The paper's congestion-control framework assumes "a fixed maximum
bandwidth allocation for each session ... individual members would use a
token bucket rate limiter to enforce this peak rate on transmissions",
with the application deciding the order of packet transmission: for wb,
"the highest priority goes to requests or repairs for the current page,
middle priority to new data, and lowest priority to requests or repairs
for previous pages".

:class:`TokenBucket` implements the limiter; :class:`TransmitQueue`
implements the priority queue draining through it. An
:class:`~repro.core.agent.SrmAgent` routes its sends through a
TransmitQueue when ``SrmConfig.rate_limit`` is set.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.sim.timers import ScheduledEvent, TimerScheduler

#: Send priorities (lower value drains first), per Section III-E.
PRIORITY_CURRENT_PAGE_CONTROL = 0
PRIORITY_NEW_DATA = 1
PRIORITY_OLD_PAGE_CONTROL = 2


class TokenBucket:
    """A token-bucket rate limiter.

    Tokens accrue at ``rate`` size-units per time-unit up to ``depth``;
    sending a packet of ``size`` consumes that many tokens. The bucket
    starts full, so an idle session can burst up to ``depth``.
    """

    def __init__(self, scheduler: TimerScheduler, rate: float,
                 depth: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        self._scheduler = scheduler
        self.rate = rate
        self.depth = depth
        self._tokens = depth
        self._updated_at = scheduler.now

    def _refill(self) -> None:
        now = self._scheduler.now
        self._tokens = min(self.depth,
                           self._tokens + (now - self._updated_at) * self.rate)
        self._updated_at = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def try_consume(self, size: float) -> bool:
        """Consume ``size`` tokens if available; False otherwise.

        A packet larger than the bucket depth could never accumulate
        enough tokens, so — as real token-bucket shapers do — it is
        charged the full bucket instead of waiting forever.
        """
        needed = min(size, self.depth)
        self._refill()
        if self._tokens + 1e-12 >= needed:
            self._tokens -= needed
            return True
        return False

    def time_until(self, size: float) -> float:
        """Time until enough tokens for ``size`` will have accrued."""
        self._refill()
        deficit = min(size, self.depth) - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate


@dataclass(order=True)
class _QueuedSend:
    priority: int
    seq: int
    size: float = field(compare=False)
    send: Callable[[], Any] = field(compare=False)


class TransmitQueue:
    """A priority send queue paced by a token bucket.

    ``submit(priority, size, send)`` either transmits immediately (tokens
    available and nothing of equal-or-higher priority waiting) or queues;
    queued sends drain in (priority, FIFO) order as tokens accrue.
    """

    def __init__(self, scheduler: TimerScheduler, rate: float,
                 depth: float) -> None:
        self.bucket = TokenBucket(scheduler, rate, depth)
        self._scheduler = scheduler
        self._heap: list[_QueuedSend] = []
        self._seq = itertools.count()
        #: The drain timer's event, made when the queue first waits.
        self._timer: Optional[ScheduledEvent] = None
        self.transmitted = 0
        self.queued_total = 0

    def __len__(self) -> int:
        return len(self._heap)

    def submit(self, priority: int, size: float,
               send: Callable[[], Any]) -> bool:
        """Hand a send to the pacer. Returns True if sent immediately."""
        if not self._heap and self.bucket.try_consume(size):
            send()
            self.transmitted += 1
            return True
        heapq.heappush(self._heap, _QueuedSend(
            priority=priority, seq=next(self._seq), size=size, send=send))
        self.queued_total += 1
        self._schedule_drain()
        return False

    def _schedule_drain(self) -> None:
        timer = self._timer
        if not self._heap or (timer is not None and timer.pending):
            return
        wait = self.bucket.time_until(self._heap[0].size)
        self._timer = self._scheduler.schedule(wait, self._drain)

    def _drain(self) -> None:
        while self._heap and self.bucket.try_consume(self._heap[0].size):
            entry = heapq.heappop(self._heap)
            entry.send()
            self.transmitted += 1
        self._schedule_drain()

    def close(self) -> None:
        """Drop what never went out and release the drain timer's event:
        queue and event, and the agent behind each queued send, are then
        no reference cycle. Counters stay readable."""
        self._heap.clear()
        if self._timer is not None:
            self._timer.release()

    def flush_stats(self) -> dict:
        return {"pending": len(self._heap),
                "transmitted": self.transmitted,
                "queued_total": self.queued_total}
