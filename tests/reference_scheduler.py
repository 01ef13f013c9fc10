"""A deliberately naive scheduler: the (time, seq) contract, nothing else.

One list of pending events, next = ``min`` by ``(time, seq)``, cancel
removes the entry on the spot, every batch entry point loops over one
``_push``. Slow on purpose: it is only what ``EventScheduler`` is checked
against, through the ``scheduler=`` arguments of ``Network`` /
``TopologySpec.build`` / ``LossRecoverySimulation``. ``reschedule_event``
is literally a cancel plus a new ``schedule``: the calendar's in-place
move and revive must equal it.
"""

from operator import attrgetter

from repro.sim import perf
from repro.sim.scheduler import SimulationError

_KEY = attrgetter("time", "seq")


class ReferenceEvent:
    def __init__(self, time, seq, callback, args, sched):
        self.time, self.seq, self._sched = time, seq, sched
        self.callback, self.args = callback, args
        self.pending = True

    def cancel(self):
        if self.pending:
            self._sched._pending.remove(self)
            self._sched.perf.events_cancelled += 1
        self.pending = False

    def release(self):
        self.cancel()
        self.callback, self.args = None, ()


class ReferenceScheduler:
    def __init__(self):
        self.perf = perf.GLOBAL
        self._pending = []
        self._next_seq = 0
        self._running = False
        self._tie_permuter = None
        self.now = 0.0
        self.events_processed = 0

    def set_tie_permuter(self, permuter):
        self._tie_permuter = permuter

    def pending(self):
        return len(self._pending)

    def _push(self, time, callback, args):
        event = ReferenceEvent(time, self._next_seq, callback, args, self)
        self._next_seq += 1
        self._pending.append(event)
        self.perf.events_scheduled += 1
        return event

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} in the past")
        return self._push(self.now + delay, callback, args)

    def reschedule_event(self, event, delay):
        event.cancel()
        return self.schedule(delay, event.callback, *event.args)

    def schedule_at(self, time, callback, *args):
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < {self.now}")
        return self._push(time, callback, args)

    def schedule_many(self, delays, callback):
        return [self.schedule(delay, callback) for delay in delays]

    def run_plan(self, base, entries, deliver_run, arrivals):
        for (delay, _, run), arrival in zip(entries, arrivals):
            self._push(base + delay, deliver_run, (run, arrival))

    def _fire(self, event):
        self._pending.remove(event)
        event.pending = False
        self.now = event.time
        event.callback(*event.args)
        self.events_processed += 1
        self.perf.events_executed += 1

    def run(self, until=None, max_events=None):
        if self._running:
            raise SimulationError("scheduler is already running")
        self._running = True
        executed = 0
        try:
            while self._pending and executed != max_events:
                time = self.peek_time()
                if until is not None and time > until:
                    break
                # Same-instant group in seq order; later additions wait.
                batch = sorted((e.seq, e) for e in self._pending
                               if e.time == time)
                if len(batch) > 1 and self._tie_permuter is not None:
                    batch = self._tie_permuter(batch)
                for _, event in batch:
                    if executed == max_events:
                        break
                    if event.pending:
                        self._fire(event)
                        executed += 1
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
        return executed

    def step(self):
        if not self._pending:
            return False
        self._fire(min(self._pending, key=_KEY))
        return True

    def peek_time(self):
        return min(self._pending, key=_KEY).time if self._pending else None

    def clear(self):
        """Drop all pending events; the clock and counters stay."""
        if self._running:
            raise SimulationError("cannot clear a running scheduler")
        for event in self._pending:
            event.pending = False
        self._pending = []

    def reset(self):
        self.clear()
        self.now = 0.0
        self.events_processed = 0
