"""Event scheduler: the heart of the discrete-event kernel.

A simulation is a single scheduler plus callbacks. Events are ordered by
(time, sequence number) so that simultaneous events fire in the order
they were scheduled, which keeps runs exactly reproducible for a given
random seed.

:class:`EventScheduler` is a calendar queue (hierarchical time buckets)
purpose-built for SRM's timer-dominated workload: O(1) schedule,
**O(1) physical cancellation** (the entry is removed from its bucket
immediately via swap-remove, so the 90%+ of suppression timers that
never fire are never scanned, never compacted, never comparison-sorted),
and bucket width/count auto-resized from the live timer population.
Each entry is tagged with its integer bucket *day* at insert, so drain
eligibility is an exact integer compare — no float boundary arithmetic
that could reorder events.

It is the only scheduler in ``src/``. The (time, seq) contract is
checked against a deliberately naive list-and-``min`` implementation,
``tests/reference_scheduler.py``, injected through the ``scheduler=``
arguments of ``Network`` / ``TopologySpec.build`` /
``LossRecoverySimulation`` (``docs/performance.md`` records why the
binary-heap backend that used to live beside it was deleted).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.sim import perf

#: A same-instant tie batch as handed to a :data:`TiePermuter`: the
#: ``(seq, event)`` pairs of every pending event at one simulated
#: instant, in contract (seq-ascending) order.
TieBatch = List[Tuple[int, Any]]

#: Drain-order hook for the tie-order race detector
#: (``repro.lint.races``): receives a seq-sorted same-instant batch and
#: returns the order to actually fire it in. Production runs never
#: install one — the contract order *is* (time, seq) — the detector
#: uses it to replay a scenario under permuted drain orders and prove
#: the trace does not depend on them.
TiePermuter = Callable[[TieBatch], TieBatch]


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past, running twice, ...)."""


#: Smallest bucket count the scheduler will use; resizing never
#: shrinks below this, so tiny simulations skip resize churn entirely.
MIN_BUCKETS = 32

#: Resizing recomputes bucket width as ``2 * span / live`` so the live
#: population spreads ~2 entries per day and one calendar year covers the
#: whole span (bucket count stays within 2x of the live count). Clamped
#: so a degenerate span can never produce a zero/denormal width.
MIN_BUCKET_WIDTH = 1e-9

#: Bucket-count ceiling. Beyond this, average occupancy grows instead of
#: the table: a rebuild allocates ``nbuckets`` fresh lists and re-tags
#: every live event, so letting the table chase a 10^5+ event population
#: (e.g. a bulk pre-scheduled run) costs more in rebuild passes and
#: allocation than the slightly longer bucket scans it avoids.
MAX_BUCKETS = 1 << 16


def _released(*args: Any) -> None:
    """The callback of a released event: it does nothing."""


class Event:
    """A handle for a scheduled callback: a protocol timer is one.

    Events are made only by the scheduler (:meth:`EventScheduler.schedule`
    and its batch forms, by slot assignment) and may be
    moved or revived (:meth:`EventScheduler.reschedule_event`),
    cancelled and released. ``pending`` is true from arming until the
    event fires, is cancelled or :meth:`EventScheduler.clear` drops it.
    :meth:`cancel` *physically* removes the entry from its bucket in
    O(1) (swap with the bucket's last entry), so a cancelled timer
    costs nothing afterwards: it is never scanned on drain and there is
    no lazy-deletion debt to compact. ``_bucket`` is the bag the event
    was last put in; it is read only while the event is pending.
    """

    __slots__ = ("time", "seq", "callback", "args", "pending",
                 "_day", "_index", "_bucket", "_sched")

    time: float
    seq: int
    callback: Callable[..., Any]
    args: Tuple[Any, ...]
    pending: bool
    #: ``int(time * inv_width)`` under the owning scheduler's current
    #: width; drain eligibility is the exact compare ``_day == day``.
    _day: int
    _index: int
    _bucket: List["Event"]
    _sched: "EventScheduler"

    def cancel(self) -> None:
        """Remove the event from its bucket. Safe to call more than once."""
        if not self.pending:
            return  # fired, cancelled or dropped: nothing to undo
        self.pending = False
        bucket = self._bucket
        index = self._index
        last = bucket.pop()
        if last is not self:
            bucket[index] = last
            last._index = index
        sched = self._sched
        sched._live -= 1
        sched.perf.events_cancelled += 1

    def release(self) -> None:
        """Cancel for good, and drop the callback and its arguments.

        A callback that reaches back to the event's owner (a bound
        method, a context in ``args``) makes owner and event one
        reference cycle; a released event is no part of it, so
        reference counting frees both once the owner is dropped.
        ``time`` stays readable.
        """
        if self.pending:  # most released events are idle: no cancel frame
            self.cancel()
        self.callback = _released
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self.pending else "idle"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.4f} {name} {state}>"


class EventScheduler:
    """A discrete-event scheduler with a monotonic simulated clock.

    Typical use::

        sched = EventScheduler()
        sched.schedule(1.5, node.receive, packet)
        sched.run(until=100.0)

    A calendar queue: pending events live in ``nbuckets`` bucket lists
    indexed by ``day & (nbuckets - 1)`` where ``day = int(time / width)``.
    Buckets are unordered bags: schedule appends (O(1)), cancel
    swap-removes (O(1), physical), and draining min-scans the current
    day's bucket — with width sized so a day holds ~2 live entries, the
    scan is O(1) amortized. Bucket count grows with the live population
    and width is recomputed from the observed interval span at each resize
    (``bucket_resizes`` / ``bucket_scan_len`` perf counters track both).

    Execution order is exactly (time, seq): day tags are computed with
    the same monotonic ``int(time * inv_width)`` at insert and rebuild,
    so an earlier event can never land in a later day, and ties inside
    a day are broken by the scan's (time, seq) minimum.

    The bucket count only ever grows: SRM's schedule-a-burst-then-
    suppress-90% waves swing the live population 10x every round, and a
    shrink-on-drain policy would rebuild the calendar every wave. Memory
    is bounded by the peak live population; :meth:`reset` reclaims it.
    """

    __slots__ = ("now", "events_processed", "_buckets", "_nbuckets",
                 "_mask", "_width", "_inv_width", "_day", "_live",
                 "_gap_ewma", "_next_seq", "_running", "_tie_permuter",
                 "perf")

    def __init__(self) -> None:
        #: Current simulated time (plain attribute: this is the kernel's
        #: hottest read, via ``Agent.now``).
        self.now = 0.0
        self.events_processed = 0
        self._buckets: List[List[Event]] = [
            [] for _ in range(MIN_BUCKETS)]
        self._nbuckets = MIN_BUCKETS
        self._mask = MIN_BUCKETS - 1
        self._width = 1.0
        self._inv_width = 1.0
        self._day = 0
        self._live = 0
        #: EWMA of the gap between consecutive *executed* event times —
        #: the observed timer-interval distribution that width adaptation
        #: targets. 0.0 until the first run() samples it.
        self._gap_ewma = 0.0
        self._next_seq = 0
        self._running = False
        self._tie_permuter: Optional[TiePermuter] = None
        self.perf = perf.GLOBAL

    def set_tie_permuter(self, permuter: Optional[TiePermuter]) -> None:
        """Install (or clear) a same-instant drain-order hook.

        The drain already collects each same-instant group as
        one seq-sorted batch; with a permuter installed that batch fires
        in the hook's order instead. Only the race detector does this;
        ``None`` restores the contract order.
        """
        self._tie_permuter = permuter

    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events. O(1)."""
        return self._live

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` units from now.

        The insert body is duplicated with :meth:`schedule_at` (rather
        than shared through a helper) deliberately: these two are the
        kernel's hottest allocation sites and the extra frame shows up
        in every profile.
        """
        if delay < 0:
            raise SimulationError(
                f"cannot schedule {delay} units in the past (now={self.now})")
        time = self.now + delay
        seq = self._next_seq
        self._next_seq = seq + 1
        day = int(time * self._inv_width)
        event = object.__new__(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.pending = True
        event._day = day
        event._sched = self
        bucket = self._buckets[day & self._mask]
        event._index = len(bucket)
        event._bucket = bucket
        bucket.append(event)
        live = self._live + 1
        self._live = live
        if day < self._day:
            self._day = day  # the new event is now the earliest pending day
        self.perf.events_scheduled += 1
        if live > (self._nbuckets << 1) and self._nbuckets < MAX_BUCKETS:
            self._rebuild(min(self._nbuckets << 4, MAX_BUCKETS))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, clock already at {self.now}")
        seq = self._next_seq
        self._next_seq = seq + 1
        day = int(time * self._inv_width)
        event = object.__new__(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.pending = True
        event._day = day
        event._sched = self
        bucket = self._buckets[day & self._mask]
        event._index = len(bucket)
        event._bucket = bucket
        bucket.append(event)
        live = self._live + 1
        self._live = live
        if day < self._day:
            self._day = day  # the new event is now the earliest pending day
        self.perf.events_scheduled += 1
        if live > (self._nbuckets << 1) and self._nbuckets < MAX_BUCKETS:
            self._rebuild(min(self._nbuckets << 4, MAX_BUCKETS))
        return event

    def run_plan(self, base: float, entries: Tuple[Any, ...],
                 deliver_run: Callable[..., Any],
                 arrivals: List[Any]) -> None:
        """Schedule one delivery event per plan entry, in one frame.

        ``entries`` are (delay, hops, run) delivery-plan rows; each
        becomes an event at ``base + delay`` calling ``deliver_run`` with
        the row's run and the positionally matching packet from
        ``arrivals``. Equivalent to a :meth:`schedule_at` per row — same
        seq order, same counters.

        Events are built by direct slot assignment (``object.__new__``)
        rather than the ``Event`` constructor: this loop is the
        single biggest event producer in delivery-heavy runs and the
        ``__init__`` frame per event is a measurable share of it.
        """
        seq = self._next_seq
        inv = self._inv_width
        buckets = self._buckets
        mask = self._mask
        min_day = self._day
        count = 0
        new = object.__new__
        for (delay, _, run), arrival in zip(entries, arrivals):
            time = base + delay
            day = int(time * inv)
            event = new(Event)
            event.time = time
            event.seq = seq
            event.callback = deliver_run
            event.args = (run, arrival)
            event.pending = True
            event._day = day
            event._sched = self
            seq += 1
            bucket = buckets[day & mask]
            event._index = len(bucket)
            event._bucket = bucket
            bucket.append(event)
            if day < min_day:
                min_day = day
            count += 1
        self._next_seq = seq
        self._day = min_day
        live = self._live + count
        self._live = live
        self.perf.events_scheduled += count
        target_n = self._nbuckets
        while live > (target_n << 1) and target_n < MAX_BUCKETS:
            target_n <<= 4
        if target_n > MAX_BUCKETS:
            target_n = MAX_BUCKETS
        if target_n != self._nbuckets:
            self._rebuild(target_n)

    def reschedule_event(self, event: Event, delay: float) -> Event:
        """Move a pending event to fire ``delay`` from now, in place.

        Exactly equivalent to ``event.cancel()`` followed by
        :meth:`schedule` with the same callback — same perf counters,
        same fresh sequence number, same (time, seq) execution order —
        but the entry object is *moved* between bags (two O(1) list
        operations) instead of being discarded and reallocated. This is
        the backbone of SRM timer re-arming (backoff, suppression
        resets). A fired, cancelled or dropped handle is *revived* in
        place (fresh seq, no allocation) — the caller must therefore
        own the handle exclusively: a protocol timer's owner holds its
        event and nothing else does.
        """
        if delay < 0:
            raise SimulationError(
                f"cannot schedule {delay} units in the past (now={self.now})")
        if not event.pending:
            # Fired, cancelled or dropped by clear(): revive in place —
            # fresh seq, no allocation.
            seq = self._next_seq
            self._next_seq = seq + 1
            time = self.now + delay
            day = int(time * self._inv_width)
            event.time = time
            event.seq = seq
            event.pending = True
            event._day = day
            new_bucket = self._buckets[day & self._mask]
            event._index = len(new_bucket)
            event._bucket = new_bucket
            new_bucket.append(event)
            live = self._live + 1
            self._live = live
            if day < self._day:
                self._day = day
            self.perf.events_scheduled += 1
            if live > (self._nbuckets << 1) and self._nbuckets < MAX_BUCKETS:
                self._rebuild(min(self._nbuckets << 4, MAX_BUCKETS))
            return event
        bucket = event._bucket
        counters = self.perf
        counters.events_cancelled += 1
        counters.events_scheduled += 1
        seq = self._next_seq
        self._next_seq = seq + 1
        time = self.now + delay
        day = int(time * self._inv_width)
        event.time = time
        event.seq = seq
        new_bucket = self._buckets[day & self._mask]
        if new_bucket is not bucket:
            index = event._index
            last = bucket.pop()
            if last is not event:
                bucket[index] = last
                last._index = index
            event._index = len(new_bucket)
            event._bucket = new_bucket
            new_bucket.append(event)
        event._day = day
        if day < self._day:
            self._day = day
        return event

    def schedule_many(self, delays: List[float],
                      callback: Callable[[], Any]) -> List[Event]:
        """Arm one event per delay, in list order: one :meth:`schedule`
        call each, so a negative delay raises with the earlier entries
        armed and counted. No caller in ``src/``; the ledger's tracer
        keeps it as a span boundary."""
        return [self.schedule(delay, callback) for delay in delays]

    def _rebuild(self, nbuckets: int,
                 width: Optional[float] = None) -> None:
        """Re-bucket all live events into ``nbuckets`` buckets.

        Re-tags every entry's day, so the (time, seq) drain order is
        untouched by construction. With ``width``, that bucket width is
        adopted (the run loop's gap-driven adaptation); otherwise width
        is recomputed so a day holds ~2 live entries: from the observed
        inter-execution gap when one has been sampled, else from the
        live population's time span (see :data:`MIN_BUCKET_WIDTH`).
        """
        events = [ev for bucket in self._buckets for ev in bucket]
        live = len(events)
        if width is None:
            width = self._width
            gap = self._gap_ewma
            if gap > 0.0:
                width = gap * 2.0
            elif live >= 2:
                lo = hi = events[0].time
                for ev in events:
                    t = ev.time
                    if t < lo:
                        lo = t
                    elif t > hi:
                        hi = t
                span = hi - lo
                if span > 0.0:
                    width = 2.0 * span / live
        if width < MIN_BUCKET_WIDTH:
            width = MIN_BUCKET_WIDTH
        inv = 1.0 / width
        self._width = width
        self._inv_width = inv
        buckets: List[List[Event]]
        if nbuckets == self._nbuckets:
            # Width-only rebuild (the run loop's gap adaptation): reuse
            # the existing lists instead of allocating nbuckets fresh
            # ones. Only the run loop triggers this shape, and it
            # re-syncs its locals explicitly right after, so the bucket
            # identity staying the same is safe.
            buckets = self._buckets
            for b in buckets:
                if b:  # most buckets of a sparse calendar are empty
                    b.clear()
        else:
            buckets = [[] for _ in range(nbuckets)]
            self._buckets = buckets
        self._nbuckets = nbuckets
        mask = nbuckets - 1
        self._mask = mask
        min_day: Optional[int] = None
        for ev in events:
            day = int(ev.time * inv)
            ev._day = day
            b = buckets[day & mask]
            ev._index = len(b)
            ev._bucket = b
            b.append(ev)
            if min_day is None or day < min_day:
                min_day = day
        self._day = min_day if min_day is not None else int(self.now * inv)
        self.perf.bucket_resizes += 1

    def _min_day(self) -> int:
        """Day of the earliest pending event (full scan; wrap recovery)."""
        best: Optional[float] = None
        for bucket in self._buckets:
            for ev in bucket:
                t = ev.time
                if best is None or t < best:
                    best = t
        assert best is not None  # only called with _live > 0
        return int(best * self._inv_width)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run events in time order.

        Stops when no events remain, when the clock would pass ``until``
        (the clock is then advanced to exactly ``until``), or after
        ``max_events`` events. Returns the number of events executed by
        this call.
        """
        if self._running:
            raise SimulationError("scheduler is already running")
        self._running = True
        executed = 0
        scanned = 0
        counters = self.perf
        # The drain loop is inlined (no find-next helper per event) and
        # keeps the calendar geometry in locals; callbacks can
        # schedule (backing the day cursor up or growing the calendar)
        # and cancel (in-place), so the locals are re-synced after every
        # callback return.
        try:
            live = self._live
            buckets = self._buckets
            mask = self._mask
            nbuckets = self._nbuckets
            day = self._day
            misses = 0
            ewma = self._gap_ewma
            prev_time = self.now
            next_adapt = executed + 64
            permuter = self._tie_permuter
            # Hoist the None checks out of the per-event loop.
            until_t = float("inf") if until is None else until
            max_e = -1 if max_events is None else max_events
            while live:
                if executed == max_e:
                    break
                bucket = buckets[day & mask]
                best: Optional[Event] = None
                ties = 1
                if bucket:
                    best_time = 0.0
                    best_seq = 0
                    for ev in bucket:
                        if ev._day != day:
                            continue
                        t = ev.time
                        if best is None or t < best_time:
                            best = ev
                            best_time = t
                            best_seq = ev.seq
                            ties = 1
                        elif t == best_time:
                            ties += 1
                            if ev.seq < best_seq:
                                best = ev
                                best_seq = ev.seq
                if best is None:
                    day += 1
                    misses += 1
                    if misses >= nbuckets:
                        # A full wrap without a hit: the population is
                        # sparse relative to the year. If the observed
                        # event gap says days are far too narrow, widen;
                        # either way jump to the earliest occupied day.
                        if ewma > self._width * 2.0 and live >= 2:
                            self._rebuild(nbuckets, ewma * 2.0)
                            buckets = self._buckets
                            mask = self._mask
                            nbuckets = self._nbuckets
                        day = self._min_day()
                        misses = 0
                    continue
                misses = 0
                blen = len(bucket)
                scanned += blen
                if best_time > until_t:
                    self._day = day
                    break
                if ties > 1:
                    # Same-instant burst: a multicast fan-out delivers to
                    # every equidistant member at the exact same time, and
                    # min-scanning the bucket once per member costs
                    # O(k^2) for a k-way tie. Collect the whole tie group
                    # in one pass, sort by seq (C-speed: unique ints),
                    # and drain it without rescanning. Any event a
                    # callback schedules, revives, or re-arms gets a
                    # fresh, larger seq, so it sorts after every batch
                    # member and the normal drain picks it up — the seq
                    # guard below drops re-armed members from the batch
                    # for the same reason.
                    scanned += blen
                    batch = [(ev.seq, ev) for ev in bucket
                             if ev._day == day and ev.time == best_time]
                    batch.sort()
                    if permuter is not None:
                        # Race-detector hook: fire the tie group in a
                        # permuted order instead of seq order. The seq
                        # guard below is order-independent, so the batch
                        # mechanics need no other change.
                        batch = permuter(batch)
                    for seq, ev in batch:
                        if executed == max_e:
                            break
                        if not ev.pending or ev.seq != seq:
                            continue  # cancelled or re-armed mid-batch
                        tie_bucket = ev._bucket
                        index = ev._index
                        last = tie_bucket.pop()
                        if last is not ev:
                            tie_bucket[index] = last
                            last._index = index
                        ev.pending = False
                        self._live -= 1
                        self._day = ev._day
                        self.now = best_time
                        delta = best_time - prev_time - ewma
                        ewma += (delta * 0.25 if delta < 0.0
                                 else delta * 0.015625)
                        prev_time = best_time
                        ev.callback(*ev.args)
                        executed += 1
                    live = self._live
                    day = self._day
                    if buckets is not self._buckets:
                        buckets = self._buckets
                        mask = self._mask
                        nbuckets = self._nbuckets
                    continue
                index = best._index
                last = bucket.pop()
                if last is not best:
                    bucket[index] = last
                    last._index = index
                best.pending = False
                live -= 1
                self._live = live
                self._day = day
                self.now = best_time
                # Observed timer-interval distribution: asymmetric EWMA
                # of the gap between consecutive executions — fast to
                # shrink (1/4), slow to grow (1/64). Burst-then-idle
                # workloads (a multicast fan-out's cluster of arrivals,
                # then nothing until the next send) keep the estimate —
                # and hence the bucket width — sized for the *dense*
                # regime whose scans dominate, instead of letting the
                # occasional long gap drag it up.
                delta = best_time - prev_time - ewma
                ewma += delta * 0.25 if delta < 0.0 else delta * 0.015625
                prev_time = best_time
                best.callback(*best.args)
                executed += 1
                live = self._live
                day = self._day
                if buckets is not self._buckets:
                    buckets = self._buckets
                    mask = self._mask
                    nbuckets = self._nbuckets
                if blen >= 16 and executed >= next_adapt and live >= 64:
                    # Days are overcrowded (the min-scan just walked a
                    # 16+ entry bucket) and the observed gap says they
                    # are far too wide: adopt a gap-sized width. The 4x
                    # hysteresis and the cooldown keep same-instant
                    # bursts (which no width can separate) from
                    # thrashing rebuilds.
                    target = ewma * 2.0
                    if 0.0 < target < self._width * 0.25:
                        self._rebuild(nbuckets, target)
                        buckets = self._buckets
                        mask = self._mask
                        nbuckets = self._nbuckets
                        day = self._day
                        next_adapt = executed + 64 + (live >> 2)
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
            self._gap_ewma = ewma
            self.events_processed += executed
            counters.events_executed += executed
            counters.bucket_scan_len += scanned
        return executed

    def step(self) -> bool:
        """Execute the single next pending event. Returns False if none."""
        return self.run(max_events=1) == 1

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if none are pending.

        A full scan of the buckets: only tests and tools ask.
        """
        return min((ev.time for bucket in self._buckets for ev in bucket),
                   default=None)

    def clear(self) -> None:
        """Drop all pending events; the clock and counters stay.

        A pending event points back at its scheduler, so until dropped
        the scheduler and its events are one reference cycle
        (``Network.close`` clears a finished run's scheduler). A
        dropped event reads ``pending`` false, as a cancelled one does.
        """
        if self._running:
            raise SimulationError("cannot clear a running scheduler")
        if not self._live:
            return
        for bucket in self._buckets:
            for ev in bucket:
                ev.pending = False  # a late cancel then undoes nothing
            bucket.clear()
        self._live = 0

    def reset(self) -> None:
        """Drop all pending events, rewind the clock, reclaim buckets."""
        if self._running:
            raise SimulationError("cannot reset a running scheduler")
        self.clear()
        self._buckets = [[] for _ in range(MIN_BUCKETS)]
        self._nbuckets = MIN_BUCKETS
        self._mask = MIN_BUCKETS - 1
        self._width = 1.0
        self._inv_width = 1.0
        self._day = 0
        self._gap_ewma = 0.0
        self.now = 0.0
        self.events_processed = 0


# Kept only because benchmarks/ledger/child.py records it as provenance
# (a non-benchmark PR may not touch that directory).
def scheduler_backend() -> str:
    """The name of the only scheduler implementation."""
    return "calendar"


# Kept only because benchmarks/ledger/tracer.py resolves the scheduler
# class through it (a non-benchmark PR may not touch that directory).
def create_scheduler() -> EventScheduler:
    """A fresh :class:`EventScheduler`."""
    return EventScheduler()
