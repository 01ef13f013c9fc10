"""The herd: a struct-of-arrays SRM member engine for mega-sessions.

The agent engine (:mod:`repro.core.agent` over :mod:`repro.net`) keeps a
Python object per member, a scheduler event per pending timer and a
trace row per protocol action — perfect for figure-scale sessions,
hopeless for 10^5 members. :class:`HerdSimulation` simulates the *same*
protocol over the same unit-delay trees as array operations:

* member state lives in parallel numpy arrays indexed by membership
  position (the struct-of-arrays layout);
* each timer class (request, repair) is one :class:`HerdWave` — a single
  scheduler event armed at the array minimum, draining exact-tie batches
  the way the event scheduler drains same-instant events;
* multicast delivery is one :meth:`TreeIndex.dist_row` per send plus
  a stable radix sort, producing one scheduler event per distinct
  distance — the same per-distance merging the network layer performs;
* timer draws replay each member's :class:`RandomSource` fork from
  :class:`DrawPools`, so every draw is bit-identical to the draw the
  member's agent would have made, and all shared arithmetic lives in
  :mod:`repro.core.timer_math`.

Equivalence contract (enforced by ``tests/test_herd_equivalence.py``):
request/repair/suppression *counts* are exact against the agent engine,
per-member delays and ratios are exact, and trace-row order matches up
to same-instant batches from distinct senders (see ``docs/herd.md``).

The herd observes the way the agent engine does. Its :class:`Trace`
keeps nothing by default, so a row is built only for a kind someone
wants (``kind in trace.wanted``, the agent's emission guard) and every
other row is only counted in ``kind_totals``; a vectorized batch either
emits its rows in the agent's order or adds its counts in one step.
Each round's :class:`RunMetrics` bundle and :class:`LossEventReport`
are assembled from the arrays, whatever the trace keeps, so attaching
the check-mode oracles (which keep every row) never changes a result.
Check mode instead holds that bundle and report to the offline passes
over the rows.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core import timer_math
from repro.core.config import SrmConfig
from repro.core.names import DEFAULT_PAGE, AduName
from repro.experiments.common import (ROUND_EVENT_LIMIT, DropEdge,
                                      RoundOutcome, Scenario)
from repro.herd.rngpool import DEFAULT_DEPTH, DrawPools
from repro.herd.topo import TreeIndex
from repro.herd.wave import HerdWave
from repro.metrics.bundle import RunMetrics
from repro.metrics.collector import (TIMER_KINDS, MetricsConsistencyError,
                                     _perf_delta, _perf_snapshot,
                                     collect_from_trace)
from repro.metrics.events import (LossEventReport, MemberTiming,
                                  analyze_loss_event)
from repro.net.packet import DEFAULT_TTL
from repro.oracle.base import check_mode_enabled
from repro.sim.rng import RandomSource
from repro.sim.scheduler import EventScheduler
from repro.sim.trace import (DATA_RECOVERED, DUP_REPAIR_OBSERVED,
                             DUP_REQUEST_OBSERVED, FIRST_REQUEST_EVENT,
                             LOSS_DETECTED, RECOVERY_RESET, REPAIR_CANCELLED,
                             REPAIR_SCHEDULED, REQUEST_ABANDONED,
                             REQUEST_BACKOFF, REQUEST_DUP_IGNORED,
                             REQUEST_IGNORED_HOLDDOWN, REQUEST_TIMER_SET,
                             REQUEST_WHILE_REPAIR_PENDING, SEND_DATA,
                             SEND_REPAIR, SEND_REQUEST, Trace)

IntArray = Any
FloatArray = Any
BoolArray = Any

_EMPTY = np.empty(0, dtype=np.int64)

#: Round reports of sessions up to this size carry every member's
#: recovery and request-wait timings; larger sessions report counts
#: only, since 10^5 ``MemberTiming`` objects a round defeat the herd.
FULL_TRACE_THRESHOLD = 512

#: How a member's request wait ended (``first_request_event``'s ``via``),
#: indexed by the codes stored in ``_wait_via``.
_VIA = ("sent", "heard", "data")
_SENT, _HEARD, _DATA = range(3)

#: Config features the herd does not vectorize. Sessions needing them
#: use the agent engine; :class:`HerdSimulation` refuses loudly rather
#: than silently diverging.
_UNSUPPORTED = (
    ("adaptive", False), ("session_enabled", False),
    ("local_repair_mode", None), ("request_scope_zone", None),
    ("request_ttl", None), ("rate_limit", None), ("fec_block", None),
    ("adopt_streams", False), ("distance_oracle", True),
)


class HerdUnsupportedError(RuntimeError):
    """The scenario or config needs the full agent engine."""


class HerdSimulation:
    """Vectorized loss-recovery rounds, duck-typing the agent simulation.

    Drop-in for :class:`repro.experiments.common.LossRecoverySimulation`
    from :func:`run_experiment`'s point of view: same constructor shape,
    same ``run_round`` contract, same ``last_round_metrics`` bundle.
    """

    def __init__(self, scenario: Scenario,
                 config: Optional[SrmConfig] = None, seed: int = 0,
                 pool_depth: int = DEFAULT_DEPTH,
                 inject: Optional[str] = None,
                 scheduler: Optional[EventScheduler] = None) -> None:
        self.scenario = scenario
        self.config = config if config is not None else SrmConfig()
        self._reject_unsupported(self.config)
        self.master_rng = RandomSource(seed)
        self._inject = inject

        if scenario.source not in scenario.members:
            raise ValueError("scenario source is not a member")
        try:
            self._topo = TreeIndex(scenario.spec, scenario.source)
        except ValueError as exc:
            raise HerdUnsupportedError(str(exc)) from None
        members = list(scenario.members)
        count = len(members)
        self._nodes = np.asarray(members, dtype=np.int64)
        # Refuse an out-of-envelope drop edge now, not at the first round.
        self._cut(scenario.drop_edge)
        self.member_index: Dict[int, int] = {
            node: i for i, node in enumerate(members)}
        self._source = scenario.source
        self._source_i = self.member_index[scenario.source]
        self._dist_src = self._topo.dist_row_to(
            scenario.source, self._nodes).astype(np.float64)
        # Hoist the per-member LCA gathers out of the delivery hot path.
        self._topo.attach_targets(self._nodes)
        self._params = self.config.fixed_params(count)

        #: Same fork labels, same membership order, same master draws as
        #: LossRecoverySimulation's agent loop — member streams align.
        self._pools = DrawPools.from_master(self.master_rng, members,
                                            depth=pool_depth)

        self.scheduler = (scheduler if scheduler is not None
                          else EventScheduler())
        #: Keeps no row until someone asks (the oracles keep every row).
        self.trace = Trace(keep=())

        # ---- struct-of-arrays member state (membership-position index)
        shape = (count,)
        self._have = np.zeros(shape, dtype=bool)
        self._affected = np.zeros(shape, dtype=bool)
        # request context
        self._r_exists = np.zeros(shape, dtype=bool)
        self._r_done = np.zeros(shape, dtype=bool)
        self._r_expiry = np.full(shape, math.inf, dtype=np.float64)
        self._r_detected = np.zeros(shape, dtype=np.float64)
        self._r_backoff = np.zeros(shape, dtype=np.int64)
        self._r_ignore = np.full(shape, -math.inf, dtype=np.float64)
        self._r_rounds = np.zeros(shape, dtype=np.int64)
        self._r_observed = np.zeros(shape, dtype=np.int64)
        self._r_first = np.zeros(shape, dtype=bool)
        self._wait_at = np.zeros(shape, dtype=np.float64)
        self._wait_ratio = np.zeros(shape, dtype=np.float64)
        self._wait_via = np.zeros(shape, dtype=np.int8)
        self._wait_seq = np.zeros(shape, dtype=np.int64)
        # repair context
        self._p_exists = np.zeros(shape, dtype=bool)
        self._p_done = np.zeros(shape, dtype=bool)
        self._p_pending = np.zeros(shape, dtype=bool)
        self._p_expiry = np.full(shape, math.inf, dtype=np.float64)
        self._p_set_at = np.zeros(shape, dtype=np.float64)
        self._p_requester = np.zeros(shape, dtype=np.int64)
        self._p_observed = np.zeros(shape, dtype=np.int64)
        self._p_sent = np.zeros(shape, dtype=np.int64)
        # suppression / recovery bookkeeping
        self._holddown = np.full(shape, -math.inf, dtype=np.float64)
        self._rec_mask = np.zeros(shape, dtype=bool)
        self._rec_at = np.zeros(shape, dtype=np.float64)
        self._rec_ratio = np.zeros(shape, dtype=np.float64)
        self._rec_seq = np.zeros(shape, dtype=np.int64)
        #: Rows numbered in emission order: the ratio lists follow it.
        self._seq = 0

        #: The waves hold *references* to the expiry arrays; handlers
        #: mutate them in place and resync — never rebind.
        self._req_wave = HerdWave(self.scheduler, self._r_expiry,
                                  self._request_fire, label="request")
        self._rep_wave = HerdWave(self.scheduler, self._p_expiry,
                                  self._repair_fire, label="repair")

        #: Round-start baselines, taken by :meth:`_reset_round`.
        self._totals_before: Dict[str, int] = {}
        self._perf_before: Dict[str, Any] = {}
        self._payload_name: Optional[AduName] = None
        self._last_recovered = True

        self.rounds_run = 0
        self.last_round_metrics: Optional[RunMetrics] = None
        #: inject="tie-order" shared state: see :meth:`_tie_order_arrive`.
        self._tie_claims: set[int] = set()
        self.oracle = None
        if check_mode_enabled():
            from repro.herd.oracles import attach_herd_oracles
            self.oracle = attach_herd_oracles(self)

    # ------------------------------------------------------------------
    # Validation / views
    # ------------------------------------------------------------------

    @staticmethod
    def _reject_unsupported(config: SrmConfig) -> None:
        bad = [field for field, allowed in _UNSUPPORTED
               if getattr(config, field) != allowed]
        if bad:
            raise HerdUnsupportedError(
                "herd engine does not support config feature(s) "
                f"{', '.join(bad)}; use the agent engine")

    @property
    def full_trace(self) -> bool:
        """Whether round reports carry per-member timings (by size)."""
        return len(self._nodes) <= FULL_TRACE_THRESHOLD

    @property
    def session_size(self) -> int:
        return len(self._nodes)

    def node_distance(self, a: int, b: int) -> float:
        """One-way delay between any two nodes."""
        return self._topo.dist(a, b)

    def affected_members(self, drop_edge: Optional[DropEdge] = None
                         ) -> List[int]:
        """Members below the congested link (the agent engine's view)."""
        drop_edge = drop_edge if drop_edge is not None else \
            self.scenario.drop_edge
        below = self._topo.tree.cut(*drop_edge)
        return sorted(member for member in self.scenario.members
                      if member in below)

    def _cut(self, drop_edge: DropEdge) -> BoolArray:
        """Membership-position mask of the members below ``drop_edge``.

        Inside the herd's envelope only when the edge is a source-tree
        edge pointing away from the source.
        """
        try:
            below = self._topo.tree.cut(*drop_edge)
        except ValueError as exc:
            raise HerdUnsupportedError(str(exc)) from None
        return np.isin(self._nodes, np.fromiter(
            below, dtype=np.int64, count=len(below)))

    # ------------------------------------------------------------------
    # Trace plumbing
    # ------------------------------------------------------------------

    def _emit(self, node: int, kind: str, **detail: Any) -> None:
        """One protocol row, built only if its kind is wanted."""
        trace = self.trace
        if kind in trace.wanted:
            trace.record(self.scheduler.now, node, kind, detail)
        else:
            trace.kind_totals[kind] += 1

    def _rows_wanted(self, *batch: Tuple[str, int]) -> bool:
        """Whether a vectorized batch must emit its rows one by one.

        ``batch`` pairs each kind the batch emits with its row count.
        When none of the kinds is wanted the counts go straight into
        ``kind_totals`` and the caller skips its emission loop.
        """
        trace = self.trace
        if any(kind in trace.wanted for kind, _ in batch):
            return True
        totals = trace.kind_totals
        for kind, count in batch:
            if count:
                totals[kind] += count
        return False

    def _stamp(self, seqs: IntArray, positions: Any) -> None:
        """Number the rows ``positions`` emit now, in array order."""
        start = self._seq
        self._seq = start + len(positions)
        seqs[positions] = np.arange(start, self._seq)

    # ------------------------------------------------------------------
    # Multicast delivery
    # ------------------------------------------------------------------

    def _deliver(self, origin: int, handler: Any,
                 extra: Tuple[Any, ...] = (),
                 targets: Optional[IntArray] = None) -> None:
        """Schedule one arrival batch per distinct origin distance.

        Mirrors the network layer's per-distance delivery merging: each
        batch arrives ``d`` units after the send, members within a batch
        in membership order (the stable sort preserves position order
        within equal keys), batches scheduled in ascending distance so
        same-instant ties against other events resolve in the same
        sequence order as the agent engine's deliveries.
        """
        dists = self._topo.dist_row(origin)
        if targets is not None:
            dists = dists[targets]
        order = np.argsort(dists, kind="stable")
        ds = dists[order]
        start = int(np.searchsorted(ds, 1))  # drop the origin (d == 0)
        if start >= len(ds):
            return
        positions = order[start:]
        ds = ds[start:]
        cuts = np.flatnonzero(np.diff(ds)) + 1
        for segment in np.split(positions, cuts):
            delay = float(dists[segment[0]])
            batch = segment if targets is None else targets[segment]
            if self._inject == "tie-order":
                # Planted bug for the race-detector canary: split the
                # batch into one scheduler event per member, so the
                # same-instant arrivals become a permutable tie group
                # feeding the shared-set leader election below.
                for position in batch:
                    self.scheduler.schedule(
                        delay, self._tie_order_arrive, handler,
                        np.asarray([position]), delay, extra)
                continue
            self.scheduler.schedule(delay, handler, batch, delay, *extra)

    def _tie_order_arrive(self, handler: Any, idx: IntArray, delay: float,
                          extra: Tuple[Any, ...]) -> None:
        """Planted tie-order bug (``inject="tie-order"``; canary only).

        A timer callback that iterates mutable *shared* state — a plain
        unordered set — and lets its iteration order elect a leader:
        the leader's arrival is processed now, everyone else's is
        deferred by a tiny skew. Which members the set holds when a
        callback fires depends on same-instant drain order, so the
        trace diverges under permuted drains — exactly what
        ``repro lint --races --inject tie-order`` must catch.
        """
        tag = (int(idx[0]) * 2654435761) % 1021
        self._tie_claims.add(tag)
        leader = next(iter(self._tie_claims))  # lint: ignore[SRM002, SRM008]
        if leader == tag:
            handler(idx, delay, *extra)
        else:
            self.scheduler.schedule(1e-9, handler, idx, delay, *extra)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def _send_payload(self, name: AduName) -> None:
        self._have[self._source_i] = True
        self._emit(self._source, SEND_DATA, name=name)
        # The congested link eats this packet: members below the drop
        # edge never see a delivery for it.
        reached = np.flatnonzero(~self._affected)
        self._deliver(self._source, self._payload_arrive, targets=reached)

    def _payload_arrive(self, idx: IntArray, dist: float) -> None:
        self._have[idx] = True

    def _send_trigger(self, name: AduName) -> None:
        self._emit(self._source, SEND_DATA, name=name)
        self._deliver(self._source, self._trigger_arrive)

    def _trigger_arrive(self, idx: IntArray, dist: float) -> None:
        """Gap detection: the trigger reveals the missing payload."""
        detect = idx[~self._have[idx]]
        if detect.size == 0:
            return
        now = self.scheduler.now
        us = self._pools.take_many(detect)
        low, high = timer_math.request_delay_bounds_vec(
            self._dist_src[detect], self._params.c1, self._params.c2,
            self._r_backoff[detect], self.config.backoff_factor())
        delays = timer_math.draw_timers_vec(low, high, us)
        self._r_exists[detect] = True
        self._r_detected[detect] = now
        self._r_expiry[detect] = now + delays
        if self._rows_wanted((LOSS_DETECTED, detect.size),
                             (REQUEST_TIMER_SET, detect.size)):
            name = self._payload_name
            for k, i in enumerate(detect):
                node = int(self._nodes[i])
                self._emit(node, LOSS_DETECTED, name=name)
                self._emit(node, REQUEST_TIMER_SET, name=name,
                           delay=float(delays[k]), backoff=0,
                           ignore_until=None)
        self._req_wave.resync()

    # ------------------------------------------------------------------
    # Request wave
    # ------------------------------------------------------------------

    def _backoff_member(self, i: int, node: int) -> int:
        """Double (or, injected-buggy, fail to double) one timer."""
        if self._inject != "no-backoff":
            self._r_backoff[i] += 1
        count = int(self._r_backoff[i])
        low, high = timer_math.request_delay_bounds(
            float(self._dist_src[i]), self._params.c1, self._params.c2,
            count, self.config.backoff_factor())
        delay = timer_math.draw_timer(low, high, self._pools.take(i))
        now = self.scheduler.now
        self._r_expiry[i] = now + delay
        ignore: Optional[float] = None
        if self.config.ignore_backoff_enabled:
            ignore = timer_math.ignore_backoff_until(now, delay)
            self._r_ignore[i] = ignore
        else:
            self._r_ignore[i] = -math.inf
        self._emit(node, REQUEST_TIMER_SET, name=self._payload_name,
                   delay=delay, backoff=count, ignore_until=ignore)
        return count

    def _request_fire(self, idx: IntArray) -> None:
        now = self.scheduler.now
        name = self._payload_name
        for i in map(int, idx):
            if self._r_done[i] or not self._r_exists[i]:
                self._r_expiry[i] = math.inf
                continue
            node = int(self._nodes[i])
            if self._r_rounds[i] >= self.config.max_request_rounds:
                self._r_done[i] = True
                self._r_expiry[i] = math.inf
                self._emit(node, REQUEST_ABANDONED, name=name)
                continue
            self._r_rounds[i] += 1
            self._r_observed[i] += 1
            if not self._r_first[i]:
                self._r_first[i] = True
                delay = now - self._r_detected[i]
                rtt = 2.0 * float(self._dist_src[i])
                ratio = delay / rtt if rtt > 0 else 0.0
                self._wait_at[i] = now
                self._wait_ratio[i] = ratio
                self._wait_via[i] = _SENT
                self._stamp(self._wait_seq, [i])
                self._emit(node, FIRST_REQUEST_EVENT, name=name,
                           delay=delay, rtt=rtt, ratio=ratio, via="sent")
            self._emit(node, SEND_REQUEST, name=name,
                       round=int(self._r_rounds[i]), ttl=DEFAULT_TTL)
            # "multicasts a request ... and doubles the request timer".
            self._backoff_member(i, node)
            self._deliver(node, self._request_arrive, extra=(node,))
        # The wave's head-fire resyncs after this returns; the explicit
        # resync here covers calls landing through tie batches that
        # mutated other members' expiries.
        self._req_wave.resync()

    def _request_arrive(self, idx: IntArray, dist: float,
                        requester: int) -> None:
        """One request-arrival batch: suppression, backoff, repair."""
        now = self.scheduler.now
        name = self._payload_name
        have = self._have[idx]
        holders = idx[have]
        others = idx[~have]
        held = busy = fresh = _EMPTY
        if holders.size:
            # Agent order: hold-down first, then a pending repair timer,
            # then a fresh repair context (Section III-B).
            in_hold = now < self._holddown[holders]
            held = holders[in_hold]
            rest = holders[~in_hold]
            pending = self._p_pending[rest]
            busy = rest[pending]
            fresh = rest[~pending]
            if fresh.size:
                us = self._pools.take_many(fresh)
                # Every batch member sits at the same distance from the
                # requester (that is what defines the batch).
                low, high = timer_math.repair_delay_bounds(
                    dist, self._params.d1, self._params.d2)
                delays_p = timer_math.draw_timers_vec(low, high, us)
                self._p_exists[fresh] = True
                self._p_done[fresh] = False
                self._p_pending[fresh] = True
                self._p_observed[fresh] = 0
                self._p_set_at[fresh] = now
                self._p_requester[fresh] = requester
                self._p_expiry[fresh] = now + delays_p
                self._rep_wave.resync()

        go = stay = firsts = active = dups = _EMPTY
        if others.size:
            if not np.all(self._r_exists[others]):
                # Guarded impossible in supported scenarios: the trigger
                # reaches every affected member no later than any
                # request (triangle inequality), so detection precedes
                # request arrival and the context always exists.
                raise RuntimeError(
                    "herd member received a request before detecting "
                    "the loss; scenario outside the herd's invariants")
            active = others[~self._r_done[others]]
            if active.size:
                self._r_observed[active] += 1
                first_mask = ~self._r_first[active]
                firsts = active[first_mask]
                dups = active[~first_mask]
                if firsts.size:
                    self._r_first[firsts] = True
                    delays_w = now - self._r_detected[firsts]
                    rtts = 2.0 * self._dist_src[firsts]
                    ratios = np.divide(delays_w, rtts,
                                       out=np.zeros_like(delays_w),
                                       where=rtts > 0)
                    self._wait_at[firsts] = now
                    self._wait_ratio[firsts] = ratios
                    self._wait_via[firsts] = _HEARD
                    self._stamp(self._wait_seq, firsts)
                backoff_mask = now >= self._r_ignore[active]
                go = active[backoff_mask]
                stay = active[~backoff_mask]
                if go.size:
                    # Vectorized _backoff_member: same ops, elementwise.
                    if self._inject != "no-backoff":
                        self._r_backoff[go] += 1
                    counts = self._r_backoff[go]
                    us_b = self._pools.take_many(go)
                    low_b, high_b = timer_math.request_delay_bounds_vec(
                        self._dist_src[go], self._params.c1,
                        self._params.c2, counts,
                        self.config.backoff_factor())
                    delays_b = timer_math.draw_timers_vec(
                        low_b, high_b, us_b)
                    self._r_expiry[go] = now + delays_b
                    if self.config.ignore_backoff_enabled:
                        ignores = now + delays_b / 2.0
                        self._r_ignore[go] = ignores
                    else:
                        self._r_ignore[go] = -math.inf
                    self._req_wave.resync()

        if not self._rows_wanted(
                (REQUEST_IGNORED_HOLDDOWN, held.size),
                (REQUEST_WHILE_REPAIR_PENDING, busy.size),
                (REPAIR_SCHEDULED, fresh.size),
                (FIRST_REQUEST_EVENT, firsts.size),
                (DUP_REQUEST_OBSERVED, dups.size),
                (REQUEST_TIMER_SET, go.size), (REQUEST_BACKOFF, go.size),
                (REQUEST_DUP_IGNORED, stay.size)):
            return

        # Ordered emission, exactly the agent's per-member row sequence:
        # member position -> its rows, emitted in batch order.
        rows: Dict[int, List[Tuple[str, Dict[str, Any]]]] = {}

        def plan(member: int, kind: str, **detail: Any) -> None:
            rows.setdefault(member, []).append((kind, detail))

        for position in map(int, held):
            plan(position, REQUEST_IGNORED_HOLDDOWN, name=name)
        for position in map(int, busy):
            plan(position, REQUEST_WHILE_REPAIR_PENDING, name=name)
        for position in map(int, fresh):
            plan(position, REPAIR_SCHEDULED, name=name,
                 requester=requester)
        for k, position in enumerate(map(int, firsts)):
            plan(position, FIRST_REQUEST_EVENT, name=name,
                 delay=float(delays_w[k]), rtt=float(rtts[k]),
                 ratio=float(ratios[k]), via="heard")
        for position in map(int, dups):
            plan(position, DUP_REQUEST_OBSERVED, name=name,
                 requester=requester)
        ignore_on = self.config.ignore_backoff_enabled
        for k, position in enumerate(map(int, go)):
            plan(position, REQUEST_TIMER_SET, name=name,
                 delay=float(delays_b[k]),
                 backoff=int(counts[k]),
                 ignore_until=float(ignores[k]) if ignore_on else None)
            plan(position, REQUEST_BACKOFF, name=name,
                 count=int(counts[k]))
        for position in map(int, stay):
            plan(position, REQUEST_DUP_IGNORED, name=name)
        for position in map(int, idx):
            planned = rows.get(position)
            if planned:
                node = int(self._nodes[position])
                for kind, detail in planned:
                    self._emit(node, kind, **detail)

    # ------------------------------------------------------------------
    # Repair wave
    # ------------------------------------------------------------------

    def _repair_fire(self, idx: IntArray) -> None:
        now = self.scheduler.now
        name = self._payload_name
        for i in map(int, idx):
            if self._p_done[i] or not self._p_exists[i] \
                    or not self._have[i]:
                self._p_expiry[i] = math.inf
                self._p_pending[i] = False
                continue
            node = int(self._nodes[i])
            requester = int(self._p_requester[i])
            self._p_pending[i] = False
            self._p_done[i] = True
            self._p_expiry[i] = math.inf
            self._p_sent[i] += 1
            self._p_observed[i] += 1  # our own repair; never a dup row
            rtt = 2.0 * self._topo.dist(node, requester)
            delay = now - self._p_set_at[i]
            ratio = delay / rtt if rtt > 0 else 0.0
            self._emit(node, SEND_REPAIR, name=name, two_step=False,
                       delay=delay, ratio=ratio, answering=requester)
            anchor = self._source if requester == node else requester
            self._holddown[i] = timer_math.holddown_until(
                now, self._topo.dist(node, anchor),
                self.config.holddown_factor)
            self._deliver(node, self._repair_arrive,
                          extra=(node, requester))
        self._rep_wave.resync()

    def _repair_arrive(self, idx: IntArray, dist: float, replier: int,
                       answering: int) -> None:
        """One repair-arrival batch: cancel, recover, hold down."""
        now = self.scheduler.now
        name = self._payload_name

        contexts = idx[self._p_exists[idx]]
        cancel = np.empty(0, dtype=np.int64)
        dup = np.empty(0, dtype=np.int64)
        if contexts.size:
            cancel = contexts[~self._p_done[contexts]
                              & self._p_pending[contexts]]
            if cancel.size:
                self._p_pending[cancel] = False
                self._p_done[cancel] = True
                self._p_expiry[cancel] = math.inf
                self._rep_wave.resync()
            self._p_observed[contexts] += 1
            dup = contexts[self._p_observed[contexts] >= 2]

        recovering = idx[~self._have[idx]]
        active = np.empty(0, dtype=np.int64)
        firsts = np.empty(0, dtype=np.int64)
        if recovering.size:
            if not np.all(self._r_exists[recovering]):
                raise RuntimeError(
                    "herd member received a repair before detecting "
                    "the loss; scenario outside the herd's invariants")
            active = recovering[~self._r_done[recovering]]
            if active.size:
                self._r_done[active] = True
                self._r_expiry[active] = math.inf
                delays = now - self._r_detected[active]
                rtts = 2.0 * self._dist_src[active]
                ratios = np.divide(delays, rtts,
                                   out=np.zeros_like(delays),
                                   where=rtts > 0)
                self._rec_mask[active] = True
                self._rec_at[active] = now
                self._rec_ratio[active] = ratios
                self._stamp(self._rec_seq, active)
                first_mask = ~self._r_first[active]
                firsts = active[first_mask]
                if firsts.size:
                    self._r_first[firsts] = True
                    self._wait_at[firsts] = now
                    self._wait_ratio[firsts] = ratios[first_mask]
                    self._wait_via[firsts] = _DATA
                    self._stamp(self._wait_seq, firsts)
                self._req_wave.resync()
            self._have[recovering] = True

        # Receiving a repair starts the 3*d hold-down for *everyone* —
        # recovered and already-holding members alike — anchored at the
        # member the repair answers (the source, for that member itself).
        anchor_dist = self._topo.dist_row(answering)[idx].astype(np.float64)
        self_mask = self._nodes[idx] == answering
        anchor_dist[self_mask] = self._dist_src[idx[self_mask]]
        self._holddown[idx] = now + \
            self.config.holddown_factor * anchor_dist

        if not self._rows_wanted((REPAIR_CANCELLED, cancel.size),
                                 (DUP_REPAIR_OBSERVED, dup.size),
                                 (FIRST_REQUEST_EVENT, firsts.size),
                                 (DATA_RECOVERED, active.size)):
            return
        cancel_set = set(map(int, cancel))
        dup_set = set(map(int, dup))
        active_set = set(map(int, active))
        first_set = set(map(int, firsts))
        ratio_at = {int(position): k
                    for k, position in enumerate(active)}
        for position in map(int, idx):
            node = int(self._nodes[position])
            if position in cancel_set:
                self._emit(node, REPAIR_CANCELLED, name=name)
            if position in dup_set:
                self._emit(node, DUP_REPAIR_OBSERVED, name=name,
                           replier=replier)
            if position in active_set:
                k = ratio_at[position]
                if position in first_set:
                    self._emit(node, FIRST_REQUEST_EVENT, name=name,
                               delay=float(delays[k]),
                               rtt=float(rtts[k]),
                               ratio=float(ratios[k]), via="data")
                self._emit(node, DATA_RECOVERED, name=name,
                           delay=float(delays[k]), rtt=float(rtts[k]),
                           ratio=float(ratios[k]), via="repair")

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------

    def _reset_round(self, affected: BoolArray) -> None:
        # Baselines first: the bundle's timers and kernel are deltas.
        self._totals_before = dict(self.trace.kind_totals)
        self._perf_before = _perf_snapshot()
        self._have.fill(False)
        self._affected[:] = affected
        self._r_exists.fill(False)
        self._r_done.fill(False)
        self._r_expiry.fill(math.inf)
        self._r_detected.fill(0.0)
        self._r_backoff.fill(0)
        self._r_ignore.fill(-math.inf)
        self._r_rounds.fill(0)
        self._r_observed.fill(0)
        self._r_first.fill(False)
        self._wait_at.fill(0.0)
        self._wait_ratio.fill(0.0)
        self._p_exists.fill(False)
        self._p_done.fill(False)
        self._p_pending.fill(False)
        self._p_expiry.fill(math.inf)
        self._p_set_at.fill(0.0)
        self._p_requester.fill(0)
        self._p_observed.fill(0)
        self._p_sent.fill(0)
        self._holddown.fill(-math.inf)
        self._rec_mask.fill(False)
        self._rec_at.fill(0.0)
        self._rec_ratio.fill(0.0)
        self._req_wave.cancel()
        self._rep_wave.cancel()

    def run_round(self, drop_edge: Optional[DropEdge] = None,
                  trigger_gap: float = 1.0) -> RoundOutcome:
        """Drop one packet, run recovery to quiescence, return metrics."""
        scenario = self.scenario
        drop_edge = drop_edge if drop_edge is not None else \
            scenario.drop_edge
        if trigger_gap <= 0:
            raise HerdUnsupportedError(
                "herd rounds need trigger_gap > 0 (detection must "
                "precede request arrivals)")
        if not self._last_recovered:
            raise HerdUnsupportedError(
                "previous herd round left members unrecovered; "
                "carry-over loss state needs the agent engine")
        affected = self._cut(drop_edge)

        self.trace.clear()
        self._tie_claims.clear()
        self._reset_round(affected)
        if self._rows_wanted((RECOVERY_RESET, len(scenario.members))):
            for node in scenario.members:
                self._emit(node, RECOVERY_RESET)
        if self.oracle is not None:
            self.oracle.reset()

        name = AduName(source=scenario.source, page=DEFAULT_PAGE,
                       seq=2 * self.rounds_run + 1)
        trigger = AduName(source=scenario.source, page=DEFAULT_PAGE,
                         seq=2 * self.rounds_run + 2)
        self._payload_name = name
        self.scheduler.schedule(0.0, self._send_payload, name)
        self.scheduler.schedule(trigger_gap, self._send_trigger, trigger)
        self.scheduler.run(max_events=ROUND_EVENT_LIMIT)
        self.rounds_run += 1
        report = self._report(name)
        self.last_round_metrics = bundle = self._bundle(report)
        if self.oracle is not None:
            self.oracle.verify(context=f"round {self.rounds_run}")
            self._check_round(report, bundle)
        return self._outcome(report)

    # ------------------------------------------------------------------
    # The round's report, bundle and outcome, all read off the arrays
    # ------------------------------------------------------------------

    def _emitted(self, mask: BoolArray, seqs: IntArray) -> IntArray:
        """Positions set in ``mask``, in the order their rows were emitted."""
        positions = np.flatnonzero(mask)
        return positions[np.argsort(seqs[positions], kind="stable")]

    def _timings(self, positions: IntArray, ats: FloatArray,
                 ratios: FloatArray, vias: List[str]
                 ) -> Dict[int, MemberTiming]:
        """Member timings as the rows carry them (delay since detection)."""
        return {
            node: MemberTiming(member=node, delay=at - detected,
                               rtt=2.0 * dist, ratio=ratio, at=at, via=via)
            for node, at, detected, dist, ratio, via in zip(
                self._nodes[positions].tolist(), ats[positions].tolist(),
                self._r_detected[positions].tolist(),
                self._dist_src[positions].tolist(),
                ratios[positions].tolist(), vias)}

    def _report(self, name: AduName) -> LossEventReport:
        """This round's loss-event report.

        Counts always; up to :data:`FULL_TRACE_THRESHOLD` members also
        every member's recovery and request-wait timing, in emission
        order. Equal to ``analyze_loss_event`` over the round's rows.
        """
        report = LossEventReport(
            name=name, requests=int(self._r_rounds.sum()),
            repairs=int(self._p_sent.sum()),
            losses_detected=int(np.count_nonzero(self._r_exists)))
        if self.full_trace:
            rec = self._emitted(self._rec_mask, self._rec_seq)
            report.recoveries = self._timings(
                rec, self._rec_at, self._rec_ratio, ["repair"] * rec.size)
            waited = self._emitted(self._r_first, self._wait_seq)
            report.request_waits = self._timings(
                waited, self._wait_at, self._wait_ratio,
                [_VIA[code] for code in self._wait_via[waited].tolist()])
        return report

    def _last_member_ratio(self) -> Optional[float]:
        """Ratio of the last member to recover, by (time, node id)."""
        rec = np.flatnonzero(self._rec_mask)
        if not rec.size:
            return None
        order = np.lexsort((self._nodes[rec], self._rec_at[rec]))
        return float(self._rec_ratio[rec[order[-1]]])

    def _bundle(self, report: LossEventReport) -> RunMetrics:
        """This round's bundle, as a collector on its rows would build it.

        Ratio lists in row-emission order, timer activity the movement
        of ``kind_totals`` since the round began, and one control tally
        per member that sent a request or a repair.
        """
        bundle = RunMetrics(rounds=1)
        # Every event row follows a loss detection (the arrival handlers
        # refuse anything else), so detection alone opens the event.
        if report.losses_detected:
            rec = self._emitted(self._rec_mask, self._rec_seq)
            waited = self._emitted(self._r_first, self._wait_seq)
            last = self._last_member_ratio()
            bundle.loss_events = 1
            bundle.requests = report.requests
            bundle.repairs = report.repairs
            bundle.duplicate_requests = report.duplicate_requests
            bundle.duplicate_repairs = report.duplicate_repairs
            bundle.losses_detected = report.losses_detected
            bundle.recoveries = int(rec.size)
            bundle.recovery_ratios.extend(self._rec_ratio[rec].tolist())
            bundle.request_ratios.extend(self._wait_ratio[waited].tolist())
            if last is not None:
                bundle.last_member_ratios.append(last)
            bundle.events.append({
                "name": str(report.name),
                "requests": report.requests,
                "repairs": report.repairs,
                "second_step_repairs": 0,
                "duplicate_requests": report.duplicate_requests,
                "duplicate_repairs": report.duplicate_repairs,
                "losses_detected": report.losses_detected,
                "recoveries": int(rec.size),
                "last_member_ratio": last,
            })
        totals, before = self.trace.kind_totals, self._totals_before
        for kind in sorted(TIMER_KINDS):
            moved = totals.get(kind, 0) - before.get(kind, 0)
            if moved:
                bundle.timers[kind] = moved
        sent = self._r_rounds + self._p_sent
        senders = np.flatnonzero(sent)
        control = dict(zip(self._nodes[senders].tolist(),
                           sent[senders].tolist()))
        bundle.control_packets = {
            str(node): count
            for node, count in sorted(control.items(), key=str)}
        bundle.control_bytes = \
            sum(control.values()) * self.config.control_packet_size
        bundle.kernel = _perf_delta(self._perf_before, _perf_snapshot())
        return bundle

    def _check_round(self, report: LossEventReport,
                     bundle: RunMetrics) -> None:
        """Check mode: hold the array-built report and bundle to the rows.

        Raises :class:`MetricsConsistencyError` where they differ from
        ``analyze_loss_event`` / ``collect_from_trace`` over the round's
        rows. Like the oracles, it checks only a trace that keeps every
        row. The ``kernel`` section is the run's own counter delta and is
        not compared.
        """
        if self.trace.keep is not None:
            return
        offline = analyze_loss_event(self.trace, report.name)
        if not self.full_trace:
            offline.recoveries.clear()
            offline.request_waits.clear()
        replayed = collect_from_trace(
            self.trace, control_packet_size=self.config.control_packet_size)
        replayed.kernel = bundle.kernel
        diverged = [
            f"{label}.{spec.name}"
            for label, built, rows in (("report", report, offline),
                                       ("bundle", bundle, replayed))
            for spec in dataclasses.fields(built)
            if getattr(built, spec.name) != getattr(rows, spec.name)]
        if diverged:
            raise MetricsConsistencyError(
                f"round {self.rounds_run}: the array-built "
                f"{', '.join(diverged)} disagree with the round's rows")

    def _outcome(self, report: LossEventReport) -> RoundOutcome:
        recovered = bool(self._have.all())
        self._last_recovered = recovered
        closest: Optional[float] = None
        waited = np.flatnonzero(self._r_first)
        if waited.size:
            dists = self._dist_src[waited]
            at_minimum = waited[dists == dists.min()]
            closest = float(self._wait_ratio[at_minimum].min())
        return RoundOutcome(
            report=report, name=report.name, requests=report.requests,
            repairs=report.repairs,
            duplicate_requests=report.duplicate_requests,
            duplicate_repairs=report.duplicate_repairs,
            last_member_ratio=self._last_member_ratio(),
            closest_request_ratio=closest,
            recovered=recovered)
