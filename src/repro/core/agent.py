"""The SRM protocol agent (Section III of the paper).

One :class:`SrmAgent` per session member. The agent

* multicasts new application data to the group,
* detects its own losses (sequence gaps and session-message high-water
  marks) — the receiver-based reliability of Section II-A,
* schedules *request timers* drawn from ``[C1*d, (C1+C2)*d]`` of the
  estimated one-way delay ``d`` to the data's source, suppressing and
  exponentially backing off when another member's request is heard,
* answers requests it can serve with *repair timers* drawn from
  ``[D1*d, (D1+D2)*d]`` of the delay to the requester, cancelled when
  another member's repair is heard,
* enforces the 3·d hold-down that keeps duplicate requests from
  triggering a second wave of repairs,
* optionally adapts its timer parameters (Section VII-A) and scopes its
  requests/repairs for local recovery (Section VII-B).

Everything observable is also emitted into the network's trace; the
experiment layer (``repro.experiments``) is a pure consumer of traces.
Every member hears every request and repair, so each emission site asks
``KIND in trace.wanted`` itself and otherwise only bumps
``trace.kind_totals[KIND]`` (SRM006): a kind nobody reads costs no
Python call. Hot methods read the clock as ``self._scheduler.now``, not
through the ``now`` property. Every packet enters an agent through
:func:`receive_run`, the class's run handler: an engine hands it a run
of members that one arrival reaches at once, and
:meth:`SrmAgent.receive` is a run of one, so each kind has one
implementation. A heard request, repair or copy of held data is
finished there for each member: the held-data test, duplicate counts,
the ignore-window test and a repair's cancel are made in place, so only
timer draws, new data and the once-per-loss statistics leave the frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.core import timer_math
from repro.core.adaptive import AdaptiveTimers
from repro.core.config import SrmConfig, TimerParams
from repro.core.messages import (
    KIND_DATA,
    KIND_PAGE_REPLY,
    KIND_PAGE_REQUEST,
    KIND_REPAIR,
    KIND_REQUEST,
    KIND_SESSION,
    DataPayload,
    PageReplyPayload,
    PageRequestPayload,
    RepairPayload,
    RequestPayload,
    SessionPayload,
)
from repro.core.names import DEFAULT_PAGE, AduName, PageId
from repro.core.session import (
    DistanceEstimator,
    OracleDistance,
    SessionDistance,
    SessionProtocol,
)
from repro.core.fec import KIND_FEC, FecCodec, payload_bytes
from repro.core.state import DataStore, ReceptionState
from repro.core.transmit import (
    PRIORITY_CURRENT_PAGE_CONTROL,
    PRIORITY_NEW_DATA,
    PRIORITY_OLD_PAGE_CONTROL,
    TransmitQueue,
)
from repro.net.node import Agent
from repro.net.packet import DEFAULT_TTL, GroupAddress, Packet
from repro.sim.rng import RandomSource
from repro.sim.timers import Timer, TimerState
from repro.sim.trace import (DATA_RECOVERED, DUP_REPAIR_OBSERVED,
                             DUP_REQUEST_OBSERVED, FIRST_REQUEST_EVENT,
                             LOSS_DETECTED, PAGE_REPLY_SUPPRESSED,
                             PAGE_REQUEST_SUPPRESSED, RECOVERY_RESET,
                             RECV_DATA, RECV_REPAIR, REPAIR_CANCELLED,
                             REPAIR_SCHEDULED, REQUEST_ABANDONED,
                             REQUEST_BACKOFF, REQUEST_DUP_IGNORED,
                             REQUEST_IGNORED_HOLDDOWN, REQUEST_TIMER_SET,
                             REQUEST_WHILE_REPAIR_PENDING, SEND_DATA,
                             SEND_PAGE_REPLY, SEND_PAGE_REQUEST, SEND_REPAIR,
                             SEND_REPAIR_SECOND_STEP, SEND_REQUEST)


#: A pending timer's state, read in place on the request/repair paths
#: (no ``Timer.pending`` property frame).
_PENDING = TimerState.PENDING

#: An oracle-distance member's estimator until it joins a group.
_UNJOINED = DistanceEstimator()

#: (c1, c2, d1, d2, group size) -> the fixed timer parameters every
#: non-adaptive member with those settings shares
#: (:attr:`SrmAgent.params`). Nothing writes to a shared one: only
#: :class:`AdaptiveTimers` changes parameters, and it keeps its own.
_FIXED_PARAMS: Dict[Tuple[float, float, Optional[float], Optional[float],
                          int], TimerParams] = {}


@dataclass
class RequestContext:
    """Recovery state for one missing ADU at one member."""

    name: AduName
    detected_at: float
    timer: Timer
    backoff_count: int = 0
    ignore_backoff_until: float = float("-inf")
    sent_request: bool = False
    first_request_seen: bool = False
    rounds: int = 0
    request_ttl_used: int = DEFAULT_TTL
    request_zone_used: Optional[str] = None
    group: Optional[GroupAddress] = None
    done: bool = False


@dataclass
class RepairContext:
    """Pending-answer state for one request this member can serve."""

    name: AduName
    requester: int
    set_at: float
    timer: Timer
    repairs_observed: int = 0
    sent_repair: bool = False
    request_initial_ttl: int = DEFAULT_TTL
    request_hops: int = 0
    request_zone: Optional[str] = None
    reply_group: Optional[GroupAddress] = None
    done: bool = False


@dataclass
class PageRequestContext:
    """Suppression state for one page-state request."""

    page: PageId
    timer: Timer
    is_reply: bool = False  # True when we hold state and plan to reply
    done: bool = False


def receive_run(agents: Sequence["SrmAgent"], packet: Packet) -> None:
    """One packet at each of ``agents``, in order: ``SrmAgent.receive_run``.

    The run handler, and the one way a packet enters an ``SrmAgent``.
    The direct engine hands it a whole delivery run (receivers that tie
    in delay and hops); ``SrmAgent.receive`` hands it any packet as a
    run of one. It dispatches on the packet kind once per run, and what
    depends only on the packet (name, requester, replier, reported
    distance, the report's stamp and streams) is read once. Every
    member hears every request, repair and report, so each run is
    finished in this one frame: a report is merged, a request counted,
    backed off or answered, a repair cancels and observes here, and a
    copy already held is skipped without a call; only new data
    (``_accept_data``) and the protocol's timer work leave it. Page
    requests, page replies and FEC parity go to each member's handler;
    a session packet without a report in it (none is sent) and any
    other kind are ignored. Each agent is finished (its losses
    detected, timers drawn, rows written) before the next is touched,
    and an agent not (or no longer) listening on ``packet.dst`` is
    skipped.
    """
    kind = packet.kind
    payload = packet.payload
    group = packet.dst
    if kind == KIND_DATA:
        # First: the hop engine hands every data packet to its receivers
        # one at a time.
        name = payload.name
        data = payload.data
        for agent in agents:
            if (group is not agent.group and group.__class__ is GroupAddress
                    and group not in agent._joined_groups):
                continue
            if name in agent.store.held:
                continue  # a copy already held: nothing changes
            agent._accept_data(name, data, is_repair=False)
    elif kind == KIND_SESSION and payload.__class__ is SessionPayload:
        # Session reports outnumber every other kind of run.
        member = payload.member
        page = payload.page
        now: float = agents[0]._scheduler.now  # type: ignore[union-attr]
        stamp = (payload.sent_at, now)
        echoes = payload.echoes
        page_state = payload.page_state
        for agent in agents:
            if (group is not agent.group and group.__class__ is GroupAddress
                    and group not in agent._joined_groups):
                continue  # not, or no longer, listening on this group
            session = agent.session
            if session is None:
                continue
            session.last_heard[member] = stamp
            distances = agent.distances
            # The timestamp-echo branch is taken only when this member
            # actually learns distances from echoes (the oracle ignores
            # them).
            if distances.__class__ is SessionDistance:
                echo = echoes.get(agent.node_id)
                if echo is not None:
                    # t1: our send; echo.delta: peer's holding time;
                    # now: t4.
                    estimate = ((now - echo.t1) - echo.delta) / 2.0
                    distances.update(member, estimate)
            if not page_state:
                continue
            # Reception-state reports reveal tail losses. The steady-state
            # outcome — the reported high-water mark is already known — is
            # checked inline against the agent's table for the reported
            # page, so the overwhelmingly common case costs one int-keyed
            # probe per stream instead of a note_high_water call.
            if session._page is not page:
                session._page = page
                session._page_high = agent.reception.high_water_table(page)
            high = session._page_high
            for key in page_state:
                source, stream_page = key
                high_seq = page_state[key]
                # ``page`` stands in for every equal PageId, so the test
                # below can tell by identity. (No member reports a stream
                # off ``payload.page``; a decoded datagram may hold one.)
                if stream_page is not page and stream_page == page:
                    stream_page = page
                # Steady state first: a report at or below our own
                # high-water mark needs no further filtering (our own
                # streams always land here too, since no peer can report
                # above what we ourselves sent).
                if (stream_page is page and source in high
                        and high_seq <= high[source]):
                    continue
                if source == agent.node_id:
                    continue
                for name in agent.reception.note_high_water(
                        source, stream_page, high_seq):
                    agent.on_loss_detected(name)
    elif kind == KIND_REQUEST:
        # Section III-A/B: a member holding the data considers a repair;
        # one waiting for it backs off its request timer, or counts a
        # duplicate inside the ignore window (footnote 1).
        name = payload.name
        requester = payload.requester
        reported = payload.requester_distance_to_source
        now = agents[0]._scheduler.now  # type: ignore[union-attr]
        trace = agents[0].network.trace
        for agent in agents:
            if (group is not agent.group and group.__class__ is GroupAddress
                    and group not in agent._joined_groups):
                continue
            if name in agent.store.held:
                agent._consider_repair(packet, payload)
                continue
            requests = agent._requests
            if name in requests:
                context = requests[name]
                if context.done:
                    continue  # abandoned; nothing useful to do
                if not context.first_request_seen:
                    agent._first_request(context, requester)
                elif requester != agent.node_id:
                    # A later request, heard: a duplicate. (Only requests
                    # *received* count, as in the paper's dup_req; our
                    # own retransmissions do not.)
                    if DUP_REQUEST_OBSERVED in trace.wanted:
                        trace.record(now, agent.node_id, DUP_REQUEST_OBSERVED,
                                     {"name": name, "requester": requester})
                    else:
                        trace.kind_totals[DUP_REQUEST_OBSERVED] += 1
                    if agent.adaptive is not None:
                        agent.adaptive.record_duplicate_request(
                            we_sent=context.sent_request,
                            requester_distance=reported,
                            our_distance=agent.distances.distance(
                                name.source))
                # The ignore window is half-open: a request heard at its
                # end backs off.
                if now >= context.ignore_backoff_until:
                    agent._backoff_request(context)
                    if REQUEST_BACKOFF in trace.wanted:
                        trace.record(now, agent.node_id, REQUEST_BACKOFF,
                                     {"name": name,
                                      "count": context.backoff_count})
                    else:
                        trace.kind_totals[REQUEST_BACKOFF] += 1
                else:
                    agent.requests_suppressed += 1
                    if REQUEST_DUP_IGNORED in trace.wanted:
                        trace.record(now, agent.node_id, REQUEST_DUP_IGNORED,
                                     {"name": name})
                    else:
                        trace.kind_totals[REQUEST_DUP_IGNORED] += 1
            elif agent.config.detect_loss_from_requests:
                # A request reveals data we did not know existed: enter
                # loss recovery directly in the backed-off state, as if
                # our own timer had just been reset by this request.
                for missing in agent.reception.note_high_water(*name):
                    agent.on_loss_detected(missing)
                fresh = agent._requests.get(name)
                if fresh is not None:
                    agent._first_request(fresh, requester)
                    agent._backoff_request(fresh)
    elif kind == KIND_REPAIR:
        # Section III-B: a repair cancels this member's own pending
        # repair for the name, counts against the duplicate statistics,
        # and delivers the data or, for a copy already held, refreshes
        # the hold-down.
        name = payload.name
        replier = payload.replier
        answering = payload.answering
        now = agents[0]._scheduler.now  # type: ignore[union-attr]
        trace = agents[0].network.trace
        for agent in agents:
            if (group is not agent.group and group.__class__ is GroupAddress
                    and group not in agent._joined_groups):
                continue
            if RECV_REPAIR in trace.wanted:
                trace.record(now, agent.node_id, RECV_REPAIR,
                             {"name": name, "replier": replier,
                              "answering": answering})
            else:
                trace.kind_totals[RECV_REPAIR] += 1
            repairs = agent._repairs
            if name in repairs:
                repair_context = repairs[name]
                if (not repair_context.done
                        and repair_context.timer._state is _PENDING):
                    repair_context.timer.cancel()
                    repair_context.done = True
                    agent.repairs_cancelled += 1
                    if REPAIR_CANCELLED in trace.wanted:
                        trace.record(now, agent.node_id, REPAIR_CANCELLED,
                                     {"name": name})
                    else:
                        trace.kind_totals[REPAIR_CANCELLED] += 1
                repair_context.repairs_observed += 1
                if (repair_context.repairs_observed >= 2
                        and replier != agent.node_id):
                    if DUP_REPAIR_OBSERVED in trace.wanted:
                        trace.record(now, agent.node_id, DUP_REPAIR_OBSERVED,
                                     {"name": name, "replier": replier})
                    else:
                        trace.kind_totals[DUP_REPAIR_OBSERVED] += 1
                    if agent.adaptive is not None:
                        agent.adaptive.record_duplicate_repair(
                            we_sent=repair_context.sent_repair,
                            replier_distance=(
                                payload.replier_distance_to_requester),
                            our_distance=agent.distances.distance(
                                repair_context.requester))
            if name in agent.store.held:
                agent._set_holddown(name, answering)
            else:
                agent._accept_data(name, payload.data, is_repair=True,
                                   first_requester=answering)
            if payload.local_step and answering == agent.node_id:
                agent._second_step_repair(
                    name, payload, group if group != agent.group else None)
    else:
        for agent in agents:
            if (group is not agent.group and group.__class__ is GroupAddress
                    and group not in agent._joined_groups):
                continue
            if kind == KIND_PAGE_REQUEST:
                agent._handle_page_request(payload)
            elif kind == KIND_PAGE_REPLY:
                agent._handle_page_reply(payload)
            elif kind == KIND_FEC and agent.fec is not None:
                agent.fec.on_parity_received(payload)


class SrmAgent(Agent):
    """A session member implementing the SRM framework."""

    def __init__(self, config: Optional[SrmConfig] = None,
                 rng: Optional[RandomSource] = None,
                 on_app_receive: Optional[
                     Callable[[AduName, Any], None]] = None) -> None:
        super().__init__()
        self.config = config if config is not None else SrmConfig()
        self.rng = rng if rng is not None else RandomSource()
        self.on_app_receive = on_app_receive
        self.group: Optional[GroupAddress] = None
        self.store = DataStore()
        self.reception = ReceptionState(
            adopt_streams=self.config.adopt_streams)
        self.current_page: PageId = DEFAULT_PAGE
        #: An oracle member's estimator needs its network: join_group
        #: builds it, so none is made here only to be thrown away.
        self.distances: DistanceEstimator = (
            _UNJOINED if self.config.distance_oracle
            else SessionDistance(self.config.default_distance))
        self.session: Optional[SessionProtocol] = None
        self.adaptive: Optional[AdaptiveTimers] = None
        self.transmitter: Optional[TransmitQueue] = None
        self.fec: Optional[FecCodec] = None
        #: The fixed timer parameters, resolved on first use (the group
        #: size is the one then; :attr:`params`). An adaptive member
        #: leaves it None and reads ``adaptive.params`` on every draw.
        self._fixed_params: Optional[TimerParams] = None
        #: The request-timer backoff base (``config.backoff_factor()``),
        #: resolved once: every backoff draws with it.
        self._backoff_base = self.config.backoff_factor()
        self._requests: Dict[AduName, RequestContext] = {}
        self._repairs: Dict[AduName, RepairContext] = {}
        self._page_requests: Dict[PageId, PageRequestContext] = {}
        self._holddown: Dict[AduName, float] = {}
        self._next_seq: Dict[PageId, int] = {}
        self._last_request_period_at = float("-inf")
        self._last_repair_period_name: Optional[AduName] = None
        #: Recovery-group routing rules: (page, source, group); the first
        #: match decides which group a request for a name goes to.
        self._recovery_rules: list = []
        #: Groups this agent listens on (like sockets bound to group
        #: addresses); multicast for any other group is ignored -- several
        #: agents can share one node (e.g. one per subscription layer).
        self._joined_groups: set = set()
        # Counters for tests and lightweight instrumentation.
        self.data_sent = 0
        self.data_received = 0
        self.losses_detected = 0
        self.requests_sent = 0
        self.repairs_sent = 0
        self.requests_suppressed = 0
        self.repairs_cancelled = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def join_group(self, group: GroupAddress) -> None:
        """Join the session's multicast group and initialize estimators."""
        if self.network is None:
            raise RuntimeError("attach the agent to a network node first")
        self.group = group
        self.network.join(self.node_id, group)
        self._joined_groups.add(group)
        if self.config.distance_oracle:
            self.distances = OracleDistance(self.network, self.node_id)
        elif self.distances is _UNJOINED:  # the oracle was switched off
            self.distances = SessionDistance(self.config.default_distance)
        if self.config.session_enabled:
            self.session = SessionProtocol(self)
            self.session.start()
        if self.config.adaptive:
            self.adaptive = AdaptiveTimers(self.config, self.group_size())
        if self.config.rate_limit is not None:
            self.transmitter = TransmitQueue(
                self.network.scheduler, self.config.rate_limit,
                self.config.rate_limit_depth)
        if self.config.fec_block is not None:
            self.fec = FecCodec(self, self.config.fec_block)

    def leave_group(self) -> None:
        if self.group is not None:
            if self.session is not None:
                self.session.stop()
            # A departing member stops participating in loss recovery:
            # pending request/repair timers would otherwise fire after
            # ``self.group`` is gone and multicast into a None group.
            self.reset_recovery_state()
            self.network.leave(self.node_id, self.group)
            self._joined_groups.discard(self.group)
            self.group = None

    def group_size(self) -> int:
        if self.group is None:
            return 1
        return self.network.group_size(self.group)

    @property
    def params(self) -> TimerParams:
        """Current timer parameters (adaptive state or fixed config)."""
        if self.adaptive is not None:
            return self.adaptive.params
        params = self._fixed_params
        if params is None:
            # Read on first use, so the group size is the one then.
            config = self.config
            group = self.group
            key = (config.c1, config.c2, config.d1, config.d2,
                   1 if group is None else self.network.group_size(group))
            if key in _FIXED_PARAMS:
                params = _FIXED_PARAMS[key]
            else:
                params = _FIXED_PARAMS[key] = config.fixed_params(key[4])
            self._fixed_params = params
        return params

    def _distance_or_default(self, peer: int) -> float:
        """Distance to a peer, tolerating unknown/departed node ids.

        A page creator may have left the session (or be a Source-ID we
        have never heard from); the timer then falls back to the default
        distance rather than failing.
        """
        if peer == self.node_id:
            return self.config.default_distance
        try:
            return self.distances.distance(peer)
        except KeyError:
            return self.config.default_distance

    def _transmit(self, kind: str, payload: Any, ttl: int, size: int,
                  priority: int,
                  group: Optional[GroupAddress] = None,
                  scope_zone: Optional[str] = None) -> None:
        """Multicast to a group, through the pacer when configured.

        ``group`` defaults to the session group; loss-recovery traffic
        may be redirected to a separate recovery group (Section VII-B2).
        Protocol bookkeeping (timers, backoff, traces) happens at the
        decision time; the token bucket delays only the wire
        transmission, exactly as a host rate limiter would.
        """
        target = group if group is not None else self.group

        def send() -> None:
            self.network.send_multicast(self.node_id, target, kind,
                                        payload, ttl=ttl, size=size,
                                        scope_zone=scope_zone)

        if self.transmitter is None:
            send()
        else:
            self.transmitter.submit(priority, size, send)

    def _control_priority(self, name: AduName) -> int:
        """Section III-E: current-page control first, old pages last."""
        if name.page == self.current_page:
            return PRIORITY_CURRENT_PAGE_CONTROL
        return PRIORITY_OLD_PAGE_CONTROL

    # ------------------------------------------------------------------
    # Sending application data
    # ------------------------------------------------------------------

    def send_data(self, data: Any, page: Optional[PageId] = None) -> AduName:
        """Name and multicast a new ADU; returns the assigned name."""
        if self.group is None:
            raise RuntimeError("join a group before sending")
        # Refused before it is named or sent: FEC parity needs a JSON form.
        blob = payload_bytes(data) if self.fec is not None else b""
        page = page if page is not None else self.current_page
        seq = self._next_seq.get(page, 0) + 1
        self._next_seq[page] = seq
        name = AduName(self.node_id, page, seq)
        self.store.put(name, data)
        self.reception.mark_received(name)
        self._transmit(KIND_DATA, DataPayload(name=name, data=data),
                       ttl=DEFAULT_TTL, size=self.config.data_packet_size,
                       priority=PRIORITY_NEW_DATA)
        self.data_sent += 1
        trace = self.network.trace
        if SEND_DATA in trace.wanted:
            trace.record(self._scheduler.now, self.node_id, SEND_DATA,
                         {"name": name})
        else:
            trace.kind_totals[SEND_DATA] += 1
        if self.fec is not None:
            self.fec.on_data_sent(name, blob)
        if self.session is not None:
            self.session.on_data_sent()
        return name

    def create_page(self, number: int) -> PageId:
        """Create a new page owned by this member (wb semantics)."""
        return PageId(creator=self.node_id, number=number)

    def peek_next_seq(self, page: Optional[PageId] = None) -> int:
        """The sequence number the next :meth:`send_data` will assign.

        Lets applications bind metadata (e.g. integrity tags) to the
        name before sending.
        """
        page = page if page is not None else self.current_page
        return self._next_seq.get(page, 0) + 1

    # ------------------------------------------------------------------
    # Separate recovery groups (Section VII-B2)
    # ------------------------------------------------------------------

    def join_recovery_group(self, group: GroupAddress,
                            page: Optional[PageId] = None,
                            source: Optional[int] = None) -> None:
        """Route future requests for matching data onto ``group``.

        ``page``/``source`` restrict the rule (None matches anything).
        The member also joins the group so it hears the answering
        traffic. Repairs always answer on the group the request arrived
        on, so repliers need no rules of their own.
        """
        self.network.join(self.node_id, group)
        self._joined_groups.add(group)
        self._recovery_rules.append((page, source, group))

    def leave_recovery_group(self, group: GroupAddress) -> None:
        """Remove the rules for ``group`` and leave it."""
        self._recovery_rules = [rule for rule in self._recovery_rules
                                if rule[2] != group]
        self._joined_groups.discard(group)
        self.network.leave(self.node_id, group)

    def _recovery_group_for(self, name: AduName) -> Optional[GroupAddress]:
        for page, source, group in self._recovery_rules:
            if page is not None and name.page != page:
                continue
            if source is not None and name.source != source:
                continue
            return group
        return None

    # ------------------------------------------------------------------
    # Receive dispatch
    # ------------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        receive_run((self,), packet)

    #: The run handler: one frame per delivery run, of any packet kind
    #: (see :func:`receive_run`).
    receive_run = staticmethod(receive_run)

    # ------------------------------------------------------------------
    # Loss detection and request timers
    # ------------------------------------------------------------------

    def on_loss_detected(self, name: AduName) -> None:
        """Open loss-recovery state for ``name`` and set a request timer."""
        if name in self.store.held or name in self._requests:
            return
        now = self._scheduler.now
        adaptive = self.adaptive
        if adaptive is not None and now > self._last_request_period_at:
            # Fig. 9: close the previous request period and adjust (C1, C2)
            # before the new request timer is set. Losses detected in the
            # same instant share one period.
            adaptive.request_period_start()
        self._last_request_period_at = now
        config = self.config
        context = RequestContext(
            name=name, detected_at=now,
            timer=Timer(self.network.scheduler,
                        lambda: self._request_timer_expired(context)),
            request_zone_used=config.request_scope_zone)
        if config.request_ttl is not None:
            context.request_ttl_used = config.request_ttl
        if self._recovery_rules:
            context.group = self._recovery_group_for(name)
        self._requests[name] = context
        params = (adaptive.params if adaptive is not None
                  else self._fixed_params or self.params)
        delay = timer_math.request_timer(
            self.distances.distance(name.source), params.c1, params.c2,
            self._backoff_base, 0, self.rng.random())
        context.timer.start(delay)
        self.losses_detected += 1
        trace = self.network.trace
        if LOSS_DETECTED in trace.wanted:
            trace.record(now, self.node_id, LOSS_DETECTED, {"name": name})
        else:
            trace.kind_totals[LOSS_DETECTED] += 1
        if REQUEST_TIMER_SET in trace.wanted:
            trace.record(now, self.node_id, REQUEST_TIMER_SET,
                         {"name": name, "delay": delay, "backoff": 0,
                          "ignore_until": None})
        else:
            trace.kind_totals[REQUEST_TIMER_SET] += 1

    def _request_timer_expired(self, context: RequestContext) -> None:
        if context.done:
            return
        name = context.name
        if context.rounds >= self.config.max_request_rounds:
            context.done = True
            trace = self.network.trace
            if REQUEST_ABANDONED in trace.wanted:
                trace.record(self._scheduler.now, self.node_id,
                             REQUEST_ABANDONED, {"name": name})
            else:
                trace.kind_totals[REQUEST_ABANDONED] += 1
            return
        distance = self.distances.distance(name.source)
        payload = RequestPayload(name=name, requester=self.node_id,
                                 requester_distance_to_source=distance)
        self._transmit(KIND_REQUEST, payload, ttl=context.request_ttl_used,
                       size=self.config.control_packet_size,
                       priority=self._control_priority(name),
                       group=context.group,
                       scope_zone=context.request_zone_used)
        self.requests_sent += 1
        context.rounds += 1
        context.sent_request = True
        if not context.first_request_seen:
            self._first_request(context, self.node_id)
        if self.adaptive is not None:
            self.adaptive.record_request_sent()
        trace = self.network.trace
        if SEND_REQUEST in trace.wanted:
            trace.record(self._scheduler.now, self.node_id, SEND_REQUEST,
                         {"name": name, "round": context.rounds,
                          "ttl": context.request_ttl_used})
        else:
            trace.kind_totals[SEND_REQUEST] += 1
        # "multicasts a request for the missing data, and doubles the
        # request timer to wait for the repair."
        self._backoff_request(context)

    def _backoff_request(self, context: RequestContext) -> None:
        context.backoff_count += 1
        adaptive = self.adaptive
        params = (adaptive.params if adaptive is not None
                  else self._fixed_params or self.params)
        delay = timer_math.request_timer(
            self.distances.distance(context.name.source), params.c1,
            params.c2, self._backoff_base, context.backoff_count,
            self.rng.random())
        context.timer.reschedule(delay)
        now = self._scheduler.now
        # Footnote 1's heuristic: ignore further duplicate requests until
        # halfway between now and the new expiration time.
        if self.config.ignore_backoff_enabled:
            context.ignore_backoff_until = \
                timer_math.ignore_backoff_until(now, delay)
        else:
            context.ignore_backoff_until = float("-inf")
        trace = self.network.trace
        if REQUEST_TIMER_SET in trace.wanted:
            trace.record(now, self.node_id, REQUEST_TIMER_SET,
                         {"name": context.name, "delay": delay,
                          "backoff": context.backoff_count,
                          "ignore_until": (
                              context.ignore_backoff_until
                              if self.config.ignore_backoff_enabled
                              else None)})
        else:
            trace.kind_totals[REQUEST_TIMER_SET] += 1

    def _first_request(self, context: RequestContext, requester: int) -> None:
        """The first request for a loss, sent or heard: close the waiting
        period for the delay statistics (once per loss). Later heard
        requests are duplicates, counted by :func:`receive_run`."""
        context.first_request_seen = True
        now = self._scheduler.now
        delay = now - context.detected_at
        rtt = self.network.rtt(self.node_id, context.name.source)
        ratio = delay / rtt if rtt > 0 else 0.0
        trace = self.network.trace
        if FIRST_REQUEST_EVENT in trace.wanted:
            via = "sent" if requester == self.node_id else "heard"
            trace.record(now, self.node_id, FIRST_REQUEST_EVENT,
                         {"name": context.name, "delay": delay,
                          "rtt": rtt, "ratio": ratio, "via": via})
        else:
            trace.kind_totals[FIRST_REQUEST_EVENT] += 1
        if self.adaptive is not None:
            self.adaptive.record_request_delay(ratio)

    # ------------------------------------------------------------------
    # Handling requests from other members
    # ------------------------------------------------------------------

    def _consider_repair(self, packet: Packet,
                         payload: RequestPayload) -> None:
        name = payload.name
        now = self._scheduler.now
        trace = self.network.trace
        holddown = self._holddown
        if name in holddown and now < holddown[name]:
            if REQUEST_IGNORED_HOLDDOWN in trace.wanted:
                trace.record(now, self.node_id, REQUEST_IGNORED_HOLDDOWN,
                             {"name": name})
            else:
                trace.kind_totals[REQUEST_IGNORED_HOLDDOWN] += 1
            return
        repairs = self._repairs
        existing = repairs[name] if name in repairs else None
        if existing is not None and existing.timer._state is _PENDING:
            if REQUEST_WHILE_REPAIR_PENDING in trace.wanted:
                trace.record(now, self.node_id, REQUEST_WHILE_REPAIR_PENDING,
                             {"name": name})
            else:
                trace.kind_totals[REQUEST_WHILE_REPAIR_PENDING] += 1
            return
        if existing is not None:
            existing.timer.release()  # replaced below
        adaptive = self.adaptive
        if adaptive is not None and name != self._last_repair_period_name:
            # A repair period ends when a repair timer is set for a
            # different data item.
            adaptive.repair_period_start()
        self._last_repair_period_name = name
        dst = packet.dst  # the group itself, as a rule: identity first
        context = RepairContext(
            name=name, requester=payload.requester, set_at=now,
            timer=Timer(self.network.scheduler,
                        lambda: self._repair_timer_expired(context)),
            request_initial_ttl=packet.initial_ttl,
            request_hops=packet.hops_travelled(),
            request_zone=packet.scope_zone,
            reply_group=(None if dst is self.group or dst == self.group
                         else dst))
        repairs[name] = context
        params = (adaptive.params if adaptive is not None
                  else self._fixed_params or self.params)
        context.timer.start(timer_math.repair_timer(
            self.distances.distance(payload.requester), params.d1,
            params.d2, self.rng.random()))
        if REPAIR_SCHEDULED in trace.wanted:
            trace.record(now, self.node_id, REPAIR_SCHEDULED,
                         {"name": name, "requester": payload.requester})
        else:
            trace.kind_totals[REPAIR_SCHEDULED] += 1

    def _repair_ttl(self, context: RepairContext) -> int:
        mode = self.config.local_repair_mode
        if mode is None or context.request_initial_ttl >= DEFAULT_TTL:
            return DEFAULT_TTL
        if mode == "one-step":
            # Cover everything the request covered, from our position:
            # the request's TTL plus our hop distance from the requester.
            return context.request_initial_ttl + context.request_hops
        if mode == "two-step":
            # Step one: a local repair with the TTL the request used,
            # naming the requester (who will re-multicast it).
            return context.request_initial_ttl
        raise ValueError(f"unknown local_repair_mode {mode!r}")

    def _repair_timer_expired(self, context: RepairContext) -> None:
        if context.done or context.name not in self.store.held:
            return
        name = context.name
        mode = self.config.local_repair_mode
        two_step = (mode == "two-step"
                    and context.request_initial_ttl < DEFAULT_TTL)
        distance = self.distances.distance(context.requester)
        payload = RepairPayload(
            name=name, data=self.store.get(name), replier=self.node_id,
            answering=context.requester,
            replier_distance_to_requester=distance,
            local_step=two_step)
        self._transmit(KIND_REPAIR, payload, ttl=self._repair_ttl(context),
                       size=self.config.data_packet_size,
                       priority=self._control_priority(name),
                       group=context.reply_group,
                       scope_zone=context.request_zone)
        self.repairs_sent += 1
        context.sent_repair = True
        context.done = True
        context.repairs_observed += 1
        rtt = self.network.rtt(self.node_id, context.requester)
        now = self._scheduler.now
        delay = now - context.set_at
        ratio = delay / rtt if rtt > 0 else 0.0
        if self.adaptive is not None:
            self.adaptive.record_repair_delay(ratio)
            self.adaptive.record_repair_sent()
        trace = self.network.trace
        if SEND_REPAIR in trace.wanted:
            trace.record(now, self.node_id, SEND_REPAIR,
                         {"name": name, "two_step": two_step,
                          "delay": delay, "ratio": ratio,
                          "answering": context.requester})
        else:
            trace.kind_totals[SEND_REPAIR] += 1
        self._set_holddown(name, context.requester)

    def _set_holddown(self, name: AduName, first_requester: Optional[int]) -> None:
        """Ignore requests for ``name`` for 3 * d(S, us) (Section III-B).

        S is the source of the first request when known, else the
        original source of the data.
        """
        anchor = first_requester if first_requester is not None else name.source
        if anchor == self.node_id:
            anchor = name.source
        distance = self.distances.distance(anchor)
        self._holddown[name] = timer_math.holddown_until(
            self._scheduler.now, distance, self.config.holddown_factor)

    # ------------------------------------------------------------------
    # Handling repairs and original data
    # ------------------------------------------------------------------

    def _second_step_repair(self, name: AduName, payload: RepairPayload,
                            group: Optional[GroupAddress] = None) -> None:
        """Step two of two-step local recovery (Section VII-B3).

        The original requester, on receiving the local repair naming
        itself, re-multicasts the repair with the TTL it used for its
        original request, guaranteeing coverage of every member that saw
        the request.
        """
        request_context = self._requests.get(name)
        ttl = (request_context.request_ttl_used
               if request_context is not None else DEFAULT_TTL)
        resend = RepairPayload(name=name, data=payload.data,
                               replier=self.node_id, answering=None,
                               local_step=False)
        self._transmit(KIND_REPAIR, resend, ttl=ttl,
                       size=self.config.data_packet_size,
                       priority=self._control_priority(name),
                       group=group)
        self.repairs_sent += 1
        trace = self.network.trace
        if SEND_REPAIR_SECOND_STEP in trace.wanted:
            trace.record(self._scheduler.now, self.node_id,
                         SEND_REPAIR_SECOND_STEP, {"name": name, "ttl": ttl})
        else:
            trace.kind_totals[SEND_REPAIR_SECOND_STEP] += 1

    def _accept_data(self, name: AduName, data: Any, is_repair: bool,
                     first_requester: Optional[int] = None) -> None:
        """Deliver data this member does not hold yet (its callers test
        ``store.held`` first): store it, close its recovery, and detect
        the losses its sequence number reveals."""
        self.store.held[name] = data
        newly_missing = self.reception.mark_received(name)
        now = self._scheduler.now
        trace = self.network.trace
        requests = self._requests
        if name in requests and not requests[name].done:
            context = requests[name]
            context.done = True
            context.timer.cancel()
            delay = now - context.detected_at
            rtt = self.network.rtt(self.node_id, name.source)
            ratio = delay / rtt if rtt > 0 else 0.0
            if not context.first_request_seen:
                # Recovered without ever seeing a request (e.g. reordered
                # original data or a scoped repair): close the waiting
                # period for the delay statistics.
                context.first_request_seen = True
                if FIRST_REQUEST_EVENT in trace.wanted:
                    trace.record(now, self.node_id, FIRST_REQUEST_EVENT,
                                 {"name": name, "delay": delay, "rtt": rtt,
                                  "ratio": ratio, "via": "data"})
                else:
                    trace.kind_totals[FIRST_REQUEST_EVENT] += 1
                if self.adaptive is not None:
                    self.adaptive.record_request_delay(ratio)
            if DATA_RECOVERED in trace.wanted:
                trace.record(now, self.node_id, DATA_RECOVERED,
                             {"name": name, "delay": delay, "rtt": rtt,
                              "ratio": ratio,
                              "via": "repair" if is_repair else "data"})
            else:
                trace.kind_totals[DATA_RECOVERED] += 1
        if is_repair:
            self._set_holddown(name, first_requester)
        self.data_received += 1
        if RECV_DATA in trace.wanted:
            trace.record(now, self.node_id, RECV_DATA,
                         {"name": name, "repair": is_repair})
        else:
            trace.kind_totals[RECV_DATA] += 1
        if self.fec is not None:
            self.fec.on_data_received(name, data)
        if self.on_app_receive is not None:
            self.on_app_receive(name, data)
        for missing in newly_missing:
            self.on_loss_detected(missing)

    # ------------------------------------------------------------------
    # Page state recovery (late join / browsing history)
    # ------------------------------------------------------------------

    def request_page_state(self, page: PageId) -> None:
        """Ask the group for the sequence-number state of ``page``.

        The recovery protocol mirrors data recovery: the request timer is
        distance-randomized against the page creator, replies are
        suppressed like repairs.
        """
        previous = self._page_requests.get(page)
        if previous is not None:
            if previous.timer.pending:
                return
            previous.timer.release()  # replaced below
        context = PageRequestContext(
            page=page,
            timer=Timer(self.network.scheduler,
                        lambda: self._page_request_timer_expired(context)))
        self._page_requests[page] = context
        params = self.params
        context.timer.start(timer_math.request_timer(
            self._distance_or_default(page.creator), params.c1, params.c2,
            self._backoff_base, 0, self.rng.random()))

    def _page_request_timer_expired(self, context: PageRequestContext) -> None:
        if context.done:
            return
        payload = PageRequestPayload(page=context.page,
                                     requester=self.node_id)
        self.network.send_multicast(
            self.node_id, self.group, KIND_PAGE_REQUEST, payload,
            size=self.config.control_packet_size)
        context.done = True
        trace = self.network.trace
        if SEND_PAGE_REQUEST in trace.wanted:
            trace.record(self._scheduler.now, self.node_id, SEND_PAGE_REQUEST,
                         {"page": str(context.page)})
        else:
            trace.kind_totals[SEND_PAGE_REQUEST] += 1

    def _handle_page_request(self, payload: PageRequestPayload) -> None:
        page = payload.page
        own = self._page_requests.get(page)
        if own is not None and not own.done and not own.is_reply:
            # Another member asked first; suppress our page request.
            own.timer.cancel()
            own.done = True
            trace = self.network.trace
            if PAGE_REQUEST_SUPPRESSED in trace.wanted:
                trace.record(self._scheduler.now, self.node_id,
                             PAGE_REQUEST_SUPPRESSED, {"page": str(page)})
            else:
                trace.kind_totals[PAGE_REQUEST_SUPPRESSED] += 1
        state = self.reception.page_state(page)
        if not state:
            return
        if own is not None:
            if own.is_reply and own.timer.pending:
                return
            own.timer.release()  # replaced below
        reply_context = PageRequestContext(
            page=page, is_reply=True,
            timer=Timer(self.network.scheduler,
                        lambda: self._page_reply_timer_expired(reply_context)))
        self._page_requests[page] = reply_context
        params = self.params
        reply_context.timer.start(timer_math.repair_timer(
            self.distances.distance(payload.requester), params.d1,
            params.d2, self.rng.random()))

    def _page_reply_timer_expired(self, context: PageRequestContext) -> None:
        if context.done:
            return
        payload = PageReplyPayload(
            page=context.page, replier=self.node_id,
            page_state=self.reception.page_state(context.page))
        self.network.send_multicast(
            self.node_id, self.group, KIND_PAGE_REPLY, payload,
            size=self.config.control_packet_size)
        context.done = True
        trace = self.network.trace
        if SEND_PAGE_REPLY in trace.wanted:
            trace.record(self._scheduler.now, self.node_id, SEND_PAGE_REPLY,
                         {"page": str(context.page)})
        else:
            trace.kind_totals[SEND_PAGE_REPLY] += 1

    def _handle_page_reply(self, payload: PageReplyPayload) -> None:
        context = self._page_requests.get(payload.page)
        if context is not None and context.timer.pending:
            # Someone else replied first: suppress our reply (and any
            # still-pending request for the same page).
            context.timer.cancel()
            context.done = True
            trace = self.network.trace
            if PAGE_REPLY_SUPPRESSED in trace.wanted:
                trace.record(self._scheduler.now, self.node_id,
                             PAGE_REPLY_SUPPRESSED,
                             {"page": str(payload.page)})
            else:
                trace.kind_totals[PAGE_REPLY_SUPPRESSED] += 1
        for (source, page), high_seq in payload.page_state.items():
            if source == self.node_id:
                continue
            for missing in self.reception.note_high_water(source, page,
                                                          high_seq):
                self.on_loss_detected(missing)

    # ------------------------------------------------------------------
    # Introspection helpers (tests, applications)
    # ------------------------------------------------------------------

    def pending_requests(self) -> list[AduName]:
        return sorted(name for name, ctx in self._requests.items()
                      if not ctx.done)

    def pending_repairs(self) -> list[AduName]:
        return sorted(name for name, ctx in self._repairs.items()
                      if not ctx.done and ctx.timer.pending)

    def holddown_active(self, name: AduName) -> bool:
        return self._scheduler.now < self._holddown.get(name, float("-inf"))

    def reset_recovery_state(self) -> None:
        """Drop per-loss bookkeeping between experiment rounds.

        Data and reception state are kept; request/repair contexts,
        hold-downs and page-request state are discarded. Adaptive EWMAs
        persist (that is the point of Figs. 12-14). Every member is reset
        each round, most with nothing to drop: an empty table costs a
        truth test, and a full one is replaced, not cleared (nothing but
        the agent holds these tables).
        """
        if self._requests or self._repairs or self._page_requests:
            self._release_timers()
            self._requests = {}
            self._repairs = {}
            self._page_requests = {}
        if self._holddown:
            self._holddown = {}
        self._last_repair_period_name = None
        if self.network is not None:
            # Online checkers key suppression state on (node, name); the
            # reset marker tells them this node's slate is clean.
            trace = self.network.trace
            if RECOVERY_RESET in trace.wanted:
                trace.record(self._scheduler.now, self.node_id,
                             RECOVERY_RESET, {})
            else:
                trace.kind_totals[RECOVERY_RESET] += 1

    def _release_timers(self) -> None:
        """Release every context's timer (:meth:`Timer.release`).

        A context's timer calls back into the context and the agent, so
        until released each context is a reference cycle with its agent.
        """
        requests = self._requests
        for name in requests:
            requests[name].timer.release()
        repairs = self._repairs
        for name in repairs:
            repairs[name].timer.release()
        page_requests = self._page_requests
        for page in page_requests:
            page_requests[page].timer.release()

    def detached(self) -> None:
        """``Network.close`` unbinds this agent: cut its own cycles too.

        The context timers are released and the session, the transmit
        queue and the FEC codec let go of the agent, so the finished run
        is freed by reference counting. Stores, reception state,
        contexts and counters stay readable.
        """
        super().detached()
        if self._requests or self._repairs or self._page_requests:
            self._release_timers()
        if self.session is not None:
            self.session.close()
        if self.transmitter is not None:
            self.transmitter.close()
        if self.fec is not None:
            self.fec.agent = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SrmAgent node={self.node_id} "
                f"store={len(self.store)} "
                f"pending_req={len(self.pending_requests())}>")
