"""Session messages and distance estimation (Section III-A).

Each member multicasts low-rate periodic session messages that (a) report
the highest sequence number received per active source on the page the
member is viewing — which lets receivers detect the loss of the *last*
packet in a burst — and (b) carry timestamps from which members estimate
pairwise one-way distances with a highly simplified version of the NTP
algorithm. The sending rate follows the vat rule: the aggregate session
bandwidth is limited to a small fraction (default 5%) of the session data
bandwidth, so the per-member interval grows linearly with the group size.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional

from repro.core.messages import KIND_SESSION, SessionPayload, SessionTimestamp
from repro.sim.timers import ScheduledEvent
from repro.sim.trace import SEND_SESSION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.agent import SrmAgent
    from repro.core.names import PageId
    from repro.net.packet import NodeId, Packet


class DistanceEstimator:
    """Interface: one-way delay estimates from this member to peers.

    ``row`` holds them by peer: ``row[peer] == distance(peer)``, so the
    agent's timer paths read a distance by subscript, with no call.
    """

    #: No peers known: every read is a ``KeyError``.
    row: Mapping["NodeId", float] = MappingProxyType({})

    def distance(self, peer: "NodeId") -> float:
        raise NotImplementedError


class OracleDistance(DistanceEstimator):
    """True shortest-path delays straight from the topology.

    The paper's experiments assume each member knows its distance to every
    other member ("the session packet timestamps are used to estimate the
    host-to-host distances"); the oracle models fully converged estimates.
    Its ``row`` is the engine's row for the member's node
    (``Engine.distance_row``), which holds neither the engine nor an
    agent, so the agent holding it is no reference cycle; ``distance`` is
    that row's subscript.
    """

    def __init__(self, row: "Mapping[NodeId, float]") -> None:
        self.row = row
        self.distance: Callable[["NodeId"], float] = row.__getitem__


class EstimateRow(Dict["NodeId", float]):
    """A session member's learned distances: a peer not heard from yet
    reads ``default``, and the read stores nothing."""

    __slots__ = ("default",)

    default: float

    def __missing__(self, peer: "NodeId") -> float:
        return self.default


class SessionDistance(DistanceEstimator):
    """Distances learned from session-message timestamp echoes."""

    def __init__(self, default: float = 1.0) -> None:
        #: peer -> estimate; also this estimator's ``row``.
        estimates = self.estimates = self.row = EstimateRow()
        estimates.default = default

    def distance(self, peer: "NodeId") -> float:
        return self.estimates[peer]

    def update(self, peer: "NodeId", estimate: float) -> None:
        # One-way delays cannot be negative; clock skew in the simulator
        # is zero but the clamp keeps the estimator robust by construction.
        self.estimates[peer] = max(0.0, estimate)


#: Shared empty echo map for oracle-distance sessions (read-only by
#: convention: receivers only ever ``.get`` on ``payload.echoes``).
_NO_ECHOES: Dict["NodeId", SessionTimestamp] = {}


class SessionProtocol:
    """The periodic session-message machinery for one agent."""

    def __init__(self, agent: "SrmAgent") -> None:
        self.agent = agent
        self.config = agent.config
        #: The page of the last report merged (by identity: members
        #: viewing one page report the same ``PageId`` object) and the
        #: agent's high-water table for it, which the run handler
        #: (``repro.core.agent.receive_run``) probes for every stream in
        #: every report. ``agent.reception`` is bound once in
        #: ``SrmAgent.__init__`` and never rebound.
        self._page: Optional["PageId"] = None
        self._page_high: Dict[int, int] = {}
        #: Peers heard from: peer -> (their last send time, our receive time).
        self.last_heard: Dict["NodeId", tuple[float, float]] = {}
        self.messages_sent = 0
        #: Administrative scope for this member's session messages; set
        #: by the Section IX-A hierarchy for non-representatives so their
        #: reports stay within the local area.
        self.scope_zone: Optional[str] = None
        #: Current variable-heartbeat interval; None when idle (the vat
        #: interval applies).
        self._heartbeat: Optional[float] = None
        self._timer: Optional[ScheduledEvent] = None

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin periodic reporting (jittered to avoid synchronization)."""
        self._timer = self.agent.network.scheduler.schedule(
            self.agent.rng.uniform(0.0, self.interval()), self._on_timer)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def close(self) -> None:
        """Release the timer's event and let go of the agent
        (``Network.close``): the session is then no reference cycle
        with either. Counters and ``last_heard`` stay readable."""
        if self._timer is not None:
            self._timer.release()
            self._timer = None
        self.agent = None  # type: ignore[assignment]

    def group_size_estimate(self) -> int:
        """Members heard from recently, plus ourselves (the vat input)."""
        return len(self.last_heard) + 1

    def interval(self) -> float:
        """Per-member reporting interval under the vat bandwidth rule.

        Aggregate session traffic of G members sending one message of
        size s every T units is G*s/T; capping it at fraction f of the
        data bandwidth B gives T = G*s/(f*B).
        """
        cfg = self.config
        budget = cfg.session_bandwidth_fraction * cfg.session_data_bandwidth
        scaled = (self.group_size_estimate() * cfg.session_message_size
                  / budget)
        return max(cfg.session_min_interval, scaled)

    def _on_timer(self) -> None:
        self.send_session_message()
        assert self._timer is not None
        self._timer = self.agent.network.scheduler.reschedule_event(
            self._timer, self.agent.rng.jitter(self._next_interval()))

    def _next_interval(self) -> float:
        """The gap until the next report, honoring variable heartbeat."""
        base = self.interval()
        if self._heartbeat is None:
            return base
        current = self._heartbeat
        grown = current * self.config.heartbeat_growth
        if grown >= base:
            self._heartbeat = None  # decayed back to the vat schedule
        else:
            self._heartbeat = grown
        return min(current, base)

    def on_data_sent(self) -> None:
        """LBRM variable heartbeat: a transmission resets the schedule to
        the minimum interval so the high-water report follows the data
        closely (Section VIII)."""
        if not self.config.session_variable_heartbeat:
            return
        self._heartbeat = self.config.heartbeat_min_interval
        timer = self._timer
        if timer is not None and timer.pending:
            scheduler = self.agent.network.scheduler
            if timer.time - scheduler.now > self._heartbeat:
                self._timer = scheduler.reschedule_event(
                    timer, self.agent.rng.jitter(self._heartbeat, 0.2))

    def send_session_message(self) -> None:
        agent = self.agent
        now: float = agent._scheduler.now  # type: ignore[union-attr]
        if agent.config.distance_oracle:
            # Every member resolves distances through the oracle, so the
            # timestamp echoes (one SessionTimestamp per peer heard) would
            # never be read; skip building them. Receivers only .get() on
            # the mapping, so sharing one empty dict is safe.
            echoes: Dict["NodeId", SessionTimestamp] = _NO_ECHOES
        else:
            echoes = {
                peer: SessionTimestamp(t1=their_send, delta=now - our_receive)
                for peer, (their_send, our_receive) in self.last_heard.items()
            }
        payload = SessionPayload(
            member=agent.node_id,
            sent_at=now,
            page=agent.current_page,
            page_state=agent.reception.page_state(agent.current_page),
            echoes=echoes,
        )
        agent.network.send_multicast(
            agent.node_id, agent.group, KIND_SESSION, payload,
            size=self.config.session_message_size,
            scope_zone=self.scope_zone)
        self.messages_sent += 1
        trace = agent.network.trace
        if SEND_SESSION in trace.wanted:
            trace.record(now, agent.node_id, SEND_SESSION,
                         {"scoped": self.scope_zone is not None})
        else:
            trace.kind_totals[SEND_SESSION] += 1

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def handle(self, packet: "Packet") -> None:
        """Digest one report at this member: ``agent.receive``, whose run
        handler (``repro.core.agent.receive_run``) merges it. Nothing in
        the package calls it; the ledger's span tracer still names it a
        boundary (``benchmarks/ledger/tracer.py``)."""
        self.agent.receive(packet)

