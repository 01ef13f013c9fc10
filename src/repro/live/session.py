"""The real-time engine: SRM agents over asyncio instead of sim events.

:class:`LiveEngine` implements the :class:`repro.live.engine.Engine`
surface — the same one :class:`repro.net.network.Network` offers — so an
unmodified :class:`~repro.core.agent.SrmAgent` (and the whiteboard built
on it) runs in real time. Local members multicast to each other through
the in-process mesh (via the :class:`~repro.live.transport.LinkEmulator`
proxy link), and an optional socket transport extends the session to
remote processes over the wire codec.

Differences from the sim, by design:

* **Distances** come from the agents' own session-protocol estimates
  (live configs run ``distance_oracle=False``); unknown peers fall back
  to ``default_distance``.
* **Group size** is local membership plus remote origins heard, the way
  a deployed SRM learns session size from traffic.
* **Receive hardening**: a frame that is not exactly a packet — bad
  JSON shape, a mistyped field, application data its ``data`` codec
  refuses — raises :class:`~repro.codec.WireFormatError` in the packet
  table and is dropped and counted (``decode_errors``) before any agent
  sees it.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.codec import ANY, Codec, WireFormatError
from repro.core.config import SrmConfig
from repro.core.session import EstimateRow
from repro.live.framing import frame_to_packet, packet_to_frame
from repro.live.scheduler import LiveScheduler
from repro.live.transport import LinkEmulator, _UdpTransportBase
from repro.mcast.groups import GroupManager
from repro.net.node import Agent, Node
from repro.net.packet import DEFAULT_TTL, GroupAddress, NodeId, Packet
from repro.sim import perf
from repro.sim.trace import DELIVER, DROP, Trace


def live_config(**overrides: Any) -> SrmConfig:
    """An :class:`SrmConfig` tuned for wall-clock sessions.

    Sub-second distances and fast session heartbeats (loss recovery in
    tens of milliseconds instead of simulated time units), estimates
    instead of the routing oracle. Override freely.
    """
    base: Dict[str, Any] = {
        "distance_oracle": False,
        "session_enabled": True,
        "session_min_interval": 0.3,
        "session_variable_heartbeat": True,
        "default_distance": 0.05,
    }
    base.update(overrides)
    return SrmConfig(**base)


class LiveEngine:
    """An asyncio execution environment satisfying the engine protocol.

    One engine per process. Attach one or more local agents; give it a
    ``link`` to emulate an impaired network among them (the in-process
    mesh), and/or a socket ``transport`` to reach other processes.
    ``data`` frames application payloads on the wire (the whiteboard
    passes :data:`repro.wb.drawops.DRAWOPS`).
    """

    def __init__(self, transport: Optional[_UdpTransportBase] = None,
                 link: Optional[LinkEmulator] = None,
                 trace: Optional[Trace] = None,
                 default_distance: float = 0.05,
                 data: Codec = ANY) -> None:
        self.scheduler = LiveScheduler()
        self.trace = trace if trace is not None else Trace()
        self.transport = transport
        self.link = link
        self.default_distance = default_distance
        self.groups = GroupManager()
        self.nodes: Dict[NodeId, Node] = {}
        self.trace_deliveries = False
        self.perf = perf.GLOBAL
        self._data = data
        #: gid -> remote origins heard (insertion-ordered dict-as-set).
        self._remote_members: Dict[int, Dict[NodeId, None]] = {}
        #: Frames dropped because they failed to decode into a packet.
        self.decode_errors = 0
        #: Frames received and decoded from the transport.
        self.frames_received = 0
        #: Deliveries suppressed by the proxy link's injected loss.
        self.packets_dropped = 0

    # ------------------------------------------------------------------
    # Engine surface (see repro.live.engine.Engine)
    # ------------------------------------------------------------------

    def attach(self, node_id: NodeId, agent: Agent) -> Agent:
        node = self.nodes.get(node_id)
        if node is None:
            node = Node(node_id)
            self.nodes[node_id] = node
        node.attach(agent)
        agent.attached(self, node_id)
        return agent

    def detach(self, node_id: NodeId, agent: Agent) -> None:
        self.nodes[node_id].detach(agent)

    def join(self, node_id: NodeId, group: GroupAddress) -> None:
        self.groups.join(node_id, group)

    def leave(self, node_id: NodeId, group: GroupAddress) -> None:
        self.groups.leave(node_id, group)

    def group_size(self, group: GroupAddress) -> int:
        remote = self._remote_members.get(group.gid)
        size = self.groups.size(group) + (len(remote) if remote else 0)
        return max(1, size)

    def distance(self, a: NodeId, b: NodeId) -> float:
        """Session-estimated one-way delay from ``a``'s point of view.

        Answered from the local agent's distance estimator when ``a`` is
        local (the estimator returns its own default for unknown peers);
        ``default_distance`` otherwise.
        """
        if a == b:
            return 0.0
        agent = self._srm_agent(a)
        if agent is not None:
            distances = getattr(agent, "distances", None)
            if distances is not None:
                return float(distances.distance(b))
        return self.default_distance

    def rtt(self, a: NodeId, b: NodeId) -> float:
        return 2.0 * self.distance(a, b)

    def distance_row(self, a: NodeId) -> Mapping[NodeId, float]:
        """The local agent's estimator row at ``a``, so its RTTs equal
        :meth:`rtt`; any other node reads ``default_distance``."""
        agent = self._srm_agent(a)
        if agent is not None:
            return agent.distances.row  # type: ignore[attr-defined]
        row = EstimateRow()
        row.default = self.default_distance
        return row

    def send_multicast(self, src: NodeId, group: GroupAddress, kind: str,
                       payload: Any = None, ttl: int = DEFAULT_TTL,
                       size: int = 1000,
                       scope_zone: Optional[str] = None) -> Packet:
        packet = Packet(origin=src, dst=group, kind=kind, payload=payload,
                        ttl=ttl, size=size, scope_zone=scope_zone)
        packet.sent_at = self.scheduler.now
        self.perf.count_packet(kind)
        self._deliver_local(src, group, packet)
        if self.transport is not None:
            self.transport.send_frame(
                packet_to_frame(packet, self._data))
        return packet

    # ------------------------------------------------------------------
    # In-process mesh delivery
    # ------------------------------------------------------------------

    def _deliver_local(self, src: NodeId, group: GroupAddress,
                       packet: Packet) -> None:
        link = self.link
        for member in self.groups.members(group):
            if member == src or member not in self.nodes:
                continue
            if link is None:
                self.scheduler.schedule(0.0, self._deliver, member, packet)
                continue
            if link.drops(packet):
                self._count_drop(src, member, packet)
                continue
            self.scheduler.schedule(link.delay_draw(), self._deliver,
                                    member, packet)

    def _deliver(self, node_id: NodeId, packet: Packet) -> None:
        node = self.nodes.get(node_id)
        if node is None:
            return
        if self.trace_deliveries:
            self.trace.record(self.scheduler.now, node_id, DELIVER,
                              packet=packet.uid, packet_kind=packet.kind,
                              origin=packet.origin, ttl=packet.ttl,
                              initial_ttl=packet.initial_ttl,
                              zone=packet.scope_zone, mcast=True)
        node.receive(packet)

    def _count_drop(self, src: NodeId, member: NodeId,
                    packet: Packet) -> None:
        self.packets_dropped += 1
        self.trace.record(self.scheduler.now, member, DROP,
                          packet=packet.uid, packet_kind=packet.kind,
                          link=(src, member))

    # ------------------------------------------------------------------
    # Transport receive path
    # ------------------------------------------------------------------

    def _on_frame(self, wire: Dict[str, Any]) -> None:
        """One decoded frame from the transport. Never raises."""
        self.scheduler.advance()
        try:
            packet = frame_to_packet(wire, self._data)
        except WireFormatError:
            self.decode_errors += 1
            return
        if packet.origin in self.nodes:
            return  # our own multicast looped back
        dst = packet.dst
        if not isinstance(dst, GroupAddress):
            return  # live sessions are multicast-only
        self.frames_received += 1
        self._remote_members.setdefault(dst.gid, {})[packet.origin] = None
        link = self.link
        for member in self.groups.members(dst):
            if member not in self.nodes:
                continue
            if link is None:
                self._deliver(member, packet)
                continue
            if link.drops(packet):
                self._count_drop(packet.origin, member, packet)
                continue
            self.scheduler.schedule(link.delay_draw(), self._deliver,
                                    member, packet)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, duration: float,
            stop_when: Optional[Callable[[], bool]] = None,
            poll: float = 0.05) -> None:
        """Drive the session for up to ``duration`` wall-clock seconds.

        ``stop_when`` (polled every ``poll`` seconds) ends the run
        early — convergence checks use it so tests can grant a generous
        timeout without paying for it in the common case.
        """
        asyncio.run(self._run(duration, stop_when, poll))

    async def _run(self, duration: float,
                   stop_when: Optional[Callable[[], bool]],
                   poll: float) -> None:
        loop = asyncio.get_running_loop()
        if self.transport is not None:
            await self.transport.open(loop, self._on_frame)
        self.scheduler.start(loop)
        try:
            deadline = loop.time() + duration
            while True:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                await asyncio.sleep(min(poll, remaining))
                # A poll is a dispatch point too: no callback is running,
                # so stop_when sees fresh session time.
                self.scheduler.advance()
                if stop_when is not None and stop_when():
                    break
        finally:
            self.scheduler.stop()
            self.scheduler.advance()
            if self.transport is not None:
                await self.transport.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _srm_agent(self, node_id: NodeId) -> Optional[Agent]:
        node = self.nodes.get(node_id)
        if node is None:
            return None
        for agent in node.agents:
            if hasattr(agent, "distances"):
                return agent
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LiveEngine {len(self.nodes)} nodes "
                f"transport={self.transport!r}>")


# ----------------------------------------------------------------------
# Oracles over the live trace stream
# ----------------------------------------------------------------------


def live_oracles(include_delivery: bool = False) -> List[type]:
    """The oracle subset that is wall-clock tolerant.

    The frozen per-callback clock keeps every timestamp-equality
    invariant intact, so the trace schema, scheduler monotonicity,
    request backoff, repair hold-down and suppression all run unchanged
    (their distance-derived delay *bounds* self-disable under
    ``distance_oracle=False``, as in the sim). Excluded:
    ``ScopeTtlOracle`` needs the sim's source trees, and
    ``DeliveryConsistencyOracle`` needs a quiescent end state — opt in
    via ``include_delivery`` when the run ends with a drain phase.
    """
    from repro.oracle.checkers import (DeliveryConsistencyOracle,
                                       RepairHolddownOracle,
                                       RequestTimerOracle,
                                       SchedulerMonotonicityOracle,
                                       SuppressionOracle, TraceSchemaOracle)
    oracles: List[type] = [TraceSchemaOracle, SchedulerMonotonicityOracle,
                           RequestTimerOracle, RepairHolddownOracle,
                           SuppressionOracle]
    if include_delivery:
        oracles.append(DeliveryConsistencyOracle)
    return oracles


def attach_live_oracles(engine: LiveEngine,
                        agents: Optional[Dict[Any, Any]] = None,
                        include_delivery: bool = False) -> Any:
    """Subscribe a wall-clock-tolerant oracle suite to a live engine.

    Returns the :class:`repro.oracle.SessionOracleSuite`; call its
    ``verify()`` after the run.
    """
    from repro.oracle.base import SessionOracleSuite

    return SessionOracleSuite.attach(
        engine,  # type: ignore[arg-type]  # structural Engine, not Network
        agents=agents, oracles=live_oracles(include_delivery))
