"""The engine protocol: the environment surface SRM agents run against.

Everything an :class:`~repro.core.agent.SrmAgent` (and the session
protocol, the whiteboard, the oracles) asks of its environment is one of
four capabilities — clock reads and timer scheduling (``scheduler``),
multicast send (``send_multicast``) and membership (``attach`` / ``join``
/ ``leave`` / ``group_size``), topology estimates (``distance`` /
``rtt`` / ``distance_row``), and tracing (``trace``). :class:`Engine`
pins that surface down as a structural protocol so the protocol
machinery never names a concrete engine.

Two implementations exist:

* :class:`repro.net.network.Network` — the discrete-event simulator.
  It predates this protocol and conforms structurally, unchanged.
* :class:`repro.live.session.LiveEngine` — real time over asyncio, with
  an in-process mesh and/or UDP socket transports.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Protocol, runtime_checkable

from repro.net.node import Agent
from repro.net.packet import DEFAULT_TTL, GroupAddress, NodeId, Packet
from repro.sim.timers import TimerScheduler
from repro.sim.trace import Trace


@runtime_checkable
class Engine(Protocol):
    """What an attached agent may ask of its execution environment.

    Read-only properties (not plain attributes) so implementations may
    expose narrower concrete types covariantly.
    """

    __slots__ = ()

    @property
    def scheduler(self) -> TimerScheduler:
        """The clock and one-shot timer facility."""
        ...

    @property
    def trace(self) -> Trace:
        """The engine's trace stream (metrics and oracles subscribe)."""
        ...

    def attach(self, node_id: NodeId, agent: Agent) -> Agent:
        """Bind ``agent`` to the node ``node_id``."""
        ...

    def join(self, node_id: NodeId, group: GroupAddress) -> None:
        """Subscribe ``node_id`` to ``group`` (IGMP join)."""
        ...

    def leave(self, node_id: NodeId, group: GroupAddress) -> None:
        """Unsubscribe ``node_id`` from ``group``."""
        ...

    def send_multicast(self, src: NodeId, group: GroupAddress, kind: str,
                       payload: Any = None, ttl: int = DEFAULT_TTL,
                       size: int = 1000,
                       scope_zone: Optional[str] = None) -> Packet:
        """Multicast ``payload`` from ``src`` to the group."""
        ...

    def distance(self, a: NodeId, b: NodeId) -> float:
        """Estimated one-way delay between two nodes.

        The sim answers with the routing oracle; a live engine answers
        with session-derived estimates. May raise ``KeyError`` for an
        unknown pair.
        """
        ...

    def rtt(self, a: NodeId, b: NodeId) -> float:
        """Round-trip delay (symmetric paths, as the paper assumes)."""
        ...

    def distance_row(self, node: NodeId) -> Mapping[NodeId, float]:
        """``node``'s distances by subscript: ``row[b]`` is
        ``distance(node, b)`` (and ``2.0 * row[b]`` is ``rtt``), so an
        agent holding the row reads one with no call."""
        ...

    def group_size(self, group: GroupAddress) -> int:
        """Known session size for ``group``, floored at 1."""
        ...
