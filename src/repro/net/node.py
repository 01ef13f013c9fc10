"""Nodes and the agent interface.

A :class:`Node` is a router/host in the topology. Protocol endpoints attach
to a node as :class:`Agent` objects. Every packet delivered to a node
(unicast addressed to it, or multicast for a group the node has joined)
reaches it as part of a run: the members an arrival reaches at one delay
and hop count, or the one member a unicast or a hop reaches. Every run
is one call of a run handler: the agents' class's
:attr:`Agent.receive_run` when the run's nodes each carry one agent,
all of one class; else :func:`receive_each` over the run's agents, or
over its :class:`Node` objects when a node carries no agent or several.

Agents are typed against the :class:`repro.live.engine.Engine` protocol,
not the concrete simulator: the same agent code runs attached to the
discrete-event :class:`~repro.net.network.Network` or to a real-time
:class:`repro.live.session.LiveEngine`.
"""

from __future__ import annotations

from typing import Any, Callable, ClassVar, Optional, Sequence, TYPE_CHECKING

from repro.net.packet import NodeId, Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.live.engine import Engine
    from repro.sim.timers import TimerScheduler


def receive_each(receivers: Sequence[Any], packet: Packet) -> None:
    """The default run handler: each receiver's ``receive``, in order.

    A receiver is an agent or a :class:`Node`; its ``receive`` is looked
    up as it is called, so one set on an instance later is the one called.
    """
    for receiver in receivers:
        receiver.receive(packet)


class Agent:
    """Base class for protocol endpoints.

    Subclasses override :meth:`receive`. ``node_id`` and ``network`` are
    bound when the agent is attached via the engine's ``attach``;
    ``Network.close`` unbinds them again through :meth:`detached`, so a
    finished simulation is no reference cycle.
    """

    #: The run handler, ``receive_run(agents, packet)``: how this class
    #: takes one packet for a whole run of its instances (receivers at
    #: one delay and hop count, each the only agent of its node) in one
    #: call. It must leave every agent as the :meth:`receive` calls, made
    #: in order, would; the default, :func:`receive_each`, makes them.
    #: ``SrmAgent``'s takes a run of any packet kind in one frame
    #: (``repro.core.agent.receive_run``).
    receive_run: ClassVar[Callable[[Sequence[Any], Packet], None]] = \
        staticmethod(receive_each)

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "receive" in cls.__dict__ and "receive_run" not in cls.__dict__:
            # A run handler stands in for the receive it was written
            # beside; a subclass that replaces receive does not inherit it.
            cls.receive_run = staticmethod(receive_each)

    def __init__(self) -> None:
        self.node_id: NodeId = -1
        self.network: "Engine" = None  # type: ignore[assignment]
        #: Bound at attach; hot clock reads skip the network indirection.
        self._scheduler: Optional["TimerScheduler"] = None

    def attached(self, network: "Engine", node_id: NodeId) -> None:
        """Hook called when the agent is bound to a node."""
        self.network = network
        self.node_id = node_id
        self._scheduler = network.scheduler

    def detached(self) -> None:
        """Hook called by ``Network.close``: unbind from the network."""
        self.network = None  # type: ignore[assignment]
        self._scheduler = None

    def receive(self, packet: Packet) -> None:
        """Handle a packet delivered to this agent's node."""
        raise NotImplementedError

    @property
    def now(self) -> float:
        # Only meaningful after attach(); unguarded because this is the
        # hottest clock read in the simulator.
        return self._scheduler.now  # type: ignore[union-attr]


class Node:
    """A vertex in the topology; a container for attached agents."""

    def __init__(self, node_id: NodeId) -> None:
        self.node_id = node_id
        self.agents: list[Agent] = []

    def attach(self, agent: Agent) -> None:
        self.agents.append(agent)

    def detach(self, agent: Agent) -> None:
        self.agents.remove(agent)

    def receive(self, packet: Packet) -> None:
        """Hand a packet to every attached agent, in attach order.

        The copy matters when several agents share a node and one
        detaches another mid-delivery.
        """
        for agent in list(self.agents):
            agent.receive(packet)

    def __repr__(self) -> str:
        return f"<Node {self.node_id} agents={len(self.agents)}>"
