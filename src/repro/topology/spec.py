"""Topology specifications and instantiation into networks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.network import Network
from repro.net.packet import NodeId
from repro.net.routing import RouteSkeleton
from repro.sim.scheduler import EventScheduler
from repro.sim.trace import Trace


@dataclass
class TopologySpec:
    """A topology as pure data: node count plus an undirected edge list.

    ``metadata`` carries generator-specific annotations (e.g. which node is
    the star hub, which nodes are routers vs. workstations).
    """

    name: str
    num_nodes: int
    edges: List[Tuple[NodeId, NodeId]]
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop at {a} in topology {self.name}")
            if not (0 <= a < self.num_nodes and 0 <= b < self.num_nodes):
                raise ValueError(
                    f"edge ({a}, {b}) outside node range in {self.name}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge {key} in {self.name}")
            seen.add(key)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, node: NodeId) -> int:
        return sum(1 for a, b in self.edges if node in (a, b))

    def build(self, scheduler: Optional[EventScheduler] = None,
              trace: Optional[Trace] = None, delivery: str = "direct",
              delay: float = 1.0, threshold: int = 1) -> Network:
        """Instantiate the spec into a simulated network.

        All links share the given delay and TTL threshold; callers needing
        heterogeneous links can adjust ``network.links`` afterwards, then
        call ``network.invalidate_routes()``. Routes come from the
        process's :class:`~repro.net.routing.RouteSkeleton` for this
        content, built on first use; the network's nodes, links and
        caches are its own.
        """
        network = Network(scheduler=scheduler, trace=trace, delivery=delivery)
        network.load(route_skeleton(self.num_nodes, tuple(self.edges),
                                    delay, threshold))
        return network


#: The route skeletons of the topologies built last, most recent last. A
#: sweep builds one topology over and over; a run of fresh topologies
#: costs each a skeleton and keeps only the last few.
_SKELETONS: Dict[Tuple[int, Tuple[Tuple[NodeId, NodeId], ...], float, int],
                 RouteSkeleton] = {}
SKELETON_SLOTS = 4


def route_skeleton(num_nodes: int, edges: Tuple[Tuple[NodeId, NodeId], ...],
                   delay: float, threshold: int) -> RouteSkeleton:
    """The shared skeleton of this topology content, built on a miss."""
    key = (num_nodes, edges, delay, threshold)
    skeleton = _SKELETONS.pop(key, None)
    if skeleton is None:
        skeleton = RouteSkeleton(num_nodes, edges, delay, threshold)
        if len(_SKELETONS) >= SKELETON_SLOTS:
            del _SKELETONS[next(iter(_SKELETONS))]
    _SKELETONS[key] = skeleton
    return skeleton
