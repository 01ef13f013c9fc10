"""Link-cost model: N unicast connections vs. one multicast (Section II-A).

"If a sender were to open N separate unicast TCP connections to N
different receivers, then N copies of each packet might have to be sent
over links close to the sender ... Multicast delivery permits at most one
copy of each packet sent over each link."

These are pure computations over the source's shortest paths; no
packets are simulated.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.net.network import Network
from repro.net.packet import NodeId


def unicast_link_cost(network: Network, source: NodeId,
                      receivers: Sequence[NodeId]) -> int:
    """Total link crossings to unicast one packet to every receiver."""
    return sum(network.hops(source, receiver) for receiver in receivers
               if receiver != source)


def multicast_link_cost(network: Network, source: NodeId,
                        receivers: Sequence[NodeId]) -> int:
    """Link crossings for one multicast on the pruned member tree."""
    on_tree = set()
    for receiver in receivers:
        if receiver == source:
            continue
        path = network.path(source, receiver)
        on_tree.update(zip(path[:-1], path[1:]))
    return len(on_tree)


def bandwidth_ratio(network: Network, source: NodeId,
                    receivers: Sequence[NodeId]) -> float:
    """Unicast cost over multicast cost (>= 1, grows with fan-out)."""
    multicast = multicast_link_cost(network, source, receivers)
    if multicast == 0:
        return 1.0
    return unicast_link_cost(network, source, receivers) / multicast


def worst_link_load(network: Network, source: NodeId,
                    receivers: Sequence[NodeId]) -> Tuple[int, int]:
    """(max unicast copies on one link, multicast copies = 1).

    The unicast figure is the paper's "N copies of each packet over links
    close to the sender": the maximum number of unicast paths sharing a
    single directed link.
    """
    load: Dict[Tuple[NodeId, NodeId], int] = {}
    for receiver in receivers:
        if receiver == source:
            continue
        path = network.path(source, receiver)
        for edge in zip(path[:-1], path[1:]):
            load[edge] = load.get(edge, 0) + 1
    if not load:
        return (0, 0)
    return (max(load.values()), 1)
