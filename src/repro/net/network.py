"""The network container: topology + delivery engines.

:class:`Network` owns the scheduler, the graph of nodes and links, the
multicast group membership, and the per-origin shortest-path trees. It
offers two delivery engines with identical semantics:

* ``hop`` — reference implementation: packets are forwarded link by link,
  consuming one event per hop, along a per-(source tree, group)
  forwarding table. The only engine that models queueing links, so
  ``repro.experiments.congestion``, ``repro.core.layered``'s pruning and
  a fifth of the fuzzer's scenarios run on it.
* ``direct`` — fast implementation: a send is expanded into one arrival
  event per receiver at the correct shortest-path delay, with drop filters,
  TTL thresholds and scope zones applied analytically against the source
  tree. Used by the paper-scale experiments.

A dedicated equivalence test (tests/test_delivery_equivalence.py) checks
that the two engines deliver the same packets at the same times.

One documented difference: the direct engine consults drop filters at
*send* time, the hop engine at *link-crossing* time. For stateless
filters, and for stateful (counting) filters whose predicate matches
packets from a single origin — the paper's "drop the first data packet
from source S" model — the engines are exactly equivalent, because
packets from one origin cross any given link in send order. A counting
filter matching several origins may pick a different victim when two
packets race toward the same link.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, \
    Sequence, Set, Tuple, Union

from repro.mcast.groups import GroupManager
from repro.net.link import DropFilter, Link
from repro.net.node import Agent, Node
from repro.net.packet import DEFAULT_TTL, GroupAddress, NodeId, Packet
from repro.net.routing import (NeighborTable, RootedIndex, RouteSkeleton,
                                SourceTree, build_source_tree)
from repro.sim import perf
from repro.sim.scheduler import EventScheduler
from repro.sim.trace import DELIVER, DROP, QUEUE_DROP, Trace

#: One delivery-plan entry: (one-way delay, hop count, target), where
#: target is a single member id or a tuple of member ids that share the
#: same delay and hop count and are therefore delivered by one event.
PlanTarget = Union[NodeId, Tuple[NodeId, ...]]
PlanEntry = Tuple[float, int, PlanTarget]
#: A delivery plan: (entries, receiver count, distinct hop counts, per
#: entry the index of its hop count among those). The last two let a send
#: make one arrival copy per hop count and hand them out by position.
Plan = Tuple[Tuple[PlanEntry, ...], int, Tuple[int, ...], Tuple[int, ...]]
#: How :meth:`Network._deliver_many` serves one run of members: (run
#: handler, the run's agents, events saved) or, without a handler,
#: (None, one bound ``receive`` or ``Node.deliver`` per member, saved).
RunBinding = Tuple[Optional[Callable[[Sequence[Agent], Packet], None]],
                   Tuple[Any, ...], int]
#: One forwarding-table row: (receiver, next hops). The receiver is the
#: node's sole agent, the :class:`Node` itself when it carries none or
#: several, and None when the node is not a member (or is the origin);
#: the next hops are the ``(child, link)`` pairs the prune leaves, in
#: ``tree.children`` order.
HopRow = Tuple[Any, Tuple[Tuple[NodeId, Link], ...]]


class ForwardingTable:
    """The hop engine's state for one (source tree, group).

    ``rows`` has one :data:`HopRow` per node of the tree pruned to the
    group's members (DVMRP-style) plus the origin. The other three
    fields are the stamp: the table serves ``tree`` only (a topology
    edit builds new trees), and only while ``GroupManager.version`` and
    the network's attach epoch still read ``version`` and ``epoch``.
    """

    __slots__ = ("tree", "version", "epoch", "rows")

    def __init__(self, tree: SourceTree, version: int, epoch: int,
                 rows: Dict[NodeId, HopRow]) -> None:
        self.tree = tree
        self.version = version
        self.epoch = epoch
        self.rows = rows


class Network:
    """A simulated internetwork."""

    def __init__(self, scheduler: Optional[EventScheduler] = None,
                 trace: Optional[Trace] = None,
                 delivery: str = "direct") -> None:
        if delivery not in ("direct", "hop"):
            raise ValueError(f"unknown delivery mode {delivery!r}")
        self.scheduler = (scheduler if scheduler is not None
                          else EventScheduler())
        self.trace = trace if trace is not None else Trace(keep=())
        self.delivery = delivery
        self.nodes: Dict[NodeId, Node] = {}
        self.links: List[Link] = []
        self.adjacency: Dict[NodeId, Dict[NodeId, Link]] = {}
        self.groups = GroupManager()
        self.scope_zones: Dict[str, Set[NodeId]] = {}
        self.account_bandwidth = False
        self.packets_dropped = 0
        #: Routing caches, all dropped by :meth:`invalidate_routes`.
        self._trees: Dict[NodeId, SourceTree] = {}
        #: Sorted neighbour table, kept only while ``links == nodes - 1``.
        self._neighbors: Optional[NeighborTable] = None
        #: A tree topology's rooted index, built on its first source tree.
        self._index: Optional[RootedIndex] = None
        #: (a, b) -> (delay, hops) answered by the rooted index without
        #: building ``a``'s source tree.
        self._pairs: Dict[Tuple[NodeId, NodeId], Tuple[float, int]] = {}
        #: (origin, gid) -> (membership version, member tree); see
        #: :meth:`_sender_tree`.
        self._member_trees: Dict[Tuple[NodeId, int],
                                 Tuple[int, SourceTree]] = {}
        self._filtered_links: Set[Link] = set()
        self._queueing_links: Set[Link] = set()
        #: (origin, gid) -> the hop engine's forwarding table, replaced
        #: by :meth:`_forwarding_table` when its stamp no longer matches.
        self._forwarding_tables: Dict[Tuple[NodeId, int],
                                      ForwardingTable] = {}
        #: Bumped by :meth:`attach`/:meth:`detach`: forwarding tables
        #: hold each member node's receiver.
        self._attach_epoch = 0
        #: Direct-engine delivery plans: (origin, gid, initial_ttl,
        #: scope_zone) -> (membership version, zone version, plan). A
        #: topology change empties it (:meth:`invalidate_routes`), the
        #: versions invalidate on membership / zone changes. Drop-filter
        #: changes do NOT invalidate: plans exclude filters by design
        #: (cuts are applied per send on top of the cached plan).
        self._plan_cache: Dict[
            Tuple[NodeId, int, int, Optional[str]],
            Tuple[int, int, Plan]] = {}
        self._zone_version = 0
        #: members tuple -> how to deliver to that run; built by
        #: :meth:`_bind_run` on the run's first delivery and cleared
        #: whenever :meth:`attach`/:meth:`detach` changes any node's
        #: agent list (the only mutation paths — ``Node.attach`` is not
        #: called directly anywhere else).
        self._run_bindings: Dict[Tuple[NodeId, ...], RunBinding] = {}
        #: When True, every packet handed to a node goes through
        #: :meth:`_deliver` and emits a ``deliver`` trace row (built if
        #: the trace wants it); nothing else routes a batched or hop
        #: delivery there. Off by default: delivery is the hottest path
        #: and check mode (repro.oracle) opts in.
        self.trace_deliveries = False
        self.perf = perf.GLOBAL

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------

    def load(self, skeleton: RouteSkeleton) -> None:
        """Fill this empty network with ``skeleton``'s nodes and links.

        One frame, not an :meth:`add_node` / :meth:`add_link` per
        element: the nodes and links made here are this network's own,
        while its neighbour table and rooted index are the skeleton's
        until :meth:`invalidate_routes` (a graph edit) drops them.
        """
        delay = skeleton.delay
        threshold = skeleton.threshold
        nodes = range(skeleton.num_nodes)
        self.nodes = {node_id: Node(node_id) for node_id in nodes}
        adjacency: Dict[NodeId, Dict[NodeId, Link]] = {
            node_id: {} for node_id in nodes}
        self.adjacency = adjacency
        self.links = links = [Link(a, b, delay, threshold)
                              for a, b in skeleton.edges]
        for link in links:
            adjacency[link.a][link.b] = link
            adjacency[link.b][link.a] = link
        self._neighbors = skeleton.neighbors
        self._index = skeleton.index

    def add_node(self, node_id: Optional[NodeId] = None) -> Node:
        """Create a node; ids default to consecutive integers."""
        if node_id is None:
            node_id = len(self.nodes)
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} already exists")
        node = Node(node_id)
        self.nodes[node_id] = node
        self.adjacency[node_id] = {}
        self.invalidate_routes()
        return node

    def add_link(self, a: NodeId, b: NodeId, delay: float = 1.0,
                 threshold: int = 1) -> Link:
        for end in (a, b):
            if end not in self.nodes:
                raise KeyError(f"node {end} does not exist")
        if b in self.adjacency[a]:
            raise ValueError(f"link {a}<->{b} already exists")
        link = Link(a, b, delay=delay, threshold=threshold)
        self.links.append(link)
        self.adjacency[a][b] = link
        self.adjacency[b][a] = link
        self.invalidate_routes()
        return link

    def invalidate_routes(self) -> None:
        """Forget every cached route.

        ``add_node``/``add_link`` call it; so must any caller that edits
        a link's ``delay`` or ``threshold`` in place. A loaded network
        stops reading its skeleton here: the neighbour table and rooted
        index are rebuilt from its own links when next needed.
        """
        self._trees = {}
        self._neighbors = None
        self._index = None
        self._pairs = {}
        self._member_trees = {}
        self._plan_cache = {}

    def link_between(self, a: NodeId, b: NodeId) -> Link:
        try:
            return self.adjacency[a][b]
        except KeyError:
            raise KeyError(f"no link between {a} and {b}") from None

    def add_drop_filter(self, a: NodeId, b: NodeId,
                        drop_filter: DropFilter) -> None:
        """Arm a drop filter on the link between a and b."""
        link = self.link_between(a, b)
        link.add_filter(drop_filter)
        self._filtered_links.add(link)

    def clear_drop_filters(self) -> None:
        for link in self._filtered_links:
            link.clear_filters()
        self._filtered_links.clear()

    def define_scope_zone(self, name: str, nodes: Iterable[NodeId]) -> None:
        """Declare an administrative scope zone (Section VII-B1)."""
        self.scope_zones[name] = set(nodes)
        self._zone_version += 1

    def set_link_bandwidth(self, a: NodeId, b: NodeId, bandwidth: float,
                           queue_limit: Optional[int] = None) -> Link:
        """Give a link finite bandwidth and a FIFO buffer.

        Queueing links are only supported by the hop-by-hop delivery
        engine (the direct engine precomputes arrival times and cannot
        model queueing).
        """
        if self.delivery != "hop":
            raise ValueError(
                "queueing links require delivery='hop'; rebuild the "
                "network with spec.build(delivery='hop')")
        link = self.link_between(a, b)
        link.set_bandwidth(bandwidth, queue_limit)
        self._queueing_links.add(link)
        return link

    # ------------------------------------------------------------------
    # Agents and groups
    # ------------------------------------------------------------------

    def attach(self, node_id: NodeId, agent: Agent) -> Agent:
        self.nodes[node_id].attach(agent)
        agent.attached(self, node_id)
        self._run_bindings.clear()
        self._attach_epoch += 1
        return agent

    def detach(self, node_id: NodeId, agent: Agent) -> None:
        self.nodes[node_id].detach(agent)
        self._run_bindings.clear()
        self._attach_epoch += 1

    def close(self) -> None:
        """End the run: free it without the cyclic garbage collector.

        Every attached agent points back at the network and its
        scheduler, so a finished run is one reference cycle of every
        node, link, tree and trace row it made. This calls each agent's
        :meth:`~repro.net.node.Agent.detached`, which cuts its
        ``network`` and ``_scheduler`` and, for an ``SrmAgent``, the
        cycles of its own (timers that call back into it and its
        contexts; the session's, transmit queue's and FEC codec's
        back-pointers). It drops the node lists,
        run bindings and forwarding tables that hold agents, and the
        scheduler's pending events (each points back at it). The run is
        then freed by reference counting when its last outside reference
        goes; its trace, links and the agents' stores, reception state
        and counters stay readable. Nothing can be delivered to an agent
        afterwards. Idempotent.
        """
        for node in self.nodes.values():
            agents = node.agents
            if agents:
                for agent in agents:
                    agent.detached()
                node.agents = []
        self.scheduler.clear()
        self._run_bindings = {}
        self._forwarding_tables = {}

    def join(self, node_id: NodeId, group: GroupAddress) -> None:
        self.groups.join(node_id, group)

    def leave(self, node_id: NodeId, group: GroupAddress) -> None:
        self.groups.leave(node_id, group)

    def group_size(self, group: GroupAddress) -> int:
        """Member count (floored at 1, the way SRM timer math needs it).

        Part of the engine surface (:class:`repro.live.engine.Engine`):
        the sim answers from exact membership; a live engine answers from
        local membership plus the remote peers it has heard from.
        """
        return max(1, self.groups.size(group))

    # ------------------------------------------------------------------
    # Routing queries (also the oracle used by experiments)
    # ------------------------------------------------------------------

    def source_tree(self, origin: NodeId) -> SourceTree:
        tree = self._trees.get(origin)
        if tree is None:
            neighbors = self._neighbors
            if neighbors is None and len(self.links) == len(self.nodes) - 1:
                neighbors = self._neighbors = {
                    node: sorted(links.items())
                    for node, links in self.adjacency.items()}
            tree = build_source_tree(self.adjacency, origin, neighbors)
            self._trees[origin] = tree
        return tree

    def member_tree(self, origin: NodeId,
                    nodes: Sequence[NodeId]) -> SourceTree:
        """``origin``'s routes to ``nodes``, built only as far as needed.

        For every node on a path ``origin -> n`` (``n`` in ``nodes``) the
        result holds the parent, children, delay, hop count and TTL of
        ``source_tree(origin)``, bit for bit; :meth:`SourceTree.cut` and
        :meth:`SourceTree.path` agree on those nodes too. It is the
        rooted index's member tree (:meth:`RootedIndex.member_tree`)
        when the topology is a tree, ``origin`` has no cached source
        tree and ``nodes`` number under half the topology; otherwise it
        is the full source tree, which is cheaper once the paths cover
        most of the topology. Member trees are not cached here.
        """
        tree = self._trees.get(origin)
        if tree is not None:
            return tree
        index = self._rooted_index()
        if index is None or 2 * len(nodes) >= len(self.nodes):
            return self.source_tree(origin)
        return index.member_tree(origin, nodes)

    def _rooted_index(self) -> Optional[RootedIndex]:
        """The topology's rooted index, provided the topology is a tree.

        A loaded network starts with its skeleton's. Otherwise ``nodes
        - 1`` links (``_neighbors`` exists) and a tree that was built (so
        the graph is connected) make it one; paths are then unique and
        can be read off any cached tree whatever its origin.
        """
        index = self._index
        if index is None and self._neighbors is not None and self._trees:
            index = self._index = RootedIndex(
                next(iter(self._trees.values())), self._neighbors,
                self.adjacency)
        return index

    def _walk(self, a: NodeId, b: NodeId) -> Tuple[float, int]:
        """(delay, hops) of the path a -> b when ``a`` has no cached tree.

        A tree topology answers from its rooted index
        (:meth:`RootedIndex.pair`, bit for bit ``source_tree(a)``'s
        numbers) and memoises the pair. Other topologies (and the first
        query of a tree topology) build ``a``'s tree.
        """
        index = self._rooted_index()
        if index is None:
            tree = self.source_tree(a)
            return tree.dist[b], tree.hops[b]
        found = self._pairs[(a, b)] = index.pair(a, b)
        return found

    def distance(self, a: NodeId, b: NodeId) -> float:
        """One-way shortest-path delay between two nodes."""
        if a == b:
            return 0.0
        if a in self._trees:
            return self._trees[a].dist[b]
        key = (a, b)
        if key in self._pairs:
            return self._pairs[key][0]
        return self._walk(a, b)[0]

    def hops(self, a: NodeId, b: NodeId) -> int:
        if a == b:
            return 0
        if a in self._trees:
            return self._trees[a].hops[b]
        key = (a, b)
        if key in self._pairs:
            return self._pairs[key][1]
        return self._walk(a, b)[1]

    def path(self, a: NodeId, b: NodeId) -> List[NodeId]:
        """Nodes on the shortest path a -> b, inclusive (``a``'s tree path)."""
        index = None if a in self._trees else self._rooted_index()
        if index is None:
            return self.source_tree(a).path(b)
        return index.path(a, b)

    def rtt(self, a: NodeId, b: NodeId) -> float:
        """Round-trip delay, assuming symmetric paths as the paper does."""
        return 2.0 * self.distance(a, b)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Inject a packet at its origin node."""
        packet.sent_at = self.scheduler.now
        self.perf.count_packet(packet.kind)
        if packet.is_multicast:
            if self.delivery == "direct":
                self._multicast_direct(packet)
            else:
                self._multicast_hop_start(packet)
        else:
            if self.delivery == "direct":
                self._unicast_direct(packet)
            else:
                self._unicast_hop(packet.origin, packet)

    def send_unicast(self, src: NodeId, dst: NodeId, kind: str,
                     payload: Any = None, size: int = 1000) -> Packet:
        packet = Packet(origin=src, dst=dst, kind=kind, payload=payload,
                        size=size)
        self.send(packet)
        return packet

    def send_multicast(self, src: NodeId, group: GroupAddress, kind: str,
                       payload: Any = None, ttl: int = DEFAULT_TTL,
                       size: int = 1000,
                       scope_zone: Optional[str] = None) -> Packet:
        packet = Packet(origin=src, dst=group, kind=kind, payload=payload,
                        ttl=ttl, size=size, scope_zone=scope_zone)
        self.send(packet)
        return packet

    # ------------------------------------------------------------------
    # Direct delivery engine
    # ------------------------------------------------------------------

    def _dropped_subtrees(self, tree: SourceTree,
                          packet: Packet) -> List[Set[NodeId]]:
        """Consult armed drop filters against the packet's source tree."""
        subtrees: List[Set[NodeId]] = []
        oriented_links: List[Tuple[int, NodeId, NodeId, Link]] = []
        for link in self._filtered_links:
            oriented = tree.on_tree_edge(link.a, link.b)
            if oriented is None:
                continue
            parent, child = oriented
            oriented_links.append((tree.hops[parent], parent, child, link))
        # Consult filters upstream-first so a drop high in the tree shields
        # filters (and their counters) below it, as hop-by-hop delivery would.
        for _, parent, child, link in sorted(oriented_links,
                                             key=lambda item: item[:3]):
            # Only consult the filter if the packet actually attempts to
            # cross this link: it must reach the upstream end with enough
            # TTL for the threshold (matching hop-by-hop semantics, where
            # a packet that dies upstream never touches the filter).
            if packet.initial_ttl < tree.ttl_required[child]:
                continue
            if any(parent in cut for cut in subtrees):
                continue
            if link.drops_packet(packet, parent):
                self._count_loss(DROP, parent, packet, (parent, child))
                subtrees.append(tree.subtree(child))
        return subtrees

    def _zone_allows(self, tree: SourceTree, packet: Packet,
                     target: NodeId) -> bool:
        zone = self.scope_zones.get(packet.scope_zone or "", None)
        if packet.scope_zone is None:
            return True
        if zone is None:
            raise KeyError(f"unknown scope zone {packet.scope_zone!r}")
        return all(node in zone for node in tree.path(target))

    def _multicast_plan(self, tree: SourceTree, packet: Packet) -> Plan:
        """TTL/zone-eligible receivers for this (origin, group, ttl, zone).

        Receivers sharing the same (delay, hop count) are merged into one
        :data:`Plan` entry delivered by a single event. Two same-send
        arrivals tie in time exactly when they tie in delay, so a stable
        sort by delay followed by merging preserves the per-receiver
        firing order the unmerged engine produced: receivers at distinct
        delays were already ordered by time, and receivers at equal delay
        keep their membership-iteration order inside the run.

        Drop filters are deliberately *not* folded in: their verdict can
        change per send (counting filters), so cuts are applied on top of
        the plan at send time.
        """
        initial_ttl = packet.initial_ttl
        origin = packet.origin
        scoped = packet.scope_zone is not None
        dist = tree.dist
        hops = tree.hops
        ttl_required = tree.ttl_required
        eligible: List[Tuple[float, int, NodeId]] = []
        order = 0
        for member in self.groups.members(packet.dst):  # type: ignore[arg-type]
            if member == origin:
                continue
            if initial_ttl < ttl_required[member]:
                continue
            if scoped and not self._zone_allows(tree, packet, member):
                continue
            eligible.append((dist[member], order, member))
            order += 1
        eligible.sort()  # by delay; order index keeps the sort stable
        entries: List[PlanEntry] = []
        # -1 sentinels (no member has negative delay/hops) keep the run
        # state monomorphic floats/ints.
        run_dist, run_hops = -1.0, -1
        run_members: List[NodeId] = []
        for member_dist, _, member in eligible:
            member_hops = hops[member]
            if run_members and member_dist == run_dist \
                    and member_hops == run_hops:
                run_members.append(member)
                continue
            if run_members:
                entries.append((run_dist, run_hops,
                                run_members[0] if len(run_members) == 1
                                else tuple(run_members)))
            run_dist, run_hops = member_dist, member_hops
            run_members = [member]
        if run_members:
            entries.append((run_dist, run_hops,
                            run_members[0] if len(run_members) == 1
                            else tuple(run_members)))
        per_entry = [entry[1] for entry in entries]
        hop_counts = tuple(dict.fromkeys(per_entry))
        slot_of = {count: slot for slot, count in enumerate(hop_counts)}
        return (tuple(entries), len(eligible), hop_counts,
                tuple([slot_of[count] for count in per_entry]))

    def _sender_tree(self, origin: NodeId,
                     group: GroupAddress) -> SourceTree:
        """The tree a multicast from ``origin`` is planned and cut on,
        when ``origin`` has no source tree.

        :meth:`member_tree` over the members and both ends of every
        armed drop filter, so :meth:`_dropped_subtrees` consults the
        filters a full tree would, in the same order. Cached per
        (origin, group) until membership changes, and rebuilt when a
        filter is armed outside it.
        """
        key = (origin, group.gid)
        version = self.groups.version
        cached = self._member_trees.get(key)
        if cached is not None and cached[0] == version:
            inside = cached[1].parent
            for link in self._filtered_links:
                if link.a not in inside or link.b not in inside:
                    break
            else:
                return cached[1]
        spanned = list(self.groups.members(group))
        for link in self._filtered_links:
            spanned += (link.a, link.b)
        tree = self.member_tree(origin, spanned)
        self._member_trees[key] = (version, tree)
        return tree

    def _multicast_direct(self, packet: Packet) -> None:
        origin = packet.origin
        tree = self._trees.get(origin)
        if tree is None:
            tree = self._sender_tree(
                origin, packet.dst)  # type: ignore[arg-type]
        key = (origin, packet.dst.gid,  # type: ignore[union-attr]
               packet.initial_ttl, packet.scope_zone)
        cached = self._plan_cache.get(key)
        if (cached is not None and cached[0] == self.groups.version
                and cached[1] == self._zone_version):
            plan, receivers, hop_counts, slots = cached[2]
            self.perf.plan_cache_hits += 1
        else:
            found = self._multicast_plan(tree, packet)
            self._plan_cache[key] = (self.groups.version,
                                     self._zone_version, found)
            plan, receivers, hop_counts, slots = found
            self.perf.plan_cache_misses += 1
        # Filters must be consulted on every send (their counters advance
        # with traffic), but the common case — no filter armed anywhere —
        # skips the scan entirely.
        cuts = (self._dropped_subtrees(tree, packet)
                if self._filtered_links else ())
        scheduler = self.scheduler
        deliver = self._deliver
        deliver_many = self._deliver_many
        if cuts:
            schedule = scheduler.schedule
            made: Dict[int, Packet] = {}
            scheduled = 0
            for dist, hops, target in plan:
                if type(target) is tuple:
                    kept = [member for member in target
                            if not any(member in cut for cut in cuts)]
                    if not kept:
                        continue
                    count = len(kept)
                    target = kept[0] if count == 1 else tuple(kept)
                else:
                    if any(target in cut for cut in cuts):
                        continue
                    count = 1
                arrival = made.get(hops)
                if arrival is None:
                    made[hops] = arrival = _arrived_copies(packet,
                                                           (hops,))[0]
                if count == 1:
                    schedule(dist, deliver, target, arrival)
                else:
                    schedule(dist, deliver_many, target, arrival)
                scheduled += count
            copied = len(made)
        else:
            # Hot branch: every copy the plan needs is made up front and
            # one scheduler call arms the whole plan (one event per
            # entry, exactly as the per-entry loop would).
            copies = _arrived_copies(packet, hop_counts)
            scheduler.run_plan(scheduler.now, plan, deliver, deliver_many,
                               [copies[slot] for slot in slots])
            scheduled = receivers
            copied = len(hop_counts)
        counters = self.perf
        counters.arrival_copies += copied
        counters.arrival_copies_shared += scheduled - copied
        if self.account_bandwidth:
            members = self.groups.members(packet.dst)  # type: ignore[arg-type]
            self._account_multicast(tree, packet, members, cuts)

    def _account_multicast(self, tree: SourceTree, packet: Packet,
                           members: Sequence[NodeId],
                           cuts: Sequence[Set[NodeId]]) -> None:
        """Charge each traversed link once, on the pruned member tree.

        The multicast flows along the source tree pruned to the members
        (DVMRP-style): a tree edge carries the packet iff some member lies
        at or below its child end, the TTL admits the child, the child is
        not cut off by a drop, and the scope zone admits the child.
        """
        needed: Dict[NodeId, None] = {}  # insertion-ordered node set
        for member in members:
            if member == packet.origin:
                continue
            for node in tree.path(member):
                needed[node] = None
        for node in needed:
            parent = tree.parent[node]
            if parent is None:
                continue
            if packet.initial_ttl < tree.ttl_required[node]:
                continue
            if any(node in cut for cut in cuts):
                continue
            if packet.scope_zone is not None and not self._zone_allows(
                    tree, packet, node):
                continue
            self.adjacency[parent][node].account(packet)

    def _unicast_direct(self, packet: Packet) -> None:
        dst: NodeId = packet.dst  # type: ignore[assignment]
        origin = packet.origin
        if dst == origin:
            self.scheduler.schedule(0.0, self._deliver, dst, packet)
            return
        if dst not in self.nodes:
            raise KeyError(f"no route from {origin} to {dst}")
        # On a tree topology the path comes off the rooted index: a
        # unicast sender builds no source tree.
        path = self.path(origin, dst)
        for parent, child in zip(path, path[1:]):
            link = self.adjacency[parent][child]
            if link.filters and link.drops_packet(packet, parent):
                self._count_loss(DROP, parent, packet, (parent, child))
                return
            if self.account_bandwidth:
                link.account(packet)
        arrival = _arrived_copies(packet, (self.hops(origin, dst),))[0]
        self.scheduler.schedule(self.distance(origin, dst), self._deliver,
                                dst, arrival)

    # ------------------------------------------------------------------
    # Hop-by-hop delivery engine
    # ------------------------------------------------------------------

    def _multicast_hop_start(self, packet: Packet) -> None:
        origin = packet.origin
        table = self._forwarding_table(
            self.source_tree(origin), packet.dst)  # type: ignore[arg-type]
        self._multicast_arrive(origin, packet, table)

    def _forwarding_table(self, tree: SourceTree,
                          group: GroupAddress) -> ForwardingTable:
        """The current forwarding table of ``group`` on ``tree``.

        Forwarding only toward nodes with group members at or below them
        models DVMRP-style pruning: leaving a group takes its traffic off
        the subtree, which matters when links have finite bandwidth
        (receiver-driven layering relies on it). Cached per (origin,
        group) and rebuilt when the tree, the membership or any node's
        agent list is no longer what the cached table was built from.
        """
        key = (tree.origin, group.gid)
        version = self.groups.version
        epoch = self._attach_epoch
        table = self._forwarding_tables.get(key)
        if (table is not None and table.tree is tree
                and table.version == version and table.epoch == epoch):
            return table
        members = self.groups.members(group)
        parent = tree.parent
        needed: Set[NodeId] = set()
        for member in members:
            node: Optional[NodeId] = member
            while node is not None and node not in needed:
                needed.add(node)
                node = parent[node]
        joined = set(members)
        joined.discard(tree.origin)  # a sender does not hear itself
        children = tree.children
        adjacency = self.adjacency
        nodes = self.nodes
        rows: Dict[NodeId, HopRow] = {}
        pending = [tree.origin]
        while pending:  # rows in tree order, never in set order
            at = pending.pop()
            links = adjacency[at]
            branches = tuple([(child, links[child])
                              for child in children[at] if child in needed])
            receiver: Any = None
            if at in joined:
                agents = nodes[at].agents
                receiver = agents[0] if len(agents) == 1 else nodes[at]
            rows[at] = (receiver, branches)
            pending.extend([child for child, _ in branches])
        table = self._forwarding_tables[key] = ForwardingTable(
            tree, version, epoch, rows)
        return table

    def _multicast_arrive(self, at: NodeId, packet: Packet,
                          table: ForwardingTable) -> None:
        """One hop: hand the packet to ``at`` if it is a member, forward.

        Membership, attachments and how deliveries are observed are
        decided here, hop by hop, not at send time: the event carries the
        table the previous hop used and replaces it when its stamp no
        longer matches. The tree is never replaced — a packet in flight
        finishes on the tree it started on.
        """
        groups = self.groups
        if (table.version != groups.version
                or table.epoch != self._attach_epoch):
            table = self._forwarding_table(
                table.tree, packet.dst)  # type: ignore[arg-type]
        try:
            receiver, branches = table.rows[at]
        except KeyError:  # pruned while the packet was in flight
            return
        if receiver is not None:
            # The fire-time test _deliver_many makes: a traced delivery
            # goes through _deliver.
            if self.trace_deliveries:
                self._deliver(at, packet)
            elif receiver.__class__ is Node:
                receiver.deliver(packet)
            else:
                receiver.receive(packet)
            if (table.version != groups.version
                    or table.epoch != self._attach_epoch):
                # The receiver itself changed membership or attachments.
                table = self._forwarding_table(
                    table.tree, packet.dst)  # type: ignore[arg-type]
                branches = table.rows[at][1] if at in table.rows else ()
        scheduler = self.scheduler
        ttl = packet.ttl
        zone = packet.scope_zone
        for child, link in branches:
            if ttl < link.threshold:
                continue
            if zone is not None:
                zone_nodes = self.scope_zones[zone]
                if at not in zone_nodes or child not in zone_nodes:
                    continue
            if link.filters and link.drops_packet(packet, at):
                self._count_loss(DROP, at, packet, (at, child))
                continue
            # Only a queueing link needs the call (and can tail-drop).
            arrival = (scheduler.now + link.delay if link.bandwidth is None
                       else link.arrival_time(scheduler, packet, at))
            if arrival is None:
                self._count_loss(QUEUE_DROP, at, packet, (at, child))
                continue
            if self.account_bandwidth:
                link.account(packet)
            scheduler.schedule_at(arrival, self._multicast_arrive, child,
                                  packet.forwarded_copy(), table)

    def _unicast_hop(self, at: NodeId, packet: Packet) -> None:
        dst: NodeId = packet.dst  # type: ignore[assignment]
        if at == dst:
            self._deliver(at, packet)
            return
        tree = self.source_tree(at)
        next_hop = tree.next_hop_toward(dst)
        link = self.adjacency[at][next_hop]
        if link.filters and link.drops_packet(packet, at):
            self._count_loss(DROP, at, packet, (at, next_hop))
            return
        arrival = link.arrival_time(self.scheduler, packet, at)
        if arrival is None:
            self._count_loss(QUEUE_DROP, at, packet, (at, next_hop))
            return
        if self.account_bandwidth:
            link.account(packet)
        self.scheduler.schedule_at(arrival, self._unicast_hop, next_hop,
                                   packet.forwarded_copy())

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def _count_loss(self, kind: str, at: NodeId, packet: Packet,
                    link: Tuple[NodeId, NodeId]) -> None:
        """Count one packet lost at ``at`` and its ``drop`` /
        ``queue_drop`` row; build the row if the trace wants it."""
        self.packets_dropped += 1
        trace = self.trace
        if kind in trace.wanted:
            trace.record(self.scheduler.now, at, kind, packet=packet.uid,
                         packet_kind=packet.kind, link=link)
        else:
            trace.kind_totals[kind] += 1

    def _deliver(self, node_id: NodeId, packet: Packet) -> None:
        if self.trace_deliveries:
            trace = self.trace
            if DELIVER in trace.wanted:
                trace.record(self.scheduler.now, node_id, DELIVER,
                             packet=packet.uid, packet_kind=packet.kind,
                             origin=packet.origin, ttl=packet.ttl,
                             initial_ttl=packet.initial_ttl,
                             zone=packet.scope_zone,
                             mcast=packet.dst.__class__ is GroupAddress)
            else:
                trace.kind_totals[DELIVER] += 1
        # A node's sole agent takes the packet directly, as in a run
        # binding or a forwarding row; Node.deliver's copy loop serves a
        # node with none or several.
        node = self.nodes[node_id]
        try:
            (agent,) = node.agents
        except ValueError:
            node.deliver(packet)
        else:
            agent.receive(packet)

    def _deliver_many(self, members: Tuple[NodeId, ...],
                      packet: Packet) -> None:
        """Deliver one arrival to a same-(delay, hops) run of receivers.

        One scheduler event replaces ``len(members)`` individual ones;
        ``batched_deliveries`` counts the events saved. When delivery
        tracing is off, the per-member hop through :meth:`_deliver` is
        skipped too: the run goes to its agents' run handler in one
        call, whatever the packet's kind, or failing that to each
        member's bound ``receive`` (see :meth:`_bind_run`). With ``trace_deliveries`` on, decided at
        fire time (not schedule time), every receiver goes through
        ``_deliver`` and its ``deliver`` row exactly as it did when each
        had its own event.
        """
        if not self.trace_deliveries:
            try:
                handler, targets, saved = self._run_bindings[members]
            except KeyError:
                handler, targets, saved = self._run_bindings[members] = \
                    self._bind_run(members)
            self.perf.batched_deliveries += saved
            if handler is not None:
                handler(targets, packet)
            else:
                for receive in targets:
                    receive(packet)
            return
        self.perf.batched_deliveries += len(members) - 1
        deliver = self._deliver
        for member in members:
            deliver(member, packet)

    def _bind_run(self, members: Tuple[NodeId, ...]) -> RunBinding:
        """Resolve how a run of members takes its packets.

        The run handler (``Agent.receive_run``) serves the run when every
        member node carries exactly one agent, all of one class; it then
        takes every packet of the run, of any kind (``SrmAgent``'s
        dispatches on the kind itself). Any other run is bound per
        member: to the agents' ``receive`` when each node has one agent,
        else to :meth:`Node.deliver`. Runs are bound about as often as
        plans are built when every round has a fresh network, hence no
        per-member call below.
        """
        nodes = self.nodes
        saved = len(members) - 1
        try:
            agents = [agent for (agent,) in
                      [nodes[member].agents for member in members]]
        except ValueError:  # a node with no agent, or with several
            return None, tuple([nodes[member].deliver
                                for member in members]), saved
        cls = agents[0].__class__
        handler = cls.receive_run
        if handler is None or [
                agent for agent in agents if agent.__class__ is not cls]:
            return None, tuple([agent.receive for agent in agents]), saved
        return handler, tuple(agents), saved

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Convenience passthrough to the scheduler."""
        return self.scheduler.run(until=until, max_events=max_events)

    def __repr__(self) -> str:
        return (f"<Network {len(self.nodes)} nodes, {len(self.links)} links, "
                f"delivery={self.delivery}>")


def _arrived_copies(packet: Packet,
                    hop_counts: Sequence[int]) -> List[Packet]:
    """The packet as seen by receivers ``hops`` away, per hop count.

    Clones by direct slot assignment rather than the dataclass
    constructor: this allocation runs once per (send, hop-distance), and
    skipping argument marshalling and ``__post_init__`` (delivery plans
    only admit receivers with ``ttl >= hops``, so the TTL checks cannot
    fire) is a measurable share of the delivery hot path.
    """
    new = object.__new__
    origin = packet.origin
    dst = packet.dst
    kind = packet.kind
    payload = packet.payload
    ttl = packet.ttl
    initial_ttl = packet.initial_ttl
    size = packet.size
    scope_zone = packet.scope_zone
    uid = packet.uid
    sent_at = packet.sent_at
    copies = [new(Packet) for _ in hop_counts]
    for copy, hops in zip(copies, hop_counts):
        copy.origin = origin
        copy.dst = dst
        copy.kind = kind
        copy.payload = payload
        copy.ttl = ttl - hops
        copy.initial_ttl = initial_ttl
        copy.size = size
        copy.scope_zone = scope_zone
        copy.uid = uid
        copy.sent_at = sent_at
    return copies
