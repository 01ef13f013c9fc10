"""The network container: topology + delivery engines.

:class:`Network` owns the scheduler, the graph of nodes and links, the
multicast group membership, and the routing state read off per-origin
shortest-path trees. It offers two delivery engines with identical
semantics:

* ``hop`` — reference implementation: packets are forwarded link by link,
  consuming one event per hop, along a per-(origin, group) forwarding
  table. The only engine that models queueing links, so
  ``repro.experiments.congestion``, ``repro.core.layered``'s pruning and
  a fifth of the fuzzer's scenarios run on it.
* ``direct`` — fast implementation: a send is expanded into one arrival
  event per run of receivers at the same shortest-path delay and hop
  count, with drop filters, TTL thresholds and scope zones applied
  analytically against the source tree. A sender keeps its plan, not its
  tree: a plan is read off the routes' per-member hop counts, delays and
  TTLs (on a loaded tree, a climb and two per-hop tables), and filters
  are consulted through per-(origin, link) cut entries. Used by the
  paper-scale experiments.

Both engines hand every delivery to agents one way: as a run of members
served by its cached run binding (:meth:`Network._deliver_many`).

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

from typing import AbstractSet, Any, Callable, Dict, ItemsView, Iterable, \
    Iterator, KeysView, List, Optional, Sequence, Set, Tuple, ValuesView, \
    cast

from repro.mcast.groups import GroupManager
from repro.net.link import DropFilter, Link
from repro.net.node import Agent, Node, receive_each
from repro.net.packet import DEFAULT_TTL, GroupAddress, NodeId, Packet
from repro.net.routing import (RouteSkeleton, Routes, SourceTree,
                                SourceTrees)
from repro.sim import perf
from repro.sim.scheduler import EventScheduler
from repro.sim.trace import DELIVER, DROP, QUEUE_DROP, Trace

#: One delivery-plan entry: (one-way delay, hop count, run), where the
#: run is the tuple of member ids at that delay and hop count, delivered
#: by one event; a member alone at its distance is a run of one.
PlanEntry = Tuple[float, int, Tuple[NodeId, ...]]
#: A delivery plan: (entries, receiver count, distinct hop counts, per
#: entry the index of its hop count among those). The last two let a send
#: make one arrival copy per hop count and hand them out by position
#: (:func:`_copy_slots`).
Plan = Tuple[Tuple[PlanEntry, ...], int, Tuple[int, ...], Tuple[int, ...]]
#: How a run of members takes its packets (:meth:`Network._bind_run`):
#: (run handler, one receiver per member, events saved). A receiver is
#: the member's sole agent, or its :class:`Node` when it carries none or
#: several.
RunBinding = Tuple[Callable[[Sequence[Any], Packet], None],
                   Tuple[Any, ...], int]
#: One forwarding-table row: (run, next hops). The run is ``(node,)``
#: when the node is a member (not the origin), else None; the next hops
#: are the ``(child, link)`` pairs the prune leaves, in
#: ``tree.children`` order.
HopRow = Tuple[Optional[Tuple[NodeId]], Tuple[Tuple[NodeId, Link], ...]]
#: How a multicast from one origin meets one link, as a list: [hops from
#: the origin to the parent end, parent, child, the TTL the child needs,
#: the nodes a drop there cuts off or None until one does]. Lists of
#: distinct links sort upstream-first on their first three fields.
CutEntry = List[Any]
#: What a send that no filter drops loses.
_NOBODY: AbstractSet[NodeId] = frozenset()


class ForwardingTable:
    """The hop engine's state for one (origin, group).

    ``rows`` has one :data:`HopRow` per node of the origin's tree pruned
    to the group's members (DVMRP-style) plus the origin. The other two
    fields are the stamp: the table serves the network's ``routes`` it
    was read off only (a topology edit makes new ones), and only while
    ``GroupManager.version`` still reads ``version``.
    """

    __slots__ = ("routes", "version", "rows")

    def __init__(self, routes: Routes, version: int,
                 rows: Dict[NodeId, HopRow]) -> None:
        self.routes = routes
        self.version = version
        self.rows = rows


class LazyTable(dict):
    """A loaded network's ``nodes`` or ``adjacency``: a dict over the
    topology's node ids whose values are made on first read.

    A hit is a plain dict lookup; a miss on a topology node makes the
    value (the subclass's ``__missing__``) and keeps it. ``len``, ``in``
    and :meth:`get` answer for the whole topology. Iteration,
    :meth:`keys`, :meth:`values` and :meth:`items` make every value
    first, so a whole-graph reader sees what an eagerly built dict
    holds, in node order. Only :class:`Network` mutates it, and it
    swaps in a plain dict first (:meth:`Network._materialize`).
    """

    __slots__ = ("ids", "whole")

    def __init__(self, size: int) -> None:
        super().__init__()
        self.ids = range(size)
        self.whole = False

    def __contains__(self, node_id: object) -> bool:
        return node_id in self.ids

    def __len__(self) -> int:
        return len(self.ids)

    def get(self, node_id: NodeId, default: Any = None) -> Any:
        return self[node_id] if node_id in self.ids else default

    def fill(self) -> "LazyTable":
        """Make every value and put the entries in node order."""
        if not self.whole:
            made = [self[node_id] for node_id in self.ids]
            dict.clear(self)
            dict.update(self, zip(self.ids, made))
            self.whole = True
        return self

    def __iter__(self) -> Iterator[NodeId]:
        return dict.__iter__(self.fill())

    def keys(self) -> KeysView[NodeId]:  # type: ignore[override]
        return dict.keys(self.fill())

    def values(self) -> ValuesView[Any]:  # type: ignore[override]
        return dict.values(self.fill())

    def items(self) -> ItemsView[NodeId, Any]:  # type: ignore[override]
        return dict.items(self.fill())


class NodeTable(LazyTable):
    """node id -> :class:`Node`, made where an agent attaches or a
    delivery arrives."""

    __slots__ = ()

    def __missing__(self, node_id: NodeId) -> Node:
        if node_id not in self.ids:
            raise KeyError(node_id)
        node = self[node_id] = Node(node_id)
        return node


class LinkTable(LazyTable):
    """node id -> {neighbour: :class:`Link`}: a row is made on first
    read, each link once, by whichever row or :meth:`link` asks first,
    and oriented as in ``skeleton.edges``."""

    __slots__ = ("skeleton", "made")

    def __init__(self, skeleton: RouteSkeleton) -> None:
        super().__init__(skeleton.num_nodes)
        self.skeleton = skeleton
        #: (a, b) as ``skeleton.edges`` orients it -> the link.
        self.made: Dict[Tuple[NodeId, NodeId], Link] = {}

    def __missing__(self, node_id: NodeId) -> Dict[NodeId, Link]:
        if node_id not in self.ids:
            raise KeyError(node_id)
        skeleton = self.skeleton
        edge_set = skeleton.edge_set
        made = self.made
        row = self[node_id] = {}
        for other in skeleton.adjacency[node_id]:
            key = ((node_id, other) if (node_id, other) in edge_set
                   else (other, node_id))
            if key in made:
                row[other] = made[key]
            else:
                row[other] = made[key] = Link(
                    key[0], key[1], skeleton.delay, skeleton.threshold)
        return row

    def link(self, a: NodeId, b: NodeId) -> Link:
        """The link between ``a`` and ``b``, without making a's row."""
        skeleton = self.skeleton
        key = (a, b) if (a, b) in skeleton.edge_set else (b, a)
        link = self.made.get(key)
        if link is None:
            if key not in skeleton.edge_set:
                raise KeyError(key)
            link = self.made[key] = Link(key[0], key[1], skeleton.delay,
                                         skeleton.threshold)
        return link

    def links(self) -> List[Link]:
        """Every link, in ``skeleton.edges`` order."""
        link = self.link
        return [link(a, b) for a, b in self.skeleton.edges]


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
        self.adjacency: Dict[NodeId, Dict[NodeId, Link]] = {}
        self._links: List[Link] = []
        self.groups = GroupManager()
        self.scope_zones: Dict[str, Set[NodeId]] = {}
        self.account_bandwidth = False
        self.packets_dropped = 0
        #: Routing caches, all dropped by :meth:`invalidate_routes`.
        #: What answers every route question: a loaded tree topology's
        #: shared :class:`~repro.net.routing.RootedIndex`, else this
        #: graph's own :class:`~repro.net.routing.SourceTrees`.
        self._routes: Routes = SourceTrees(self.adjacency, 0)
        #: (a, b) -> (delay, hops), as the routes answered it.
        self._pairs: Dict[Tuple[NodeId, NodeId], Tuple[float, int]] = {}
        #: (origin, link) -> how a multicast from ``origin`` meets the
        #: link (:meth:`_cut_entry`); None when it never crosses it.
        self._cut_entries: Dict[Tuple[NodeId, Link],
                                Optional[CutEntry]] = {}
        self._filtered_links: Set[Link] = set()
        #: (origin, gid) -> the hop engine's forwarding table, replaced
        #: by :meth:`_forwarding_table` when its stamp no longer matches.
        self._forwarding_tables: Dict[Tuple[NodeId, int],
                                      ForwardingTable] = {}
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
        #: members tuple -> how to deliver to that run, in both engines;
        #: built by :meth:`_bind_run` on the run's first delivery and
        #: cleared whenever :meth:`attach`/:meth:`detach` changes any
        #: node's agent list (the only mutation paths — ``Node.attach``
        #: is not called directly anywhere else).
        self._run_bindings: Dict[Tuple[NodeId, ...], RunBinding] = {}
        #: When True, every packet handed to a node goes through
        #: :meth:`_deliver` and emits a ``deliver`` trace row (built if
        #: the trace wants it); nothing else routes a delivery there.
        #: Off by default: delivery is the hottest path and check mode
        #: (repro.oracle) opts in.
        self.trace_deliveries = False
        self.perf = perf.GLOBAL

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------

    def load(self, skeleton: RouteSkeleton) -> None:
        """Give this empty network ``skeleton``'s topology.

        Nothing is built here: ``nodes`` and ``adjacency`` become
        :class:`LazyTable`\\ s that make this network's own :class:`Node`
        where an agent attaches or a delivery arrives, and its own
        :class:`Link` where the run reads one (``adjacency[a]``,
        :meth:`link_between`). A whole-graph reader (:attr:`links`,
        :meth:`add_node`, :meth:`add_link`, :meth:`invalidate_routes`)
        makes the rest first (:meth:`_materialize`); iteration and
        Dijkstra make it in place. A tree topology routes on the
        skeleton's rooted index until :meth:`invalidate_routes` (a graph
        edit), any other on source trees of its own.
        """
        self.nodes = NodeTable(skeleton.num_nodes)
        self.adjacency = LinkTable(skeleton)
        self._routes = skeleton.index or SourceTrees(self.adjacency,
                                                     len(skeleton.edges))

    def _materialize(self) -> None:
        """Make every node and link of a loaded network, and hold them
        in plain dicts from then on; a no-op for any other network."""
        adjacency = self.adjacency
        if isinstance(adjacency, LinkTable):
            nodes = cast(NodeTable, self.nodes)
            self._links = adjacency.links()
            self.nodes = dict.copy(nodes.fill())
            self.adjacency = dict.copy(adjacency.fill())

    @property
    def links(self) -> List[Link]:
        """Every link: a loaded network's in its skeleton's edge order,
        then those :meth:`add_link` added."""
        self._materialize()
        return self._links

    def add_node(self, node_id: Optional[NodeId] = None) -> Node:
        """Create a node; ids default to consecutive integers."""
        self._materialize()
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
        self._materialize()
        for end in (a, b):
            if end not in self.nodes:
                raise KeyError(f"node {end} does not exist")
        if b in self.adjacency[a]:
            raise ValueError(f"link {a}<->{b} already exists")
        link = Link(a, b, delay=delay, threshold=threshold)
        self._links.append(link)
        self.adjacency[a][b] = link
        self.adjacency[b][a] = link
        self.invalidate_routes()
        return link

    def invalidate_routes(self) -> None:
        """Forget every cached route.

        ``add_node``/``add_link`` call it; so must any caller that edits
        a link's ``delay`` or ``threshold`` in place. A loaded network
        stops reading its skeleton here: it makes every node and link,
        and routes on source trees of its own from then on.
        """
        self._materialize()
        self._routes = SourceTrees(self.adjacency, len(self._links))
        self._pairs = {}
        self._cut_entries = {}
        self._plan_cache = {}

    def link_between(self, a: NodeId, b: NodeId) -> Link:
        adjacency = self.adjacency
        try:
            if isinstance(adjacency, LinkTable):
                return adjacency.link(a, b)
            return adjacency[a][b]
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
        return link

    # ------------------------------------------------------------------
    # Agents and groups
    # ------------------------------------------------------------------

    def attach(self, node_id: NodeId, agent: Agent) -> Agent:
        self.nodes[node_id].attach(agent)
        agent.attached(self, node_id)
        self._run_bindings.clear()
        return agent

    def detach(self, node_id: NodeId, agent: Agent) -> None:
        self.nodes[node_id].detach(agent)
        self._run_bindings.clear()

    def close(self) -> None:
        """End the run: free it without the cyclic garbage collector.

        Every attached agent points back at the network and its
        scheduler, so a finished run is one reference cycle of every
        node, link, tree and trace row it made. This calls each agent's
        :meth:`~repro.net.node.Agent.detached`, which cuts its
        ``network`` and ``_scheduler`` and, for an ``SrmAgent``, the
        cycles of its own (timers that call back into it and its
        contexts; the session's, transmit queue's and FEC codec's
        back-pointers). It drops the node lists and
        run bindings that hold agents, the cut
        entries with their cut sets, the scheduler's pending events
        (each points back at it) and the trace's listeners (an oracle
        suite still listening holds the network). The run is
        then freed by reference counting when its last outside reference
        goes; its trace, links and the agents' stores, reception state
        and counters stay readable. Nothing can be delivered to an agent
        afterwards. Idempotent.
        """
        for node in dict.values(self.nodes):  # only the nodes made
            agents = node.agents
            if agents:
                for agent in agents:
                    agent.detached()
                node.agents = []
        self.scheduler.clear()
        self.trace.unsubscribe_all()
        self._run_bindings = {}
        self._cut_entries = {}

    def join(self, node_id: NodeId, group: GroupAddress) -> None:
        self.groups.join(node_id, group)

    def leave(self, node_id: NodeId, group: GroupAddress) -> None:
        self.groups.leave(node_id, group)

    def group_size(self, group: GroupAddress) -> int:
        """Member count (floored at 1, the way SRM timer math needs it).

        Part of the engine surface (:class:`repro.live.engine.Engine`):
        the sim answers from exact membership; a live engine answers from
        local membership plus the remote peers it has heard from. Read
        once per member of a run (``SrmAgent.params``): one ``len``.
        """
        members = self.groups._members
        return (len(members[group]) or 1) if group in members else 1

    # ------------------------------------------------------------------
    # Routing queries (also the oracle used by experiments)
    # ------------------------------------------------------------------

    def source_tree(self, origin: NodeId) -> SourceTree:
        """``origin``'s full shortest-path tree; a loaded tree keeps none."""
        return self._routes.source_tree(origin)

    def member_tree(self, origin: NodeId,
                    nodes: Sequence[NodeId]) -> SourceTree:
        """``origin``'s routes to ``nodes``, built only as far as needed.

        For every node on a path ``origin -> n`` (``n`` in ``nodes``) the
        result holds the parent, children, delay, hop count and TTL of
        ``source_tree(origin)``, bit for bit; :meth:`SourceTree.cut` and
        :meth:`SourceTree.path` agree on those nodes too. Only a loaded
        tree cuts it down to those paths (:meth:`RootedIndex.member_tree`).
        """
        return self._routes.member_tree(origin, nodes)

    def distance(self, a: NodeId, b: NodeId) -> float:
        """One-way shortest-path delay between two nodes.

        The pair memo answers; a miss asks the routes' ``pair`` (on a
        loaded tree bit for bit ``source_tree(a)``'s numbers, building
        none) and memoises it. :meth:`hops` answers the same way.
        """
        if a == b:
            return 0.0
        key = (a, b)
        if key in self._pairs:
            return self._pairs[key][0]
        found = self._pairs[key] = self._routes.pair(a, b)
        return found[0]

    def hops(self, a: NodeId, b: NodeId) -> int:
        if a == b:
            return 0
        key = (a, b)
        if key in self._pairs:
            return self._pairs[key][1]
        found = self._pairs[key] = self._routes.pair(a, b)
        return found[1]

    def path(self, a: NodeId, b: NodeId) -> List[NodeId]:
        """Nodes on the shortest path a -> b, inclusive (``a``'s tree path)."""
        return self._routes.path(a, b)

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

    def _dropped_subtrees(self, packet: Packet) -> AbstractSet[NodeId]:
        """Consult armed drop filters along the packet's source tree:
        the nodes that lose the packet, empty when no filter drops it."""
        origin = packet.origin
        initial_ttl = packet.initial_ttl
        entries = self._cut_entries
        # Only consult a filter if the packet actually attempts to cross
        # its link: it must reach the upstream end with enough TTL for
        # the threshold (matching hop-by-hop semantics, where a packet
        # that dies upstream never touches the filter).
        crossed: List[Tuple[CutEntry, Link]] = []
        for link in self._filtered_links:
            key = (origin, link)
            try:
                entry = entries[key]
            except KeyError:
                entry = entries[key] = self._cut_entry(origin, link)
            if entry is not None and initial_ttl >= entry[3]:
                crossed.append((entry, link))
        # Consult filters upstream-first so a drop high in the tree shields
        # filters (and their counters) below it, as hop-by-hop delivery would.
        if crossed[1:]:  # two or more
            crossed.sort()
        lost: AbstractSet[NodeId] = _NOBODY
        for entry, link in crossed:
            parent = entry[1]
            if parent in lost:
                continue
            if link.drops_packet(packet, parent):
                child = entry[2]
                self._count_loss(DROP, parent, packet, (parent, child))
                cut = entry[4]
                if cut is None:
                    cut = entry[4] = self._routes.cut(origin, parent, child)
                # A new set for a second drop: cut sets are kept.
                lost = lost | cut if lost else cut
        return lost

    def _cut_entry(self, origin: NodeId, link: Link) -> Optional[CutEntry]:
        """How a multicast from ``origin`` meets ``link``: its
        :data:`CutEntry`, or None when the link is off ``origin``'s
        source tree (the routes' ``edge``).
        """
        found = self._routes.edge(origin, link.a, link.b)
        if found is None:
            return None
        hops, parent, child, ttl = found
        return [hops, parent, child, ttl, None]

    def _zone_allows(self, packet: Packet, path: Sequence[NodeId]) -> bool:
        """Whether every node on ``path`` is in the packet's scope zone."""
        zone = self.scope_zones.get(packet.scope_zone or "", None)
        if packet.scope_zone is None:
            return True
        if zone is None:
            raise KeyError(f"unknown scope zone {packet.scope_zone!r}")
        return all(node in zone for node in path)

    def _multicast_plan(self, packet: Packet,
                        members: Sequence[NodeId]) -> Plan:
        """TTL/zone-eligible receivers for this (origin, group, ttl, zone).

        Each member's hop count, delay and required TTL come from the
        routes' ``reach``: on a loaded tree, hop counts off one climb and
        the rest read from per-hop tables, with no tree built. Receivers
        sharing the same (delay, hop count) are merged into one
        :data:`Plan` entry, a run delivered by a single event. Two
        same-send arrivals tie in time exactly when they tie in delay,
        so a stable sort by delay followed by merging preserves the
        per-receiver firing order the unmerged engine produced:
        receivers at distinct delays were already ordered by time, and
        receivers at equal delay keep their membership-iteration order
        inside the run.

        Drop filters are deliberately *not* folded in: their verdict can
        change per send (counting filters), so cuts are applied on top of
        the plan at send time.
        """
        initial_ttl = packet.initial_ttl
        origin = packet.origin
        hops, delay, ttl_required = self._routes.reach(origin, members)
        eligible = [member for member in members if member != origin
                    and initial_ttl >= ttl_required[member]]
        if packet.scope_zone is not None:
            eligible = [member for member in eligible if self._zone_allows(
                packet, self._routes.path(origin, member))]
        eligible.sort(key=delay.__getitem__)  # stable: membership order
        entries: List[PlanEntry] = []
        # -1 sentinels (no member has negative delay/hops) keep the run
        # state monomorphic floats/ints.
        run_delay, run_hops, start = -1.0, -1, 0
        for index, member in enumerate(eligible):
            member_delay = delay[member]
            member_hops = hops[member]
            if member_delay != run_delay or member_hops != run_hops:
                if index:
                    entries.append((run_delay, run_hops,
                                    tuple(eligible[start:index])))
                run_delay, run_hops, start = member_delay, member_hops, index
        if eligible:
            entries.append((run_delay, run_hops, tuple(eligible[start:])))
        hop_counts, slots = _copy_slots(entries)
        return tuple(entries), len(eligible), hop_counts, slots

    def _multicast_direct(self, packet: Packet) -> None:
        origin = packet.origin
        key = (origin, packet.dst.gid,  # type: ignore[union-attr]
               packet.initial_ttl, packet.scope_zone)
        cached = self._plan_cache.get(key)
        if (cached is not None and cached[0] == self.groups.version
                and cached[1] == self._zone_version):
            plan, receivers, hop_counts, slots = cached[2]
            self.perf.plan_cache_hits += 1
        else:
            # Planned off the routes' ``reach``, with no tree kept; drop
            # filters are consulted through cut entries
            # (:meth:`_dropped_subtrees`), so a sender with a cached
            # plan asks the routes nothing.
            members = self.groups.members(packet.dst)  # type: ignore[arg-type]
            found = self._multicast_plan(packet, members)
            self._plan_cache[key] = (self.groups.version,
                                     self._zone_version, found)
            plan, receivers, hop_counts, slots = found
            self.perf.plan_cache_misses += 1
        # Filters must be consulted on every send (their counters advance
        # with traffic), but the common case — no filter armed anywhere —
        # skips the scan entirely.
        lost = (self._dropped_subtrees(packet)
                if self._filtered_links else _NOBODY)
        if lost:
            # The plan less the cut-off members: runs keep their order
            # and their delay, and runs left empty go.
            kept_entries: List[PlanEntry] = []
            receivers = 0
            for dist, hops, run in plan:
                kept = tuple([member for member in run
                              if member not in lost])
                if kept:
                    kept_entries.append((dist, hops, kept))
                    receivers += len(kept)
            plan = tuple(kept_entries)
            hop_counts, slots = _copy_slots(kept_entries)
        # Every copy the plan needs is made up front and one scheduler
        # call arms the whole plan, one event per run.
        copies = _arrived_copies(packet, hop_counts)
        scheduler = self.scheduler
        scheduler.run_plan(scheduler.now, plan, self._deliver_many,
                           [copies[slot] for slot in slots])
        copied = len(hop_counts)
        counters = self.perf
        counters.arrival_copies += copied
        counters.arrival_copies_shared += receivers - copied
        if self.account_bandwidth:
            members = self.groups.members(packet.dst)  # type: ignore[arg-type]
            self._account_multicast(self.member_tree(origin, members),
                                    packet, members, lost)

    def _account_multicast(self, tree: SourceTree, packet: Packet,
                           members: Sequence[NodeId],
                           lost: AbstractSet[NodeId]) -> None:
        """Charge each traversed link once, on the sender's member tree.

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
            if node in lost:
                continue
            if packet.scope_zone is not None and not self._zone_allows(
                    packet, tree.path(node)):
                continue
            self.adjacency[parent][node].account(packet)

    def _unicast_direct(self, packet: Packet) -> None:
        dst: NodeId = packet.dst  # type: ignore[assignment]
        origin = packet.origin
        if dst == origin:
            self.scheduler.schedule(0.0, self._deliver_many, (dst,), packet)
            return
        # On a tree topology the path comes off the rooted index: a
        # unicast sender builds no source tree.
        try:
            path = self.path(origin, dst)
        except KeyError:
            raise KeyError(f"no route from {origin} to {dst}") from None
        for parent, child in zip(path, path[1:]):
            link = self.adjacency[parent][child]
            if link.filters and link.drops_packet(packet, parent):
                self._count_loss(DROP, parent, packet, (parent, child))
                return
            if self.account_bandwidth:
                link.account(packet)
        arrival = _arrived_copies(packet, (self.hops(origin, dst),))[0]
        self.scheduler.schedule(self.distance(origin, dst),
                                self._deliver_many, (dst,), arrival)

    # ------------------------------------------------------------------
    # Hop-by-hop delivery engine
    # ------------------------------------------------------------------

    def _multicast_hop_start(self, packet: Packet) -> None:
        self._multicast_arrive(packet.origin, packet,
                               self._forwarding_table(packet, self._routes))

    def _forwarding_table(self, packet: Packet,
                          routes: Routes) -> ForwardingTable:
        """The current forwarding table of ``packet``'s group from its
        origin on ``routes``.

        Forwarding only toward nodes with group members at or below them
        models DVMRP-style pruning: leaving a group takes its traffic off
        the subtree, which matters when links have finite bandwidth
        (receiver-driven layering relies on it). Cached per (origin,
        group) and rebuilt when the routes or the membership are no
        longer what the cached table was read off. Its rows come off the
        origin's member tree on ``routes``.
        """
        origin = packet.origin
        group: GroupAddress = packet.dst  # type: ignore[assignment]
        key = (origin, group.gid)
        version = self.groups.version
        table = self._forwarding_tables.get(key)
        if (table is not None and table.routes is routes
                and table.version == version):
            return table
        members = self.groups.members(group)
        tree = routes.member_tree(origin, members)
        parent = tree.parent
        needed: Set[NodeId] = set()
        for member in members:
            node: Optional[NodeId] = member
            while node is not None and node not in needed:
                needed.add(node)
                node = parent[node]
        joined = set(members)
        joined.discard(origin)  # a sender does not hear itself
        children = tree.children
        adjacency = self.adjacency
        rows: Dict[NodeId, HopRow] = {}
        pending = [origin]
        while pending:  # rows in tree order, never in set order
            at = pending.pop()
            links = adjacency[at]
            branches = tuple([(child, links[child])
                              for child in children[at] if child in needed])
            rows[at] = ((at,) if at in joined else None, branches)
            pending.extend([child for child, _ in branches])
        table = self._forwarding_tables[key] = ForwardingTable(
            routes, version, rows)
        return table

    def _multicast_arrive(self, at: NodeId, packet: Packet,
                          table: ForwardingTable) -> None:
        """One hop: hand the packet to ``at`` if it is a member, forward.

        Membership, attachments and how deliveries are observed are
        decided here, hop by hop, not at send time: the event carries the
        table the previous hop used and replaces it when its stamp no
        longer matches, and a member's run ``(at,)`` takes the packet
        through its current binding, which attach and detach clear. The
        routes are never replaced — a packet in flight finishes on the
        routes it started on. The delivery is :meth:`_deliver_many`'s,
        read in place so that a hop costs one frame.
        """
        groups = self.groups
        if table.version != groups.version:
            table = self._forwarding_table(packet, table.routes)
        try:
            members, branches = table.rows[at]
        except KeyError:  # pruned while the packet was in flight
            return
        if members is not None:
            if self.trace_deliveries:
                self._deliver(at, packet)
            else:
                try:
                    handler, targets, _ = self._run_bindings[members]
                except KeyError:
                    handler, targets, _ = self._run_bindings[members] = \
                        self._bind_run(members)
                handler(targets, packet)
            if table.version != groups.version:
                # The receiver itself changed membership.
                table = self._forwarding_table(packet, table.routes)
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
            self._deliver_many((at,), packet)
            return
        next_hop = self.path(at, dst)[1]
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
        """One member's traced delivery: its ``deliver`` row (built if
        the trace wants it) when ``trace_deliveries`` is on, then its
        node's :meth:`~repro.net.node.Node.receive`."""
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
        self.nodes[node_id].receive(packet)

    def _deliver_many(self, members: Tuple[NodeId, ...],
                      packet: Packet) -> None:
        """Deliver one arrival to a run of members: the one way a packet
        reaches agents, in both engines.

        A run is the members a plan entry reaches at one delay and hop
        count, one event in place of ``len(members)``
        (``batched_deliveries`` counts the events saved), or the one
        member a unicast or a hop reaches (:meth:`_multicast_arrive`
        reads the binding in place). With delivery tracing off the run
        goes to its binding (:meth:`_bind_run`): one call of its run
        handler, whatever the packet's kind. With ``trace_deliveries``
        on, decided at fire time (not schedule time), every member goes
        through :meth:`_deliver` and its ``deliver`` row exactly as it
        would with an event of its own.
        """
        if not self.trace_deliveries:
            try:
                handler, targets, saved = self._run_bindings[members]
            except KeyError:
                handler, targets, saved = self._run_bindings[members] = \
                    self._bind_run(members)
            self.perf.batched_deliveries += saved
            handler(targets, packet)
            return
        self.perf.batched_deliveries += len(members) - 1
        deliver = self._deliver
        for member in members:
            deliver(member, packet)

    def _bind_run(self, members: Tuple[NodeId, ...]) -> RunBinding:
        """Resolve how a run of members takes its packets.

        The class's run handler (``Agent.receive_run``) serves the run,
        a run of one too, when every member node carries exactly one
        agent, all of one class; it then takes every packet of the run,
        of any kind (``SrmAgent``'s dispatches on the kind itself). Any
        other run goes to :func:`~repro.net.node.receive_each` over one
        receiver per member: its agent when each node has one, else each
        member's :class:`~repro.net.node.Node`. Runs are bound about as
        often as plans are built when every round has a fresh network,
        hence no per-member call below.
        """
        nodes = self.nodes
        saved = len(members) - 1
        try:
            agents = [agent for (agent,) in
                      [nodes[member].agents for member in members]]
        except ValueError:  # a node with no agent, or with several
            return (receive_each,
                    tuple([nodes[member] for member in members]), saved)
        cls = agents[0].__class__
        if [agent for agent in agents if agent.__class__ is not cls]:
            return receive_each, tuple(agents), saved  # mixed classes
        return cls.receive_run, tuple(agents), saved

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Convenience passthrough to the scheduler."""
        return self.scheduler.run(until=until, max_events=max_events)

    def __repr__(self) -> str:
        adjacency = self.adjacency
        links = (len(adjacency.skeleton.edges)
                 if isinstance(adjacency, LinkTable) else len(self._links))
        return (f"<Network {len(self.nodes)} nodes, {links} links, "
                f"delivery={self.delivery}>")


def _copy_slots(entries: Sequence[PlanEntry]
                ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The distinct hop counts of plan ``entries`` in first-seen order,
    and per entry the index of its hop count among them: a send makes
    one arrival copy per hop count and hands entry ``i`` copy
    ``slots[i]``."""
    per_entry = [entry[1] for entry in entries]
    hop_counts = tuple(dict.fromkeys(per_entry))
    slot_of = {count: slot for slot, count in enumerate(hop_counts)}
    return hop_counts, tuple([slot_of[count] for count in per_entry])


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
