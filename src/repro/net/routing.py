"""Shortest-path routing structures.

Both unicast forwarding and multicast distribution in the reproduction are
driven by per-origin shortest-path trees (the paper: "messages are multicast
to members of the multicast group along a shortest-path tree from the
source"). :class:`SourceTree` captures one such tree together with the
derived quantities the experiments need: delay distance, hop count, the
minimum initial TTL required to reach each node, and subtree membership
below each tree edge (for simulating a drop on a "congested link").

A network asks every route question of one *routes* object, chosen once
per topology version: a loaded tree's shared :class:`RootedIndex`, else
its own :class:`SourceTrees`. Both answer ``pair``, ``path``, ``reach``,
``edge``, ``member_tree``, ``cut`` and ``source_tree``, bit for bit
alike.
"""

from __future__ import annotations

import heapq
from itertools import accumulate, repeat
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.net.link import Link
from repro.net.packet import NodeId

Adjacency = Dict[NodeId, Dict[NodeId, Link]]
#: node -> its (neighbour, link) pairs in ascending neighbour id, for
#: graphs with exactly ``nodes - 1`` links: a :class:`RootedIndex` holds
#: its skeleton's, :class:`SourceTrees` makes its own graph's.
NeighborTable = Dict[NodeId, List[Tuple[NodeId, Link]]]


class SourceTree:
    """The shortest-path tree rooted at ``origin``.

    Ties are broken toward the lower node id of the previous hop, so the
    tree is a deterministic function of the topology.
    """

    def __init__(self, origin: NodeId, parent: Dict[NodeId, Optional[NodeId]],
                 dist: Dict[NodeId, float], hops: Dict[NodeId, int],
                 ttl_required: Dict[NodeId, int],
                 children: Dict[NodeId, List[NodeId]]) -> None:
        self.origin = origin
        self.parent = parent
        self.dist = dist
        self.hops = hops
        self.ttl_required = ttl_required
        #: node -> its tree children in ascending id.
        self.children = children
        self._subtree_cache: Dict[NodeId, Set[NodeId]] = {}

    def path(self, node: NodeId) -> List[NodeId]:
        """Nodes on the tree path origin -> node, inclusive."""
        path = [node]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        return path

    def subtree(self, node: NodeId) -> Set[NodeId]:
        """All nodes in the subtree rooted at ``node`` (inclusive).

        Equivalently: the nodes cut off when the tree edge into ``node``
        drops a packet. Results are cached per tree.
        """
        cached = self._subtree_cache.get(node)
        if cached is not None:
            return cached
        members: Set[NodeId] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            members.add(current)
            stack.extend(self.children[current])
        self._subtree_cache[node] = members
        return members

    def cut(self, parent: NodeId, child: NodeId) -> Set[NodeId]:
        """The nodes that lose a packet dropped on ``parent -> child``.

        The edge must be a tree edge pointing away from the origin;
        anything else raises :class:`ValueError`.
        """
        if self.parent.get(child) != parent:
            raise ValueError(f"({parent}, {child}) is not a tree edge "
                             f"directed away from {self.origin}")
        return self.subtree(child)

    def on_tree_edge(self, u: NodeId, v: NodeId) -> Optional[Tuple[NodeId, NodeId]]:
        """Orient an undirected edge along the tree, or None if off-tree.

        Returns (parent, child) when {u, v} is a tree edge.
        """
        if self.parent.get(v) == u:
            return (u, v)
        if self.parent.get(u) == v:
            return (v, u)
        return None


def build_source_tree(adjacency: Adjacency, origin: NodeId,
                      neighbors: Optional[NeighborTable] = None
                      ) -> SourceTree:
    """The shortest-path tree from ``origin`` over the weighted adjacency.

    Also computes, per node, the minimum initial TTL a multicast packet
    needs to reach it along the tree: the TTL at an intermediate node u is
    ``initial_ttl - hops(origin, u)`` and the packet crosses link (u, v)
    only if that is at least the link's threshold.

    A caller whose graph has exactly ``nodes - 1`` links passes its sorted
    ``neighbors`` table. If that graph is connected it is a tree, every
    path is unique, and one traversal yields what Dijkstra would: each
    node's fields are computed from its tree parent's by Dijkstra's own
    expressions, so the floats are bit-identical for any delays. Anything
    else takes Dijkstra below.
    """
    if origin not in adjacency:
        raise KeyError(f"origin {origin} not in topology")
    if neighbors is not None:
        tree = traverse_tree(neighbors, origin)
        if tree is not None:
            return tree
    dist: Dict[NodeId, float] = {origin: 0.0}
    hops: Dict[NodeId, int] = {origin: 0}
    parent: Dict[NodeId, Optional[NodeId]] = {origin: None}
    ttl_required: Dict[NodeId, int] = {origin: 0}
    # Heap entries: (distance, previous-hop id, node). The previous-hop id
    # in the key makes tie-breaking deterministic.
    heap: List[Tuple[float, NodeId, NodeId, Optional[NodeId]]] = [
        (0.0, origin, origin, None)]
    settled: Set[NodeId] = set()
    while heap:
        d, _, node, via = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if via is not None:
            parent[node] = via
            dist[node] = d
            hops[node] = hops[via] + 1
            link = adjacency[via][node]
            ttl_required[node] = max(ttl_required[via],
                                     hops[via] + link.threshold)
        for neighbor, link in sorted(adjacency[node].items()):
            if neighbor in settled:
                continue
            candidate = d + link.delay
            if candidate < dist.get(neighbor, float("inf")):
                dist[neighbor] = candidate
                heapq.heappush(heap, (candidate, node, neighbor, node))
    unreachable = set(adjacency) - settled
    if unreachable:
        raise ValueError(
            f"topology is disconnected; unreachable from {origin}: "
            f"{sorted(unreachable)[:5]}...")
    children: Dict[NodeId, List[NodeId]] = {node: [] for node in parent}
    for node, par in parent.items():
        if par is not None:
            children[par].append(node)
    for kids in children.values():
        kids.sort()
    return SourceTree(origin, parent, dist, hops, ttl_required, children)


def traverse_tree(neighbors: NeighborTable, origin: NodeId,
                  within: Optional[Dict[NodeId, None]] = None
                  ) -> Optional[SourceTree]:
    """Breadth-first tree from ``origin``; None unless every node is reached.

    With ``nodes - 1`` links, reaching every node means the graph is a
    tree; falling short means it is disconnected (and has a cycle). Of
    each link it reads only ``delay`` and ``threshold``, so the herd's
    distance index (:mod:`repro.herd.topo`) hands every edge one shared
    link.

    ``within`` (default: every node) confines the walk to a connected
    node set holding ``origin``; :meth:`RootedIndex.member_tree` passes
    the nodes on the paths to a group's members.
    """
    if within is None:
        within = neighbors  # type: ignore[assignment]
    parent: Dict[NodeId, Optional[NodeId]] = {origin: None}
    dist: Dict[NodeId, float] = {origin: 0.0}
    hops: Dict[NodeId, int] = {origin: 0}
    ttl_required: Dict[NodeId, int] = {origin: 0}
    children: Dict[NodeId, List[NodeId]] = {}
    order = [origin]
    for node in order:  # grows while iterated: the BFS queue
        d = dist[node]
        h = hops[node]
        ttl = ttl_required[node]
        kids: List[NodeId] = []
        for neighbor, link in neighbors[node]:
            if neighbor in parent or neighbor not in within:
                continue
            parent[neighbor] = node
            dist[neighbor] = d + link.delay
            hops[neighbor] = h + 1
            crossing = h + link.threshold
            ttl_required[neighbor] = ttl if ttl > crossing else crossing
            kids.append(neighbor)
        children[node] = kids
        order += kids
    if len(parent) != len(within):  # type: ignore[arg-type]
        return None
    return SourceTree(origin, parent, dist, hops, ttl_required, children)


class RootedIndex:
    """One tree topology, rooted once, answering for every origin.

    On a tree every path is unique, so any one :class:`SourceTree` fixes
    the path between every pair: climb both ends by depth to their
    lowest common ancestor. A :class:`RouteSkeleton` roots its topology
    at node 0 once per process, and every network loaded from it routes
    on that index until it edits its graph. Being shared, it keeps
    nothing per origin or per network.

    Every edge is one ``link``, so a path's delay and the TTL its far
    end needs depend on its hop count alone. Two tables indexed by hop
    count, up to twice the tree's height, hold them: ``delays[h]`` is
    ``0.0`` plus ``h`` additions of the link's delay, the very sum
    :func:`traverse_tree` (and Dijkstra) makes along any ``h``-hop path,
    and ``ttls[h]`` is ``max(ttls[h - 1], h - 1 + threshold)``, its TTL
    rule. So :meth:`pair`, :meth:`reach` and :meth:`edge` count hops by
    climbing depths and read the tables: no traversal, no float work
    and no link read per question. :meth:`member_tree` (the hop
    engine's forwarding tables, link charging) still runs
    :func:`traverse_tree` from the sender.
    """

    __slots__ = ("tree", "neighbors", "half", "delays", "ttls")

    def __init__(self, tree: SourceTree, neighbors: NeighborTable,
                 link: Link) -> None:
        self.tree = tree
        self.neighbors = neighbors
        #: ``nodes[half:]`` is non-empty once ``nodes`` number half the
        #: topology (:meth:`member_tree`; a slice is no call, a ``len``
        #: would be one per member tree).
        self.half = (len(tree.parent) - 1) // 2
        span = 2 * max(tree.hops.values())  # the longest path's hops
        #: hops -> the delay of a path that many hops long.
        self.delays: List[float] = list(accumulate(
            repeat(link.delay, span), initial=0.0))
        #: hops -> the initial TTL a node that many hops away needs.
        self.ttls: List[int] = list(accumulate(
            range(link.threshold, link.threshold + span), max, initial=0))

    def source_tree(self, origin: NodeId) -> SourceTree:
        """``origin``'s full source tree: one traversal, kept nowhere."""
        tree = traverse_tree(self.neighbors, origin)
        assert tree is not None  # the index's topology is a tree
        return tree

    def pair(self, a: NodeId, b: NodeId) -> Tuple[float, int]:
        """(delay, hops) of the path a -> b."""
        parent = self.tree.parent
        depth = self.tree.hops
        depth_a = depth[a]
        depth_b = depth[b]
        hops = depth_a + depth_b
        while a != b:
            if depth_a >= depth_b:
                a = parent[a]  # type: ignore[assignment]
                depth_a -= 1
            else:
                b = parent[b]  # type: ignore[assignment]
                depth_b -= 1
        hops -= 2 * depth_a
        return self.delays[hops], hops

    def reach(self, origin: NodeId, nodes: Sequence[NodeId]
              ) -> Tuple[Dict[NodeId, int], Dict[NodeId, float],
                         Dict[NodeId, int]]:
        """(hops, delay, TTL needed) from ``origin`` to each of ``nodes``.

        One climb memo serves every node: it maps each node visited to
        the depth at which its way to the root meets ``origin``'s, so a
        node's climb stops at the first node already met.
        """
        parent = self.tree.parent
        depth = self.tree.hops
        delays = self.delays
        ttls = self.ttls
        meets: Dict[Optional[NodeId], int] = {}
        node: Optional[NodeId] = origin
        while node is not None:  # origin's way to the root meets itself
            meets[node] = depth[node]
            node = parent[node]
        below = depth[origin]
        hops: Dict[NodeId, int] = {}
        delay: Dict[NodeId, float] = {}
        ttl: Dict[NodeId, int] = {}
        for target in nodes:
            node = target
            while node not in meets:
                node = parent[node]  # type: ignore[index]
            meet = meets[node]
            node = target
            while node not in meets:
                meets[node] = meet
                node = parent[node]  # type: ignore[index]
            count = hops[target] = below + depth[target] - 2 * meet
            delay[target] = delays[count]
            ttl[target] = ttls[count]
        return hops, delay, ttl

    def edge(self, origin: NodeId, a: NodeId, b: NodeId
             ) -> Optional[Tuple[int, NodeId, NodeId, int]]:
        """How a multicast from ``origin`` meets the link {a, b}: (hops
        to its parent end, parent, child, the TTL the child needs).

        Every link of a tree is on every source tree: the end fewer hops
        from ``origin`` is the parent.
        """
        hops, _, ttl = self.reach(origin, (a, b))
        if hops[a] < hops[b]:
            return hops[a], a, b, ttl[b]
        return hops[b], b, a, ttl[a]

    def path(self, a: NodeId, b: NodeId) -> List[NodeId]:
        """Nodes on the path a -> b, inclusive."""
        down_a = self.tree.path(a)
        down_b = self.tree.path(b)
        shared = 0  # root .. lowest common ancestor
        limit = min(len(down_a), len(down_b))
        while shared < limit and down_a[shared] == down_b[shared]:
            shared += 1
        return down_a[:shared - 1:-1] + down_b[shared - 1:]

    def member_tree(self, origin: NodeId,
                    nodes: Sequence[NodeId]) -> SourceTree:
        """``origin``'s source tree cut down to its paths to ``nodes``.

        While ``nodes`` number under half the topology, the result is a
        :class:`SourceTree` over exactly the nodes on some path
        ``origin -> n``: each keeps the parent, children (in the same
        order), delay, hop count and TTL it has in the full tree, so a
        plan, a drop cut or a path read off it for those nodes is the
        full tree's. From half on, one full traversal is cheaper.
        """
        if nodes[self.half:]:  # half the topology or more
            full = traverse_tree(self.neighbors, origin)
            assert full is not None  # the index's topology is a tree
            return full
        parent = self.tree.parent
        depth = self.tree.hops
        rootward: Dict[NodeId, None] = {}  # origin up to the root
        node: Optional[NodeId] = origin
        while node is not None:
            rootward[node] = None
            node = parent[node]
        spanned: Dict[NodeId, None] = {}
        top = depth[origin]  # depth of the highest meeting point
        for node in nodes:
            # Climb to the first node already spanned or on origin's
            # way to the root (the root at the latest).
            while node not in spanned and node not in rootward:
                spanned[node] = None
                node = parent[node]
            if node in rootward and depth[node] < top:
                top = depth[node]
        for node in rootward:
            if depth[node] < top:
                break
            spanned[node] = None
        tree = traverse_tree(self.neighbors, origin, spanned)
        assert tree is not None  # spanned is connected and holds origin
        return tree

    def cut(self, origin: NodeId, parent: NodeId,
            child: NodeId) -> Set[NodeId]:
        """The nodes that lose a packet from ``origin`` dropped on
        ``parent -> child``, a tree edge directed away from ``origin``.

        On a tree that is ``child``'s side of the edge for every origin
        on ``parent``'s side: the rooted subtree of ``child``, or, when
        ``child`` is ``parent``'s rooted parent, every node outside the
        rooted subtree of ``parent``. A new set on every call: the
        rooted tree is shared, so nothing is cached on it.
        """
        rooted = self.tree
        top = child if rooted.parent[child] == parent else parent
        children = rooted.children
        below = {top}
        stack = [top]
        while stack:
            kids = children[stack.pop()]
            below.update(kids)
            stack += kids
        return below if top == child else set(rooted.parent) - below


class SourceTrees:
    """The routes of one version of any graph but a loaded tree: each
    origin's :class:`SourceTree`, built when first asked about and then
    kept. With ``nodes - 1`` links (a tree built by hand or edited in
    place) that is a traversal over an id-sorted neighbour table, else
    Dijkstra (:func:`build_source_tree`)."""

    __slots__ = ("adjacency", "tree_sized", "neighbors", "trees")

    def __init__(self, adjacency: Adjacency, links: int) -> None:
        self.adjacency = adjacency
        self.tree_sized = links == len(adjacency) - 1
        self.neighbors: Optional[NeighborTable] = None  # made on first use
        self.trees: Dict[NodeId, SourceTree] = {}

    def source_tree(self, origin: NodeId) -> SourceTree:
        tree = self.trees.get(origin)
        if tree is None:
            neighbors = self.neighbors
            if neighbors is None and self.tree_sized:
                neighbors = self.neighbors = {
                    node: sorted(links.items())
                    for node, links in self.adjacency.items()}
            tree = self.trees[origin] = build_source_tree(
                self.adjacency, origin, neighbors)
        return tree

    def pair(self, a: NodeId, b: NodeId) -> Tuple[float, int]:
        """(delay, hops) of the path a -> b, off ``a``'s tree."""
        tree = self.source_tree(a)
        return tree.dist[b], tree.hops[b]

    def path(self, a: NodeId, b: NodeId) -> List[NodeId]:
        """Nodes on ``a``'s tree path a -> b, inclusive."""
        return self.source_tree(a).path(b)

    def reach(self, origin: NodeId, nodes: Sequence[NodeId]
              ) -> Tuple[Dict[NodeId, int], Dict[NodeId, float],
                         Dict[NodeId, int]]:
        """(hops, delay, TTL needed) from ``origin``: its kept tree's
        tables, which answer for ``nodes`` and every other node."""
        tree = self.source_tree(origin)
        return tree.hops, tree.dist, tree.ttl_required

    def edge(self, origin: NodeId, a: NodeId, b: NodeId
             ) -> Optional[Tuple[int, NodeId, NodeId, int]]:
        """How a multicast from ``origin`` meets the link {a, b}: (hops
        to its parent end, parent, child, the TTL the child needs), or
        None when the link is off ``origin``'s kept tree."""
        tree = self.source_tree(origin)
        oriented = tree.on_tree_edge(a, b)
        if oriented is None:
            return None
        parent, child = oriented
        return tree.hops[parent], parent, child, tree.ttl_required[child]

    def member_tree(self, origin: NodeId,
                    nodes: Sequence[NodeId]) -> SourceTree:
        """``origin``'s kept tree, whatever ``nodes`` it is asked for."""
        return self.source_tree(origin)

    def cut(self, origin: NodeId, parent: NodeId,
            child: NodeId) -> Set[NodeId]:
        """The nodes that lose a packet from ``origin`` dropped on
        ``parent -> child`` (:meth:`SourceTree.cut`, cached per tree)."""
        return self.source_tree(origin).cut(parent, child)


#: What a network asks every route question of.
Routes = Union[RootedIndex, SourceTrees]


class RouteSkeleton:
    """The routes of one topology, shared by every network built from it.

    ``TopologySpec.build`` keeps one per ``(num_nodes, edges, delay,
    threshold)`` and loads each new network from it
    (:meth:`~repro.net.network.Network.load`). It is read-only: the
    adjacency (each node's neighbours in edge order) and edge set a
    loaded network makes its own nodes and links from, and, when the
    edges form a tree, that tree rooted at node 0 as a
    :class:`RootedIndex`, the routes of every network loaded from it
    until the network edits its graph. Its edges all point at one link
    of its own, carrying the delay and threshold every edge has: so
    :func:`traverse_tree` reads nothing else of a link, and the index
    answers a route's delay and TTL by its hop count alone. A network's
    own links, filters, queues and source trees are never shared.
    """

    __slots__ = ("num_nodes", "edges", "delay", "threshold", "adjacency",
                 "edge_set", "index")

    def __init__(self, num_nodes: int, edges: Tuple[Tuple[NodeId, NodeId],
                                                     ...],
                 delay: float, threshold: int) -> None:
        self.num_nodes = num_nodes
        self.edges = edges
        self.delay = delay
        self.threshold = threshold
        link = Link(0, 1, delay=delay, threshold=threshold)
        adjacency: Adjacency = {node: {} for node in range(num_nodes)}
        for a, b in edges:
            adjacency[a][b] = link
            adjacency[b][a] = link
        self.adjacency = adjacency
        #: Each edge as ``edges`` orients it: a network's own link for
        #: ``{a, b}`` is ``Link(a, b)`` exactly when ``(a, b)`` is here.
        self.edge_set = frozenset(edges)
        self.index: Optional[RootedIndex] = None
        if len(edges) != num_nodes - 1:
            return
        neighbors = {node: sorted(links.items())
                     for node, links in adjacency.items()}
        tree = traverse_tree(neighbors, 0)
        if tree is not None:  # None: disconnected, so not a tree
            self.index = RootedIndex(tree, neighbors, link)
