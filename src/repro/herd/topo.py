"""Tree-topology index backing the vectorized herd engine.

The herd engine never builds a :class:`repro.net.network.Network`; it
needs only distances. For the unit-delay trees every figure experiment
uses, hop counts *are* one-way delays, so this index replaces the
routing layer entirely:

* ``dist_row_to(origin, nodes)`` — integer hop counts from one origin
  to an arbitrary node array in O(len(nodes)) numpy gathers, via an
  Euler tour + sparse-table LCA (``d(a,b) = depth[a] + depth[b] -
  2*depth[lca]``). This is the multicast fan-out primitive: a
  mega-session round issues tens of thousands of sends from *distinct*
  origins, so per-origin BFS (a Python loop over all N nodes) would
  dominate the whole run.
* ``row(root)`` — one cached full BFS distance row (used for the
  source and for small-scale inspection).
* ``below(parent, child)`` — the node set that loses a packet dropped
  on the directed source-tree edge ``parent -> child``.

Distances are exact small integers; converted to float64 they compare
bit-identically to the shortest-path delays the agent engine's
``Network.distance`` reports on the same unit-delay tree.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

import numpy as np

from repro.topology.spec import TopologySpec

FloatArray = Any
IntArray = Any
BoolArray = Any


class TreeIndex:
    """CSR adjacency + LCA distance queries over a unit-delay tree."""

    __slots__ = ("spec", "num_nodes", "_ptr", "_adj", "_rows", "_edge_set",
                 "_lca_root", "_depth", "_first", "_sparse", "_logt",
                 "_t_nodes", "_t_first", "_t_depth")

    def __init__(self, spec: TopologySpec) -> None:
        if not spec.is_tree():
            raise ValueError(
                f"topology {spec.name!r} is not a tree: {spec.num_edges} "
                f"edges, {spec.num_nodes} nodes, or not connected")
        self.spec = spec
        self.num_nodes = spec.num_nodes
        degree = np.zeros(self.num_nodes, dtype=np.int64)
        for a, b in spec.edges:
            degree[a] += 1
            degree[b] += 1
        self._ptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(degree, out=self._ptr[1:])
        self._adj = np.empty(max(1, 2 * len(spec.edges)), dtype=np.int64)
        fill = self._ptr[:-1].copy()
        for a, b in spec.edges:
            self._adj[fill[a]] = b
            fill[a] += 1
            self._adj[fill[b]] = a
            fill[b] += 1
        self._rows: Dict[int, FloatArray] = {}
        self._edge_set = {(min(a, b), max(a, b)) for a, b in spec.edges}
        self._lca_root: Optional[int] = None
        self._t_nodes: Optional[IntArray] = None

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self._edge_set

    def neighbors(self, node: int) -> IntArray:
        return self._adj[self._ptr[node]:self._ptr[node + 1]]

    # ------------------------------------------------------------------
    # BFS rows (full-node distances from one root; cached)
    # ------------------------------------------------------------------

    def row(self, root: int) -> FloatArray:
        """Distances from ``root`` to every node (inf when unreachable)."""
        cached = self._rows.get(root)
        if cached is not None:
            return cached
        dist = np.full(self.num_nodes, math.inf, dtype=np.float64)
        dist[root] = 0.0
        frontier = [root]
        level = 0.0
        while frontier:
            level += 1.0
            nxt: List[int] = []
            for node in frontier:
                for peer in self._adj[self._ptr[node]:self._ptr[node + 1]]:
                    if math.isinf(dist[peer]):
                        dist[peer] = level
                        nxt.append(int(peer))
            frontier = nxt
        self._rows[root] = dist
        return dist

    # ------------------------------------------------------------------
    # Euler tour + sparse-table LCA
    # ------------------------------------------------------------------

    def _ensure_lca(self, root: int) -> None:
        """Build (once) the Euler tour and RMQ table rooted anywhere.

        Any root inside the component containing the session works; LCA
        distances are root-independent. Nodes outside that component
        keep ``first == -1`` and distance queries to them fail.
        """
        if self._lca_root is not None:
            return
        n = self.num_nodes
        ptr, adj = self._ptr, self._adj
        depth = np.full(n, -1, dtype=np.int64)
        first = np.full(n, -1, dtype=np.int64)
        parent = np.full(n, -1, dtype=np.int64)
        cursor = ptr[:-1].copy()
        euler: List[int] = [root]
        depth[root] = 0
        first[root] = 0
        stack = [root]
        while stack:
            node = stack[-1]
            descended = False
            while cursor[node] < ptr[node + 1]:
                peer = int(adj[cursor[node]])
                cursor[node] += 1
                if peer == parent[node]:
                    continue
                parent[peer] = node
                depth[peer] = depth[node] + 1
                first[peer] = len(euler)
                euler.append(peer)
                stack.append(peer)
                descended = True
                break
            if not descended:
                stack.pop()
                if stack:
                    euler.append(stack[-1])
        tour = np.asarray(euler, dtype=np.int64)
        euler_depth = depth[tour].astype(np.int32)
        length = len(tour)
        levels = max(1, length.bit_length())
        # Value-based sparse table: sparse[k, i] is the *minimum* Euler
        # depth over window [i, i + 2^k) — the LCA depth directly, with
        # no argmin positions to chase through a second gather.
        sparse = np.zeros((levels, length), dtype=np.int32)
        sparse[0] = euler_depth
        for k in range(1, levels):
            half = 1 << (k - 1)
            prev = sparse[k - 1]
            if 2 * half > length:
                sparse[k] = prev
                continue
            best = np.minimum(prev[:length - 2 * half + 1],
                              prev[half:length - half + 1])
            sparse[k, :len(best)] = best
            sparse[k, len(best):] = prev[len(best):]
        # Exact floor(log2(span)) lookup: frexp's exponent is the bit
        # length, so no float-rounding edge cases at powers of two.
        logt = np.frexp(np.arange(length + 1,
                                  dtype=np.float64))[1].astype(np.int64) - 1
        logt[0] = 0
        self._lca_root = root
        self._depth = depth
        self._first = first
        self._sparse = sparse
        self._logt = logt

    def _lca_depth(self, f_a: Any, f_b: Any) -> Any:
        """Minimum Euler depth between tour positions (vectorized RMQ)."""
        lo = np.minimum(f_a, f_b)
        hi = np.maximum(f_a, f_b)
        k = self._logt[hi - lo + 1]
        return np.minimum(self._sparse[k, lo],
                          self._sparse[k, hi - (1 << k) + 1])

    def attach_targets(self, nodes: IntArray) -> None:
        """Precompute per-target tour positions for :meth:`dist_row`.

        ``dist_row`` is the delivery hot path — one call per multicast
        send — so the per-target gathers (``first[nodes]``,
        ``depth[nodes]``) are hoisted out of it here, once.
        """
        self._ensure_lca(int(nodes[0]))
        first = self._first[nodes]
        if np.any(first < 0):
            raise KeyError(int(np.asarray(nodes)[first < 0][0]))
        self._t_nodes = np.asarray(nodes, dtype=np.int64)
        self._t_first = first.astype(np.int32)
        self._t_depth = self._depth[nodes].astype(np.int32)

    def dist_row(self, origin: int) -> IntArray:
        """Hop counts from ``origin`` to every attached target (int32)."""
        if self._t_nodes is None:
            raise RuntimeError("attach_targets() has not been called")
        f_origin = int(self._first[origin])
        if f_origin < 0:
            raise KeyError(origin)
        lca = self._lca_depth(np.int32(f_origin), self._t_first)
        return np.int32(self._depth[origin]) + self._t_depth - 2 * lca

    def dist_row_to(self, origin: int, nodes: IntArray) -> IntArray:
        """Hop counts from ``origin`` to each entry of ``nodes`` (int64).

        Vectorized LCA: a handful of O(len(nodes)) gathers, no Python
        loop. Raises :class:`KeyError` when the origin or any target is
        outside the indexed component.
        """
        self._ensure_lca(origin)
        first = self._first
        f_origin = int(first[origin])
        if f_origin < 0:
            raise KeyError(origin)
        f_nodes = first[nodes]
        if np.any(f_nodes < 0):
            raise KeyError(int(np.asarray(nodes)[f_nodes < 0][0]))
        lca_depth = self._lca_depth(f_origin, f_nodes)
        return self._depth[origin] + self._depth[nodes] - 2 * lca_depth

    def dist(self, a: int, b: int) -> float:
        """One-way delay between two nodes (KeyError when unroutable)."""
        if a == b:
            return 0.0
        row = self._rows.get(a)
        if row is not None:
            value = float(row[b])
        else:
            row = self._rows.get(b)
            if row is not None:
                value = float(row[a])
            else:
                value = float(self.dist_row_to(
                    a, np.asarray([b], dtype=np.int64))[0])
        if math.isinf(value):
            raise KeyError((a, b))
        return value

    # ------------------------------------------------------------------
    # Loss classification
    # ------------------------------------------------------------------

    def below(self, parent: int, child: int) -> BoolArray:
        """Membership mask of the component under ``parent -> child``.

        These are the nodes cut off when that tree edge drops a packet:
        everything reachable from ``child`` without crossing back over
        ``parent``.
        """
        if not self.has_edge(parent, child):
            raise ValueError(f"({parent}, {child}) is not a tree edge")
        mask = np.zeros(self.num_nodes, dtype=bool)
        mask[parent] = True        # block the dropped edge
        mask[child] = True
        frontier = [child]
        while frontier:
            nxt: List[int] = []
            for node in frontier:
                for peer in self._adj[self._ptr[node]:self._ptr[node + 1]]:
                    if not mask[peer]:
                        mask[peer] = True
                        nxt.append(int(peer))
            frontier = nxt
        mask[parent] = False
        return mask
