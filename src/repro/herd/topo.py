"""Numpy distance index over the source tree the agent engine builds.

The herd engine never builds a :class:`repro.net.network.Network`, but
it reads the same :class:`~repro.net.routing.SourceTree`:
:func:`~repro.net.routing.traverse_tree` run over the spec's edges from
the session source, every edge one shared unit-delay link. On those
trees hop counts *are* one-way delays, and this index lays an Euler
tour + sparse-table LCA over the tree
(``d(a,b) = depth[a] + depth[b] - 2*depth[lca]``):

* ``dist_row_to(origin, nodes)`` — integer hop counts from one origin
  to an arbitrary node array in O(len(nodes)) numpy gathers. This is
  the multicast fan-out primitive: a mega-session round issues tens of
  thousands of sends from *distinct* origins, so a per-origin traversal
  (a Python loop over all N nodes) would dominate the whole run.
* ``dist_row(origin)`` — the same against the targets fixed once by
  ``attach_targets`` (the delivery hot path).
* ``dist(a, b)`` — one distance.

Everything else, including the nodes cut off below a dropped link
(:meth:`SourceTree.cut`), is read off ``tree`` directly.

Distances are exact small integers; converted to float64 they compare
bit-identically to the shortest-path delays the agent engine's
``Network.distance`` reports on the same unit-delay tree.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.net.link import Link
from repro.net.routing import SourceTree, traverse_tree
from repro.topology.spec import TopologySpec

IntArray = Any

#: The link behind every herd edge: the traversal reads only its
#: ``delay`` and ``threshold`` (the agent engine's defaults, 1.0 and 1),
#: never its endpoints.
_UNIT_LINK = Link(0, 1)


class TreeIndex:
    """Vectorized LCA distance queries over the source's ``SourceTree``."""

    __slots__ = ("tree", "_depth", "_first", "_sparse", "_logt",
                 "_t_first", "_t_depth")

    def __init__(self, spec: TopologySpec, origin: int) -> None:
        n = spec.num_nodes
        tree = None
        if spec.num_edges == n - 1:
            neighbors: Dict[int, List[Tuple[int, Link]]] = {
                node: [] for node in range(n)}
            for a, b in spec.edges:
                neighbors[a].append((b, _UNIT_LINK))
                neighbors[b].append((a, _UNIT_LINK))
            for row in neighbors.values():
                row.sort()
            tree = traverse_tree(neighbors, origin)
        if tree is None:
            raise ValueError(
                f"topology {spec.name!r} is not a tree: {spec.num_edges} "
                f"edges, {n} nodes, or not connected")
        self.tree: SourceTree = tree

        # Euler tour: a node on entry, and its parent again after each
        # child's subtree (pushed as ~parent, the only negative entries).
        children = tree.children
        first = [0] * n
        euler: List[int] = []
        stack = [origin]
        while stack:
            node = stack.pop()
            if node < 0:
                euler.append(~node)
                continue
            first[node] = len(euler)
            euler.append(node)
            back = ~node
            for kid in reversed(children[node]):
                stack.append(back)
                stack.append(kid)
        depth = np.empty(n, dtype=np.int64)
        depth[np.fromiter(tree.hops.keys(), dtype=np.int64, count=n)] = \
            np.fromiter(tree.hops.values(), dtype=np.int64, count=n)
        tour = np.asarray(euler, dtype=np.int64)
        euler_depth = depth[tour].astype(np.int32)
        length = len(tour)
        levels = max(1, length.bit_length())
        # Value-based sparse table: sparse[k, i] is the *minimum* Euler
        # depth over window [i, i + 2^k) — the LCA depth directly, with
        # no argmin positions to chase through a second gather.
        sparse = np.zeros((levels, length), dtype=np.int32)
        sparse[0] = euler_depth
        for k in range(1, levels):  # 2^k <= length: every window fits
            half = 1 << (k - 1)
            prev = sparse[k - 1]
            best = np.minimum(prev[:length - 2 * half + 1],
                              prev[half:length - half + 1])
            sparse[k, :len(best)] = best
            sparse[k, len(best):] = prev[len(best):]
        # Exact floor(log2(span)) lookup: frexp's exponent is the bit
        # length, so no float-rounding edge cases at powers of two.
        logt = np.frexp(np.arange(length + 1,
                                  dtype=np.float64))[1].astype(np.int64) - 1
        logt[0] = 0
        self._depth = depth
        self._first = np.asarray(first, dtype=np.int64)
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
        self._t_first = self._first[nodes].astype(np.int32)
        self._t_depth = self._depth[nodes].astype(np.int32)

    def dist_row(self, origin: int) -> IntArray:
        """Hop counts from ``origin`` to every attached target (int32)."""
        lca = self._lca_depth(np.int32(self._first[origin]), self._t_first)
        return np.int32(self._depth[origin]) + self._t_depth - 2 * lca

    def dist_row_to(self, origin: int, nodes: IntArray) -> IntArray:
        """Hop counts from ``origin`` to each entry of ``nodes`` (int64)."""
        lca_depth = self._lca_depth(self._first[origin], self._first[nodes])
        return self._depth[origin] + self._depth[nodes] - 2 * lca_depth

    def dist(self, a: int, b: int) -> float:
        """One-way delay between two nodes."""
        lca_depth = self._lca_depth(self._first[a], self._first[b])
        return float(self._depth[a] + self._depth[b] - 2 * lca_depth)
