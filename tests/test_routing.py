"""Unit tests for shortest-path source trees."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import routing
from repro.net.routing import build_source_tree
from repro.sim.rng import RandomSource
from repro.topology.chain import chain
from repro.topology.graphs import tree_plus_edges
from repro.topology.random_tree import random_labeled_tree
from repro.topology.spec import TopologySpec
from repro.topology.star import star

from conftest import examples


def adjacency_of(spec, delays=None, thresholds=None):
    network = spec.build()
    if delays:
        for (a, b), delay in delays.items():
            network.link_between(a, b).delay = delay
    if thresholds:
        for (a, b), threshold in thresholds.items():
            network.link_between(a, b).threshold = threshold
    return network.adjacency


def test_chain_distances_and_parents():
    tree = build_source_tree(adjacency_of(chain(6)), 0)
    assert [tree.dist[i] for i in range(6)] == [0, 1, 2, 3, 4, 5]
    assert tree.parent[3] == 2
    assert tree.parent[0] is None
    assert tree.children[2] == [3]


def test_star_distances():
    tree = build_source_tree(adjacency_of(star(5)), 1)
    assert tree.dist[0] == 1
    for leaf in range(2, 6):
        assert tree.dist[leaf] == 2
        assert tree.parent[leaf] == 0


def test_matches_networkx_on_random_graphs():
    rng = RandomSource(11)
    for trial in range(5):
        spec = tree_plus_edges(40, 55, rng)
        graph = nx.Graph(spec.edges)
        adjacency = adjacency_of(spec)
        source = trial * 7 % 40
        tree = build_source_tree(adjacency, source)
        expected = nx.single_source_shortest_path_length(graph, source)
        for node, hops in expected.items():
            assert tree.hops[node] == hops
            assert tree.dist[node] == float(hops)


def test_weighted_distances_match_networkx():
    spec = chain(5)
    delays = {(0, 1): 5.0, (1, 2): 1.0, (2, 3): 2.0, (3, 4): 0.5}
    adjacency = adjacency_of(spec, delays=delays)
    tree = build_source_tree(adjacency, 0)
    assert tree.dist[4] == pytest.approx(8.5)
    assert tree.hops[4] == 4


def test_subtree_members():
    tree = build_source_tree(adjacency_of(chain(6)), 0)
    assert tree.subtree(3) == {3, 4, 5}
    assert tree.subtree(0) == set(range(6))
    assert tree.subtree(5) == {5}


def test_path():
    tree = build_source_tree(adjacency_of(chain(5)), 0)
    assert tree.path(3) == [0, 1, 2, 3]
    assert tree.path(0) == [0]


def test_on_tree_edge_orientation():
    tree = build_source_tree(adjacency_of(chain(4)), 0)
    assert tree.on_tree_edge(1, 2) == (1, 2)
    assert tree.on_tree_edge(2, 1) == (1, 2)
    assert tree.on_tree_edge(0, 3) is None


def test_next_hop_toward():
    network = chain(5).build()
    assert network.path(0, 4)[1] == 1
    assert network.path(0, 1)[1] == 1


def test_ttl_required_all_ones():
    tree = build_source_tree(adjacency_of(chain(5)), 0)
    # With thresholds of one, reaching a node h hops away needs TTL h.
    for node in range(5):
        assert tree.ttl_required[node] == node


def test_ttl_required_with_thresholds():
    spec = chain(4)
    adjacency = adjacency_of(spec, thresholds={(1, 2): 16})
    tree = build_source_tree(adjacency, 0)
    assert tree.ttl_required[1] == 1
    # Crossing (1, 2) needs TTL >= 16 at node 1, i.e. initial 1 + 16.
    assert tree.ttl_required[2] == 17
    assert tree.ttl_required[3] == 17


def test_deterministic_tie_breaking():
    rng = RandomSource(3)
    spec = tree_plus_edges(30, 45, rng)
    adjacency = adjacency_of(spec)
    first = build_source_tree(adjacency, 0)
    second = build_source_tree(adjacency, 0)
    assert first.parent == second.parent


def test_disconnected_topology_raises():
    spec = chain(4)
    network = spec.build()
    network.add_node(99)  # isolated
    with pytest.raises(ValueError):
        build_source_tree(network.adjacency, 0)


def test_unknown_origin_raises():
    with pytest.raises(KeyError):
        build_source_tree(adjacency_of(chain(3)), 42)


def test_pairwise_distance():
    assert chain(6).build().distance(1, 4) == 3.0


def test_random_tree_subtrees_partition_children():
    rng = RandomSource(17)
    spec = random_labeled_tree(25, rng)
    tree = build_source_tree(adjacency_of(spec), 0)
    kids = tree.children[0]
    union = set()
    for child in kids:
        sub = tree.subtree(child)
        assert not (union & sub)
        union |= sub
    assert union == set(range(25)) - {0}


# ----------------------------------------------------------------------
# Tree topologies: one traversal instead of Dijkstra, bit for bit
# ----------------------------------------------------------------------


def random_weighted_tree(seed, n):
    """A random labeled tree with non-dyadic delays and mixed thresholds."""
    rng = RandomSource(seed)
    network = random_labeled_tree(n, rng).build()
    for link in network.links:
        link.delay = rng.uniform(0.1, 20.0)
        link.threshold = rng.randint(1, 8)
    network.invalidate_routes()
    return network


def assert_same_tree(tree, reference, nodes):
    assert tree.origin == reference.origin
    assert tree.parent == reference.parent
    assert tree.dist == reference.dist  # ==, not approx: same float ops
    assert tree.hops == reference.hops
    assert tree.ttl_required == reference.ttl_required
    assert tree.children == reference.children
    for node in nodes:
        assert tree.subtree(node) == reference.subtree(node)
        assert tree.path(node) == reference.path(node)


@settings(max_examples=examples(30))
@given(seed=st.integers(0, 10_000), n=st.integers(2, 60),
       data=st.data())
def test_tree_traversal_is_bitwise_dijkstra(seed, n, data):
    network = random_weighted_tree(seed, n)
    nodes = range(n)
    origin = data.draw(st.integers(0, n - 1), label="origin")
    # No neighbour table -> Dijkstra: the reference for every origin.
    dijkstra = {a: build_source_tree(network.adjacency, a) for a in nodes}
    assert_same_tree(network.source_tree(origin), dijkstra[origin], nodes)

    def check_all_pairs():
        for a in nodes:
            for b in nodes:
                assert network.distance(a, b) == dijkstra[a].dist[b]
                assert network.hops(a, b) == dijkstra[a].hops[b]
                assert network.path(a, b) == dijkstra[a].path(b)

    # An edited tree keeps one traversal per origin asked about.
    check_all_pairs()
    routes = network._routes
    assert sorted(routes.trees) == list(nodes)
    assert routes.neighbors is not None  # traversals, not Dijkstra
    check_all_pairs()  # now from the distance rows
    for a in nodes:
        assert_same_tree(network.source_tree(a), dijkstra[a], nodes)
    check_all_pairs()  # and from each a's own cached tree


def count_heap_pops(monkeypatch):
    pops = []
    real = routing.heapq.heappop

    def spy(heap):
        pops.append(1)
        return real(heap)

    monkeypatch.setattr(routing.heapq, "heappop", spy)
    return pops


def test_tree_topology_never_touches_the_heap(monkeypatch):
    network = random_weighted_tree(5, 40)
    pops = count_heap_pops(monkeypatch)  # after the Pruefer decoder's use
    network.source_tree(3)
    assert network.distance(7, 21) > 0.0
    assert pops == []


def test_extra_edges_take_dijkstra(monkeypatch):
    network = tree_plus_edges(30, 33, RandomSource(9)).build()
    reference = build_source_tree(network.adjacency, 4)
    pops = count_heap_pops(monkeypatch)
    assert_same_tree(network.source_tree(4), reference, range(30))
    assert len(pops) >= 30
    assert network._routes.neighbors is None
    # distance() on a non-tree builds (and then reads) a's Dijkstra tree.
    assert network.distance(11, 2) == network.source_tree(11).dist[2]
    assert network.path(11, 2) == network.source_tree(11).path(2)


def test_cycle_plus_isolated_node_raises_like_dijkstra():
    """|E| = |V| - 1 without being a tree: the traversal falls short and
    Dijkstra reports it, in the same words, from every entry point."""
    network = TopologySpec("bad", 4, [(0, 1), (1, 2), (2, 0)]).build()
    assert len(network.links) == len(network.nodes) - 1
    with pytest.raises(ValueError) as reference:
        build_source_tree(network.adjacency, 0)
    text = str(reference.value)
    assert text.startswith("topology is disconnected; unreachable from 0")
    for query in (network.source_tree, lambda a: network.distance(a, 1),
                  lambda a: network.hops(a, 2),
                  lambda a: network.path(a, 1)):
        with pytest.raises(ValueError) as raised:
            query(0)
        assert str(raised.value) == text


def test_distance_unknown_nodes_raise_key_error():
    network = chain(4).build()
    for warm in (False, True):
        if warm:
            network.source_tree(0)
        with pytest.raises(KeyError):
            network.distance(1, 99)
        with pytest.raises(KeyError):
            network.distance(99, 1)
