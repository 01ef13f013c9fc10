"""Unit tests for topology generators."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RandomSource
from repro.topology import (
    balanced_tree,
    chain,
    random_labeled_tree,
    routers_with_lans,
    star,
    tree_plus_edges,
)
from repro.topology.btree import tree_depth
from repro.topology.random_tree import prufer_decode
from repro.topology.spec import TopologySpec


def as_graph(spec):
    graph = nx.Graph()
    graph.add_nodes_from(range(spec.num_nodes))
    graph.add_edges_from(spec.edges)
    return graph


# ----------------------------------------------------------------------
# TopologySpec validation
# ----------------------------------------------------------------------

def test_spec_rejects_self_loop():
    with pytest.raises(ValueError):
        TopologySpec("bad", 3, [(1, 1)])


def test_spec_rejects_duplicate_edges():
    with pytest.raises(ValueError):
        TopologySpec("bad", 3, [(0, 1), (1, 0)])


def test_spec_rejects_out_of_range_edges():
    with pytest.raises(ValueError):
        TopologySpec("bad", 3, [(0, 7)])


def test_spec_degree_and_is_tree():
    spec = chain(4)
    assert nx.is_tree(as_graph(spec))
    assert spec.degree(0) == 1
    assert spec.degree(1) == 2


def test_build_applies_delay_and_threshold():
    network = chain(3).build(delay=2.5, threshold=4)
    link = network.link_between(0, 1)
    assert link.delay == 2.5
    assert link.threshold == 4


# ----------------------------------------------------------------------
# Chain / star
# ----------------------------------------------------------------------

def test_chain_structure():
    spec = chain(10)
    assert spec.num_nodes == 10
    assert spec.num_edges == 9
    assert nx.is_tree(as_graph(spec))
    assert max(dict(as_graph(spec).degree).values()) == 2


def test_chain_too_small():
    with pytest.raises(ValueError):
        chain(1)


def test_star_structure():
    spec = star(6)
    graph = as_graph(spec)
    assert spec.num_nodes == 7
    assert graph.degree[0] == 6
    assert all(graph.degree[leaf] == 1 for leaf in range(1, 7))
    assert spec.metadata["hub"] == 0
    assert spec.metadata["leaves"] == list(range(1, 7))


def test_star_too_small():
    with pytest.raises(ValueError):
        star(1)


# ----------------------------------------------------------------------
# Balanced bounded-degree trees
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n,degree", [(1, 4), (5, 4), (100, 4), (1000, 4),
                                      (50, 3), (64, 10)])
def test_balanced_tree_is_tree_with_bounded_degree(n, degree):
    spec = balanced_tree(n, degree)
    graph = as_graph(spec)
    assert spec.num_nodes == n
    assert nx.is_tree(graph) or n == 1
    assert max(dict(graph.degree).values(), default=0) <= degree


def test_balanced_tree_interior_degree_is_exact():
    spec = balanced_tree(1000, 4)
    graph = as_graph(spec)
    degrees = dict(graph.degree)
    interior = [node for node, deg in degrees.items() if deg > 1]
    # All interior nodes except possibly the last-filled level have
    # degree exactly 4.
    full = [node for node in interior
            if all(child > node or child == 0
                   for child in graph.neighbors(node))]
    assert degrees[0] == 4
    fours = sum(1 for node in interior if degrees[node] == 4)
    assert fours >= len(interior) - len(interior) // 10


def test_balanced_tree_depth_grows_logarithmically():
    assert tree_depth(balanced_tree(1000, 4)) <= 8
    assert tree_depth(balanced_tree(1000, 4)) >= 5


def test_balanced_tree_validation():
    with pytest.raises(ValueError):
        balanced_tree(0)
    with pytest.raises(ValueError):
        balanced_tree(5, degree=1)


# ----------------------------------------------------------------------
# Random labeled trees (Prüfer)
# ----------------------------------------------------------------------

def test_prufer_decode_known_sequence():
    # Sequence (3, 3, 3, 4) on 6 nodes: classic textbook example.
    edges = prufer_decode([3, 3, 3, 4], 6)
    graph = nx.Graph(edges)
    assert nx.is_tree(graph)
    assert graph.degree[3] == 4
    assert graph.degree[4] == 2


def test_prufer_decode_matches_networkx():
    sequence = [0, 4, 2, 2, 6]
    ours = nx.Graph(prufer_decode(sequence, 7))
    theirs = nx.from_prufer_sequence(sequence)
    assert nx.utils.graphs_equal(ours, theirs) or \
        sorted(map(sorted, ours.edges)) == sorted(map(sorted, theirs.edges))


def test_prufer_length_validation():
    with pytest.raises(ValueError):
        prufer_decode([1], 6)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 60))
def test_random_labeled_tree_is_always_a_tree(seed, n):
    spec = random_labeled_tree(n, RandomSource(seed))
    graph = as_graph(spec)
    assert nx.is_tree(graph)
    assert spec.num_nodes == n


def test_random_tree_degree_distribution_mostly_small():
    # The paper: P(degree <= 4) ~ 0.98 for large random labeled trees.
    rng = RandomSource(5)
    spec = random_labeled_tree(500, rng)
    degrees = dict(as_graph(spec).degree).values()
    small = sum(1 for d in degrees if d <= 4)
    assert small / 500 > 0.9


def test_random_tree_too_small():
    with pytest.raises(ValueError):
        random_labeled_tree(1, RandomSource(0))


# ----------------------------------------------------------------------
# Graphs denser than trees
# ----------------------------------------------------------------------

def test_tree_plus_edges_counts():
    rng = RandomSource(9)
    spec = tree_plus_edges(100, 150, rng)
    assert spec.num_edges == 150
    graph = as_graph(spec)
    assert nx.is_connected(graph)


def test_tree_plus_edges_validation():
    rng = RandomSource(9)
    with pytest.raises(ValueError):
        tree_plus_edges(10, 8, rng)   # below spanning tree
    with pytest.raises(ValueError):
        tree_plus_edges(5, 11, rng)   # above complete graph


def test_tree_plus_edges_minimum_is_tree():
    rng = RandomSource(9)
    spec = tree_plus_edges(20, 19, rng)
    assert nx.is_tree(as_graph(spec))


# ----------------------------------------------------------------------
# Routers with LANs
# ----------------------------------------------------------------------

def test_routers_with_lans_structure():
    spec = routers_with_lans(10, workstations_per_lan=5)
    assert spec.num_nodes == 10 + 10 + 50
    graph = as_graph(spec)
    assert nx.is_tree(graph)
    assert len(spec.metadata["workstations"]) == 50
    assert len(spec.metadata["hubs"]) == 10
    # Every workstation hangs off a hub (degree 1).
    for station in spec.metadata["workstations"]:
        assert graph.degree[station] == 1
    # Workstations on the same LAN are two hops apart via the hub.
    hub = spec.metadata["hubs"][0]
    lan = [n for n in graph.neighbors(hub)
           if n in set(spec.metadata["workstations"])]
    assert len(lan) == 5


def test_routers_with_lans_validation():
    with pytest.raises(ValueError):
        routers_with_lans(4, workstations_per_lan=0)


def test_is_tree_requires_connectivity():
    """n - 1 edges is not enough: a triangle plus a detached edge."""
    from repro.herd.topo import TreeIndex

    bad = TopologySpec("bad", 5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    assert bad.num_edges == bad.num_nodes - 1
    for spec in (bad, TopologySpec("two-apart", 2, [])):
        with pytest.raises(ValueError, match="not a tree"):
            TreeIndex(spec, 0)
        with pytest.raises(ValueError, match="topology is disconnected"):
            spec.build().source_tree(0)
    assert TreeIndex(TopologySpec("one", 1, []), 0).tree.parent == {0: None}
    # Edge order and orientation do not matter to the traversal.
    ok = TreeIndex(TopologySpec("ok", 5, [(3, 4), (1, 0), (4, 1), (2, 1)]), 0)
    assert ok.tree.parent == {0: None, 1: 0, 2: 1, 4: 1, 3: 4}


def test_herd_rejects_edge_count_tree_that_is_disconnected():
    from repro.experiments.common import Scenario
    from repro.herd import HerdSimulation, HerdUnsupportedError
    from repro.herd.topo import TreeIndex

    bad = TopologySpec("bad", 5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    with pytest.raises(ValueError, match="not a tree"):
        TreeIndex(bad, 0)
    with pytest.raises(HerdUnsupportedError, match="not a tree"):
        HerdSimulation(Scenario(spec=bad, members=[0, 1, 3], source=0,
                                drop_edge=(0, 1)))
    # The agent engine has always refused it too.
    with pytest.raises(ValueError, match="topology is disconnected"):
        bad.build().source_tree(0)
