"""A loaded network makes only what its run touches.

``TopologySpec.build`` loads a network from the shared route skeleton
without building it: ``nodes`` makes a :class:`Node` where an agent
attaches or a delivery arrives, ``adjacency`` makes a :class:`Link` where
the run reads one, and every whole-graph reader (``links``, iteration,
``add_node`` / ``add_link`` / ``invalidate_routes``, Dijkstra) makes the
rest first. These tests pin what a run makes and that a loaded network
reads like one built element by element.
"""

from __future__ import annotations

import pytest

from repro.core.config import SrmConfig
from repro.experiments.common import (ExperimentSpec, LossRecoverySimulation,
                                      run_experiment)
from repro.experiments.figure4 import figure4_scenarios
from repro.experiments.robustness import _heterogeneous_delays
from repro.net.link import MatchDropFilter
from repro.net.network import LinkTable, Network, NodeTable
from repro.net.node import Agent
from repro.net.routing import RootedIndex, SourceTrees, build_source_tree
from repro.sim.rng import RandomSource
from repro.topology.chain import chain
from repro.topology.graphs import tree_plus_edges
from repro.topology.random_tree import random_labeled_tree
from repro.topology.spec import TopologySpec
from repro.topology.star import star


class Sink(Agent):
    def __init__(self) -> None:
        super().__init__()
        self.received = []

    def receive(self, packet) -> None:
        self.received.append((self.now, packet.kind))


def eager(spec: TopologySpec, delay: float = 1.0) -> Network:
    """The network ``spec`` describes, built one element at a time."""
    network = Network()
    for node in range(spec.num_nodes):
        network.add_node(node)
    for a, b in spec.edges:
        network.add_link(a, b, delay=delay)
    return network


def made(network: Network):
    """(node ids, row ids, link ends) a loaded network has made so far."""
    return (sorted(dict.keys(network.nodes)),
            sorted(dict.keys(network.adjacency)),
            sorted(network.adjacency.made))


def shape(network: Network):
    """Everything a whole-graph reader sees, object identity aside."""
    return ([(node, network.nodes[node].node_id) for node in network.nodes],
            [(node, [(other, (link.a, link.b, link.delay, link.threshold))
                     for other, link in row.items()])
             for node, row in network.adjacency.items()],
            [(link.a, link.b, link.delay, link.threshold)
             for link in network.links])


SPECS = {
    "chain": lambda: chain(7),
    "star": lambda: star(9),
    "random-tree": lambda: random_labeled_tree(40, RandomSource(3)),
    "dense-graph": lambda: tree_plus_edges(30, 45, RandomSource(5)),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_a_loaded_network_reads_like_an_eager_one(name):
    """``len``, ``in`` and ``.get`` answer for the topology before
    anything is made; iteration and ``links`` see every element in the
    order and orientation an eager build has (``repro fuzz`` forks its
    loss streams in ``links`` order, by ``link.a`` and ``link.b``)."""
    spec = SPECS[name]()
    reference = eager(spec)
    loaded = spec.build()
    n = spec.num_nodes
    assert type(loaded.nodes) is NodeTable
    assert type(loaded.adjacency) is LinkTable
    for table, built in ((loaded.nodes, reference.nodes),
                         (loaded.adjacency, reference.adjacency)):
        assert len(table) == len(built) == n
        for node in (0, n - 1, n, -1, "x"):
            assert (node in table) is (node in built)
        assert table.get(n) is None and table.get(-1, "none") == "none"
    assert made(loaded) == ([], [], [])
    assert loaded.nodes.get(n - 1).node_id == n - 1
    assert loaded.adjacency.get(0).keys() == \
        reference.adjacency[0].keys()
    # Touch a few elements out of order, then read the whole graph.
    handed = loaded.link_between(*reversed(spec.edges[-1]))
    sink = loaded.attach(n // 2, Sink())
    assert list(loaded.nodes) == list(range(n))
    assert shape(loaded) == shape(reference)
    assert list(loaded.adjacency.keys()) == list(range(n))
    assert [node.node_id for node in loaded.nodes.values()] == list(range(n))
    assert handed in loaded.links
    assert loaded.nodes[n // 2].agents == [sink]
    for node, row in loaded.adjacency.items():
        for other, link in row.items():
            assert loaded.adjacency[other][node] is link
            assert loaded.link_between(node, other) is link
    assert set(map(id, loaded.links)) == {
        id(link) for row in loaded.adjacency.values()
        for link in row.values()}


def test_a_link_is_made_once_whichever_end_asks():
    network = chain(5).build()
    link = network.link_between(3, 2)
    assert (link.a, link.b) == (2, 3)  # as chain(5) orients the edge
    assert made(network) == ([], [], [(2, 3)])
    assert network.adjacency[2][3] is link
    assert network.adjacency[3][2] is link
    assert made(network) == ([], [2, 3], [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(KeyError, match="no link between 0 and 2"):
        network.link_between(0, 2)
    with pytest.raises(KeyError):
        network.nodes[5]
    with pytest.raises(KeyError):
        network.adjacency[-1]
    assert made(network)[0] == []


def test_a_filter_and_a_bandwidth_stay_in_their_network():
    """Arm both on one link of a loaded network: a sibling loaded from
    the same skeleton, and the skeleton's shared link, stay pristine."""
    spec = chain(6)
    armed = spec.build(delivery="hop")
    sibling = spec.build(delivery="hop")
    assert armed._routes is sibling._routes
    assert isinstance(armed._routes, RootedIndex)
    armed.add_drop_filter(2, 3, MatchDropFilter(lambda packet: True))
    bottleneck = armed.set_link_bandwidth(2, 3, 500.0, queue_limit=1)
    assert bottleneck is armed.link_between(3, 2)
    assert bottleneck.filters and bottleneck.bandwidth == 500.0
    shared = armed.adjacency.skeleton.adjacency[2][3]
    assert shared.filters == [] and shared.bandwidth is None
    own = sibling.link_between(2, 3)
    assert own is not bottleneck
    assert own.filters == [] and own.bandwidth is None
    assert own.queue_limit is None and own._busy_until == {}
    # The sibling delivers across the link as a network built alone.
    results = []
    for network in (armed, sibling, spec.build(delivery="hop")):
        group = network.groups.allocate()
        sinks = {node: network.attach(node, Sink()) for node in range(6)}
        for node in range(6):
            network.join(node, group)
        network.scheduler.schedule(
            0.0, network.send_multicast, 0, group, "data")
        network.run()
        results.append({node: sink.received for node, sink in sinks.items()})
    armed_result, sibling_result, alone = results
    assert sibling_result == alone
    assert alone[5] == [(5.0, "data")]
    assert armed_result[5] == [] and armed_result[2] == [(2.0, "data")]


def test_a_figure4_run_makes_its_members_and_the_link_it_reads():
    """40 members on the 1000-node degree-4 tree: the run makes exactly
    the members' nodes and the congested link, no adjacency row, and
    closing it makes nothing more."""
    scenario = figure4_scenarios(sizes=(40,), sims=1, seed=4)[0]
    assert scenario.spec.num_nodes == 1000
    simulation = LossRecoverySimulation(scenario, config=SrmConfig(),
                                        seed=3)
    outcome = simulation.run_round()
    network = simulation.network
    a, b = scenario.drop_edge
    expected = (sorted(scenario.members), [],
                [(a, b) if (a, b) in scenario.spec.edges else (b, a)])
    assert outcome.recovered and outcome.requests >= 1
    assert made(network) == expected
    assert len(made(network)[0]) == 40 and len(made(network)[2]) == 1
    simulation.close()
    assert made(network) == expected
    assert len(network.nodes) == 1000
    result = run_experiment(ExperimentSpec(scenario=scenario,
                                           config=SrmConfig(), seed=3))
    assert result.outcome.requests == outcome.requests


def test_heterogeneous_delays_see_every_link_before_the_network_detaches():
    """``links`` makes every link before the robustness suite edits it,
    so the detached network routes on the whole edited graph."""
    rng = RandomSource(9)
    spec = random_labeled_tree(60, rng)
    loaded = spec.build()
    touched = loaded.link_between(*spec.edges[0])
    _heterogeneous_delays(loaded, RandomSource(4))
    reference = eager(spec)
    _heterogeneous_delays(reference, RandomSource(4))
    assert type(loaded.adjacency) is dict and type(loaded.nodes) is dict
    assert isinstance(loaded._routes, SourceTrees)
    assert loaded._routes.adjacency is loaded.adjacency
    assert touched is loaded.links[0]
    assert shape(loaded) == shape(reference)
    for origin in (0, 17, 59):
        tree = loaded.source_tree(origin)
        dijkstra = build_source_tree(reference.adjacency, origin)
        assert tree.dist == dijkstra.dist and tree.parent == dijkstra.parent
        assert loaded.distance(origin, 33) == dijkstra.dist[33]


def test_add_link_and_add_node_see_the_whole_graph():
    network = chain(5).build()
    cut = network.link_between(1, 2)
    network.add_drop_filter(1, 2, MatchDropFilter(lambda packet: True))
    chord = network.add_link(4, 0, delay=0.5)
    assert type(network.adjacency) is dict
    assert [(link.a, link.b) for link in network.links] == \
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    assert network.links[1] is cut and cut.filters
    assert network.links[-1] is chord
    assert network.distance(0, 3) == 1.5  # Dijkstra through the chord
    node = network.add_node()
    assert node.node_id == 5 and len(network.nodes) == 6
    network.add_link(5, 2)
    assert network.hops(5, 0) == 3
    assert network.link_between(2, 5) is network.adjacency[5][2]


def test_a_non_tree_is_made_whole_for_dijkstra():
    spec = tree_plus_edges(30, 45, RandomSource(5))
    network = spec.build()
    assert network._routes.neighbors is None
    tree = network.source_tree(7)
    assert len(network.adjacency.made) == spec.num_edges
    assert tree.dist == build_source_tree(eager(spec).adjacency, 7).dist
