"""One route skeleton per topology, private networks, and runs that free
themselves.

``TopologySpec.build`` shares a read-only :class:`RouteSkeleton` among
every network built from the same content; each network's nodes, links,
filters, queues, trees and plans are its own. ``Network.close`` cuts the
agent back-pointers so a finished run is freed by reference counting.
"""

from __future__ import annotations

import gc

from repro.core.agent import SrmAgent
from repro.core.config import SrmConfig
from repro.experiments.common import (ExperimentSpec, LossRecoverySimulation,
                                      choose_scenario, run_experiment)
from repro.experiments.congestion import run_congestion_experiment
from repro.experiments.figure4 import figure4_scenarios
from repro.experiments.robustness import _heterogeneous_delays
from repro.net.link import Link, MatchDropFilter
from repro.net.network import Network
from repro.net.node import Agent, Node
from repro.net.routing import SourceTree, build_source_tree
from repro.sim.rng import RandomSource
from repro.sim.trace import Trace, TraceRecord
from repro.topology import spec as spec_module
from repro.topology.btree import balanced_tree
from repro.topology.chain import chain
from repro.topology.random_tree import random_labeled_tree
from repro.topology.spec import TopologySpec


class Sink(Agent):
    def __init__(self) -> None:
        super().__init__()
        self.received = []

    def receive(self, packet) -> None:
        self.received.append((self.now, packet.kind))


def _hop_session(spec: TopologySpec):
    network = spec.build(delivery="hop")
    group = network.groups.allocate()
    sinks = {}
    for node in range(spec.num_nodes):
        sinks[node] = network.attach(node, Sink())
        network.join(node, group)
    return network, group, sinks


def _burst(network: Network, group, packets: int = 3):
    for index in range(packets):
        network.scheduler.schedule(
            0.0, network.send_multicast, 0, group, f"data-{index}")
    network.run()


def test_same_content_shares_one_skeleton_and_nothing_mutable():
    spec = chain(6)
    twin = TopologySpec("twin", spec.num_nodes, list(spec.edges))
    a, b = spec.build(), twin.build()
    assert a._index is b._index is not None
    assert a._neighbors is b._neighbors
    assert a._index.tree.origin == 0
    assert a.adjacency is not b.adjacency
    for node in range(spec.num_nodes):
        assert a.nodes[node] is not b.nodes[node]
    for mine, theirs in zip(a.links, b.links):
        assert mine is not theirs
        assert (mine.a, mine.b, mine.delay) == (theirs.a, theirs.b, 1.0)
    assert a.source_tree(0) is not b.source_tree(0)
    # Another delay or threshold is another skeleton.
    assert spec.build(delay=2.0)._index is not a._index
    assert spec.build(threshold=2)._index is not a._index


def test_the_skeleton_table_keeps_the_most_recent_topologies():
    table = spec_module._SKELETONS
    kept = balanced_tree(50, 3)
    first = kept.build()._index
    for size in range(10, 10 + spec_module.SKELETON_SLOTS - 1):
        chain(size).build()
        assert kept.build()._index is first  # each use refreshes it
    assert len(table) <= spec_module.SKELETON_SLOTS
    for size in range(30, 30 + spec_module.SKELETON_SLOTS):
        chain(size).build()
    assert len(table) == spec_module.SKELETON_SLOTS
    assert kept.build()._index is not first  # evicted, then rebuilt


def test_filters_and_bandwidth_stay_in_their_network():
    """Arm a filter and a bottleneck in one of two networks built from
    one spec; the other delivers exactly as a network built before it."""
    spec = chain(6)
    reference, ref_group, ref_sinks = _hop_session(spec)
    edited, group, sinks = _hop_session(spec)
    other, other_group, other_sinks = _hop_session(spec)
    edited.add_drop_filter(4, 5, MatchDropFilter(
        lambda packet: packet.kind == "data-1"))
    edited.set_link_bandwidth(2, 3, 500.0, queue_limit=1)
    _burst(reference, ref_group)
    _burst(edited, group)
    _burst(other, other_group)
    expected = {node: sink.received for node, sink in ref_sinks.items()}
    assert expected[5] == [(5.0, "data-0"), (5.0, "data-1"),
                           (5.0, "data-2")]
    assert {node: sink.received
            for node, sink in other_sinks.items()} == expected
    assert {node: sink.received
            for node, sink in sinks.items()} != expected
    assert [kind for _, kind in sinks[5].received] == ["data-0"]
    for link in other.links:
        assert link.filters == [] and link.bandwidth is None
        assert link.queue_drops == 0


def test_a_delay_edit_changes_only_its_network():
    """The robustness suite's heterogeneous delays, applied to one
    network: it routes on its own links, the next build does not."""
    rng = RandomSource(5)
    spec = random_labeled_tree(120, rng)
    scenario = choose_scenario(spec, session_size=40, rng=rng)
    before = spec.build()
    edited = spec.build()
    _heterogeneous_delays(edited, rng.fork("delays"))
    after = spec.build()
    shared = before._index
    assert edited._index is None and edited._neighbors is None
    assert after._index is shared
    source = scenario.source
    dijkstra = build_source_tree(edited.adjacency, source)
    unit = build_source_tree(after.adjacency, source)
    assert dijkstra.dist != unit.dist
    for member in scenario.members:
        assert edited.distance(member, source) == \
            build_source_tree(edited.adjacency, member).dist[source]
        assert edited.distance(source, member) == dijkstra.dist[member]
        for network in (before, after):
            assert network.distance(member, source) == \
                unit.dist[member] == float(unit.hops[member])
    assert edited._index is not None and edited._index is not shared
    assert shared.pair(source, scenario.members[-1])[0] == \
        unit.dist[scenario.members[-1]]


#: What a finished run is made of; none of it may wait for the cyclic
#: collector.
RUN_TYPES = (Network, Node, Link, SourceTree, Trace, TraceRecord)


def test_a_finished_run_leaves_no_cyclic_garbage(monkeypatch):
    """A figure-4 round and a congestion burst, with the collector off.

    What ``gc.collect()`` then finds is garbage that waited for it. An
    agent's own cycles (its timers call back into it) are allowed: they
    hold the agent's state, never the network, its nodes, links, trees
    or trace. Check mode is left out: its oracle suite is cyclic itself
    (every checker points back at it) and holds the run it checks.
    """
    monkeypatch.delenv("SRM_CHECK", raising=False)
    scenario = figure4_scenarios(sizes=(40,), sims=1, seed=4)[0]
    spec = ExperimentSpec(scenario=scenario, config=SrmConfig(), seed=3)
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run_experiment(spec)
        outcome = run_congestion_experiment(burst=20, chain_length=8,
                                            queue_limit=3)
        gc.collect()
        leaked = sorted({type(obj).__name__ for obj in gc.garbage
                         if isinstance(obj, RUN_TYPES)})
        agents = sum(isinstance(obj, SrmAgent) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert result.outcome.recovered and outcome.all_recovered
    assert outcome.data_queue_drops > 0
    assert leaked == []
    assert agents > 0  # the allowed agent-local cycles were found


def test_close_is_idempotent_and_cuts_every_agent(monkeypatch):
    monkeypatch.delenv("SRM_CHECK", raising=False)
    scenario = figure4_scenarios(sizes=(10,), sims=1, seed=4)[0]
    simulation = LossRecoverySimulation(scenario, config=SrmConfig(),
                                        seed=2)
    outcome = simulation.run_round()
    network = simulation.network
    trace = network.trace
    simulation.close()
    simulation.close()
    assert outcome.recovered
    assert all(agent.network is None and agent._scheduler is None
               for agent in simulation.agents.values())
    assert all(node.agents == [] for node in network.nodes.values())
    assert trace._listeners == []
    # Routing and results stay readable after the run is closed.
    assert network.distance(scenario.source, scenario.members[0]) >= 0.0
    assert simulation.affected_members()


def test_a_checked_run_closes_cleanly(monkeypatch):
    monkeypatch.setenv("SRM_CHECK", "1")
    scenario = figure4_scenarios(sizes=(10,), sims=1, seed=4)[0]
    result = run_experiment(ExperimentSpec(scenario=scenario,
                                           config=SrmConfig(), seed=2,
                                           rounds=2))
    assert all(outcome.recovered for outcome in result.outcomes)
    simulation = LossRecoverySimulation(scenario, config=SrmConfig(),
                                        seed=2)
    assert simulation.oracle is not None
    simulation.run_round()
    simulation.close()
    simulation.close()
    assert simulation.network.trace._listeners == []
