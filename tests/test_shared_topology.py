"""One route skeleton per topology, private networks, and runs that free
themselves.

``TopologySpec.build`` shares a read-only :class:`RouteSkeleton` among
every network built from the same content; each network's nodes, links,
filters, queues, trees and plans are its own. ``Network.close`` cuts the
agent back-pointers and the agents' own cycles, so a finished run is
freed by reference counting, and the run entry points pause the cyclic
collector.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.agent import (PageRequestContext, RepairContext,
                              RequestContext, SrmAgent)
from repro.core.config import SrmConfig
from repro.core.session import OracleDistance, SessionProtocol
from repro.core.transmit import TransmitQueue
from repro.experiments.common import (ExperimentSpec, LossRecoverySimulation,
                                      choose_scenario, run_experiment)
from repro.experiments.congestion import run_congestion_experiment
from repro.experiments.figure4 import figure4_scenarios
from repro.experiments.figure12_13 import find_adversarial_scenario
from repro.experiments.robustness import _heterogeneous_delays
from repro.net.link import Link, MatchDropFilter
from repro.net.network import Network
from repro.net.node import Agent, Node
from repro.net.routing import SourceTree, build_source_tree
from repro.sim.rng import RandomSource
from repro.sim.scheduler import EventScheduler
from repro.sim.timers import Timer
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
RUN_TYPES = (Network, Node, Link, SourceTree, Trace, TraceRecord, SrmAgent,
             Timer, RequestContext, RepairContext, PageRequestContext,
             TransmitQueue, OracleDistance, SessionProtocol)


def cyclic_garbage(run) -> list:
    """Names of the run types ``run()`` left for the cyclic collector.

    The collector is off while ``run`` runs, so what ``gc.collect()``
    then finds is garbage that waited for it.
    """
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return sorted({type(obj).__name__ for obj in gc.garbage
                       if isinstance(obj, RUN_TYPES)})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_a_finished_run_leaves_no_cyclic_garbage(monkeypatch):
    """A figure-4 round and a congestion burst free themselves.

    No network, node, link, tree or trace row, and no agent, timer,
    request, repair or page context, transmit queue or distance oracle
    waits for the cyclic collector: ``Network.close`` cuts every agent
    back-pointer and releases every timer that calls back into its
    owner.
    """
    monkeypatch.delenv("SRM_CHECK", raising=False)
    scenario = figure4_scenarios(sizes=(40,), sims=1, seed=4)[0]
    spec = ExperimentSpec(scenario=scenario, config=SrmConfig(), seed=3)
    runs = []

    def run() -> None:
        runs.append(run_experiment(spec).outcome)
        runs.append(run_congestion_experiment(burst=20, chain_length=8,
                                              queue_limit=3))

    assert cyclic_garbage(run) == []
    result, outcome = runs
    assert result.recovered and outcome.all_recovered
    assert outcome.data_queue_drops > 0


def test_a_checked_run_leaves_no_cyclic_garbage(monkeypatch):
    """Check mode too: the oracle suite and its checkers let go of each
    other, and the metrics gate's replay collector of its trace."""
    monkeypatch.setenv("SRM_CHECK", "1")
    scenario = figure4_scenarios(sizes=(40,), sims=1, seed=4)[0]
    spec = ExperimentSpec(scenario=scenario, config=SrmConfig(), seed=3,
                          rounds=2)
    results = []
    assert cyclic_garbage(lambda: results.append(run_experiment(spec))) \
        == []
    assert all(outcome.recovered for outcome in results[0].outcomes)


def test_a_session_and_rate_limited_run_leaves_no_cyclic_garbage(
        monkeypatch):
    """Session messages, a paced transmit queue and FEC, cut off with
    packets and timers still pending: close releases the session's and
    the queue's timers, cuts their and the codec's back-pointers, and
    drops the scheduler's pending events. Counters stay readable."""
    monkeypatch.delenv("SRM_CHECK", raising=False)
    config = SrmConfig(session_enabled=True, rate_limit=400.0,
                       fec_block=2)
    seen = {}

    def run() -> None:
        network = chain(5).build()
        group = network.groups.allocate("session")
        master = RandomSource(1)
        agents = []
        for node in range(5):
            agent = SrmAgent(config.copy(), master.fork(f"member-{node}"))
            network.attach(node, agent)
            agent.join_group(group)
            agents.append(agent)
        for index in range(6):
            network.scheduler.schedule(
                float(index), agents[0].send_data, f"data-{index}")
        network.run(until=30.0)
        seen["pending"] = network.scheduler.pending()
        network.close()
        seen["after"] = network.scheduler.pending()
        seen["reports"] = sum(agent.session.messages_sent
                              for agent in agents)
        seen["paced"] = agents[0].transmitter.transmitted
        seen["parity"] = agents[0].fec.parity_sent

    assert cyclic_garbage(run) == []
    assert seen["pending"] > 0 and seen["after"] == 0
    assert seen["reports"] > 0 and seen["paced"] > 0 and seen["parity"] > 0


def test_a_figure12_probe_leaves_no_cyclic_garbage(monkeypatch):
    """The figure-12 candidate probes run through ``run_experiment``,
    which closes each probe's session."""
    monkeypatch.delenv("SRM_CHECK", raising=False)
    found = []
    assert cyclic_garbage(lambda: found.append(
        find_adversarial_scenario(candidates=2, probe_rounds=2))) == []
    assert found[0].session_size == 50


@pytest.mark.parametrize("case", ["enabled", "disabled", "raising"])
@pytest.mark.parametrize("entry", ["run_experiment",
                                   "run_congestion_experiment"])
def test_a_run_entry_point_pauses_the_collector_and_restores_it(
        monkeypatch, entry, case):
    """The collector is off while the scheduler runs, and afterwards as
    it was before: on for a caller that had it on, off for one that had
    it off, and restored when the run raises."""
    monkeypatch.delenv("SRM_CHECK", raising=False)
    real_run = EventScheduler.run
    during = []

    def watched(self, *args, **kwargs):
        during.append(gc.isenabled())
        if case == "raising":
            raise RuntimeError("the run failed")
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(EventScheduler, "run", watched)
    scenario = figure4_scenarios(sizes=(10,), sims=1, seed=4)[0]
    runs = {
        "run_experiment": lambda: run_experiment(ExperimentSpec(
            scenario=scenario, config=SrmConfig(), seed=1)),
        "run_congestion_experiment": lambda: run_congestion_experiment(
            burst=4),
    }
    enabled = gc.isenabled()
    try:
        if case == "disabled":
            gc.disable()
        else:
            gc.enable()
        if case == "raising":
            with pytest.raises(RuntimeError, match="the run failed"):
                runs[entry]()
        else:
            runs[entry]()
        after = gc.isenabled()
    finally:
        if enabled:
            gc.enable()
        else:
            gc.disable()
    assert during and not any(during)
    assert after is (case != "disabled")


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
