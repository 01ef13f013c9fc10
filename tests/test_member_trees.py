"""Member trees and cut entries: a sender keeps its plan, not its tree.

On a tree topology whose group spans under half the nodes, a multicast
sender with no source tree of its own is planned on
``RootedIndex.member_tree``: its source tree cut down to the paths to
the members. The tree serves that one plan and is kept nowhere. Armed
drop filters are consulted through one cut entry per (origin, link),
read off the rooted index, whose cut set is made only when the filter
drops. These tests pin that the switch is invisible: a member tree is
the full tree restricted, a cut entry is what the full tree says, a
network that plans on member trees delivers, drops and charges links
exactly as one that plans on full trees, and neither a figure-shaped
round nor a long star session keeps a tree.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.network as network_module
from repro.core.config import SrmConfig
from repro.experiments.common import LossRecoverySimulation
from repro.experiments.figure4 import figure4_scenarios
from repro.experiments.figure5 import star_scenario
from repro.net.link import NthPacketDropFilter
from repro.net.network import Network
from repro.net.node import Agent
from repro.net.routing import RootedIndex, build_source_tree, traverse_tree
from repro.sim.rng import RandomSource
from repro.topology.random_tree import random_labeled_tree

from conftest import examples
from test_routing import random_weighted_tree


@settings(max_examples=examples(40))
@given(seed=st.integers(0, 10_000), n=st.integers(2, 60), data=st.data())
def test_member_tree_is_the_source_tree_cut_down(seed, n, data):
    network = random_weighted_tree(seed, n)
    root = data.draw(st.integers(0, n - 1), label="root")
    origin = data.draw(st.integers(0, n - 1), label="origin")
    nodes = data.draw(st.lists(st.integers(0, n - 1), max_size=n),
                      label="nodes")
    index = RootedIndex(network.source_tree(root), network._neighbors,
                        network.adjacency)
    full = build_source_tree(network.adjacency, origin)  # Dijkstra
    member = index.member_tree(origin, nodes)
    spanned = {origin}.union(*[full.path(node) for node in nodes])
    assert set(member.parent) == spanned
    for node in spanned:
        assert member.parent[node] == full.parent[node]
        assert member.dist[node] == full.dist[node]  # ==: same float ops
        assert member.hops[node] == full.hops[node]
        assert member.ttl_required[node] == full.ttl_required[node]
        assert member.children[node] == [
            child for child in full.children[node] if child in spanned]
        assert member.path(node) == full.path(node)
        assert member.subtree(node) == full.subtree(node) & spanned
    for node in nodes:
        assert index.pair(origin, node) == (full.dist[node],
                                            full.hops[node])
        assert index.path(origin, node) == full.path(node)


class Log(Agent):
    def __init__(self, log):
        super().__init__()
        self.log = log

    def receive(self, packet):
        self.log.append((self.now, self.node_id, packet.sent_at, packet.ttl))


def run_sparse_session(seed, n, members, sends, filters, joins, full,
                       account=True):
    """Run ``sends`` on a weighted random tree; with ``full`` every
    sender plans (and charges links) on its full source tree, not on a
    member tree. ``account`` charges links."""
    network = random_weighted_tree(seed, n)
    network.trace.keep = None
    network.account_bandwidth = account
    if full:
        network.member_tree = lambda origin, nodes: network.source_tree(
            origin)
    group = network.groups.allocate()
    log = []
    for member in range(n):
        network.attach(member, Log(log))
    for member in members:
        network.join(member, group)
    scheduler = network.scheduler
    armed = []
    for at, (a, b), nth in filters:
        drop = NthPacketDropFilter(lambda packet: True, n=nth)
        armed.append(drop)
        scheduler.schedule_at(at, network.add_drop_filter, a, b, drop)
    for at, node in joins:
        scheduler.schedule_at(at, network.join, node, group)
    for at, origin, ttl in sends:
        scheduler.schedule_at(at, network.send_multicast, origin, group,
                              "data", None, ttl)
    network.run()
    drops = [(row.time, row.node, row.detail["link"])
             for row in network.trace.records if row.kind == "drop"]
    carried = [(link.a, link.b, link.packets_carried)
               for link in network.links]
    return (log, drops, carried, network.packets_dropped,
            [drop.armed for drop in armed]), network


@settings(max_examples=examples(40))
@given(seed=st.integers(0, 10_000), n=st.integers(6, 40), data=st.data())
def test_member_tree_sends_match_full_tree_sends(seed, n, data):
    """Filters anywhere on the tree, including links no member hangs
    below, see the same packets in the same order either way."""
    nodes = st.integers(0, n - 1)
    members = sorted(data.draw(st.sets(nodes, min_size=1,
                                       max_size=(n - 1) // 2),
                               label="members"))
    sends = data.draw(st.lists(st.tuples(
        st.integers(0, 30).map(float), nodes, st.integers(1, 64)),
        min_size=1, max_size=8), label="sends")
    edges = [(link.a, link.b)
             for link in random_weighted_tree(seed, n).links]
    filters = data.draw(st.lists(st.tuples(
        st.integers(0, 30).map(lambda t: t + 0.5), st.sampled_from(edges),
        st.integers(1, 3)), max_size=3), label="filters")
    joins = data.draw(st.lists(st.tuples(
        st.integers(0, 30).map(lambda t: t + 0.25), nodes), max_size=2),
        label="joins")
    member_run, member_network = run_sparse_session(
        seed, n, members, sends, filters, joins, full=False)
    full_run, _ = run_sparse_session(
        seed, n, members, sends, filters, joins, full=True)
    assert member_run == full_run
    # Charging links or not, the direct engine keeps no source tree: the
    # same packets arrive and drop, off plans and cut entries alone.
    assert member_network._trees == {}
    quiet_run, network = run_sparse_session(
        seed, n, members, sends, filters, joins, full=False,
        account=False)
    assert quiet_run[:2] + quiet_run[3:] == member_run[:2] + member_run[3:]
    assert network._trees == {}


def test_a_sparse_round_builds_no_full_tree(monkeypatch):
    """A figure-4 round (40 members on 1000 nodes) builds no full tree:
    every sender, the source too, gets a member tree off the skeleton's
    rooted index, which the network shares with every other build of
    the spec, and the closest requester's distance is read off that
    index too. The network keeps none of those trees."""
    scenario = figure4_scenarios(sizes=(40,), sims=1, seed=4)[0]
    built = []
    real = network_module.build_source_tree

    def counting(adjacency, origin, neighbors=None):
        built.append(origin)
        return real(adjacency, origin, neighbors)

    planned = []
    real_member_tree = Network.member_tree

    def planning(network, origin, nodes):
        tree = real_member_tree(network, origin, nodes)
        planned.append((origin, len(tree.parent)))
        return tree

    monkeypatch.setattr(network_module, "build_source_tree", counting)
    monkeypatch.setattr(Network, "member_tree", planning)
    # Check mode's oracles read full trees of their own; count a plain run.
    monkeypatch.delenv("SRM_CHECK", raising=False)
    simulation = LossRecoverySimulation(scenario, config=SrmConfig(),
                                        seed=1)
    outcome = simulation.run_round()
    assert outcome.recovered and outcome.requests >= 1
    assert built == []
    network = simulation.network
    assert network._index is scenario.spec.build()._index is not None
    cut_down = {origin for origin, size in planned
                if size < len(network.nodes)}
    assert len(cut_down) >= 3 and scenario.source in cut_down
    assert network._trees == {}


@settings(max_examples=examples(40))
@given(seed=st.integers(0, 10_000), n=st.integers(2, 40), data=st.data())
def test_cut_entries_match_full_source_trees(seed, n, data):
    """For every origin and every link of a weighted tree with mixed
    thresholds, the cut entry read off a rooted index (any root) is what
    the origin's full source tree gives: the link's orientation, the
    parent end's hop count, the TTL the child end needs and the nodes a
    drop there cuts off."""
    network = random_weighted_tree(seed, n)
    neighbors = network._rooted_index().neighbors
    root = data.draw(st.integers(0, n - 1), label="root")
    index = network._index = RootedIndex(
        traverse_tree(neighbors, root), neighbors, network.adjacency)
    for origin in range(n):
        full = build_source_tree(network.adjacency, origin)  # Dijkstra
        for link in network.links:
            parent, child = full.on_tree_edge(link.a, link.b)
            assert network._cut_entry(origin, link) == [
                full.hops[parent], parent, child, full.ttl_required[child],
                None]
            assert index.cut(parent, child) == full.subtree(child)
    assert network._trees == {}


def test_a_star_session_keeps_plans_not_trees(monkeypatch):
    """60 rounds on a 200-leaf star: most members send a request, yet
    the network keeps no source tree, and the one cut set made is the
    filtered link's, for the data source whose packet it drops. Close
    drops the cut entries."""
    monkeypatch.delenv("SRM_CHECK", raising=False)
    scenario = star_scenario(200)
    simulation = LossRecoverySimulation(
        scenario, config=SrmConfig(c1=2.0, c2=20.0), seed=1)
    network = simulation.network
    outcomes = [simulation.run_round() for _ in range(60)]
    assert all(outcome.recovered for outcome in outcomes)
    assert network._trees == {}
    entries = network._cut_entries
    assert len({origin for origin, _ in entries}) > 100
    filtered = network.link_between(*scenario.drop_edge)
    assert {key for key, entry in entries.items()
            if entry[4] is not None} == {(scenario.source, filtered)}
    simulation.close()
    assert network._cut_entries == {}


def charged(network):
    """Every link that carried a packet, with its count."""
    return [(link.a, link.b, link.packets_carried)
            for link in network.links if link.packets_carried]


class Sink(Agent):
    def __init__(self):
        super().__init__()
        self.got = []

    def receive(self, packet):
        self.got.append((self.now, packet.ttl))


def long_hop_unicast():
    """One hop-engine unicast 0 -> 999 across a 1000-node random tree:
    70 hops, each link on the path charged once."""
    network = random_labeled_tree(1000, RandomSource(2)).build(
        delivery="hop")
    network.account_bandwidth = True
    sink = network.attach(999, Sink())
    network.send_unicast(0, 999, "data")
    network.run()
    return network, sink


def test_send_paths_keep_no_tree_on_a_tree_topology(monkeypatch):
    """Three runs on loaded tree topologies with link charging on: a
    figure-4 round (40 members on 1000 nodes) in each engine, and the
    long hop-engine unicast, which takes each next hop off the rooted
    index. Every multicast is charged on its sender's member tree and
    forwarded off the rooted index, so no run keeps a source tree; the
    links carry what full source trees had them carry (the round: 106
    links, 423 packets, in both engines)."""
    monkeypatch.delenv("SRM_CHECK", raising=False)
    scenario = figure4_scenarios(sizes=(40,), sims=1, seed=4)[0]
    # The reference: the round charged on full source trees.
    full = LossRecoverySimulation(scenario, config=SrmConfig(), seed=1)
    full.network.account_bandwidth = True
    full.network.member_tree = (
        lambda origin, nodes: full.network.source_tree(origin))
    full.run_round()
    expected = charged(full.network)
    assert (len(expected),
            sum(count for _, _, count in expected)) == (106, 423)
    for delivery in ("direct", "hop"):
        simulation = LossRecoverySimulation(
            scenario, config=SrmConfig(), seed=1, delivery=delivery)
        network = simulation.network
        network.account_bandwidth = True
        outcome = simulation.run_round()
        assert outcome.recovered and outcome.requests == outcome.repairs == 1
        assert network._trees == {}, delivery
        assert charged(network) == expected, delivery
    network, sink = long_hop_unicast()
    assert sink.got == [(70.0, 185)]
    assert network._trees == {}
    assert [count for _, _, count in charged(network)] == [1] * 70
