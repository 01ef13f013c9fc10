"""Member trees: a sender plans on the part of the tree its group spans.

On a tree topology whose group spans under half the nodes, a multicast
sender with no source tree of its own is planned and cut on
``RootedIndex.member_tree``: its source tree cut down to the paths to
the members and to both ends of every armed drop filter. These tests pin
that the switch is invisible: a member tree is the full tree restricted,
a network that plans on member trees delivers, drops and charges links
exactly as one that plans on full trees, and a figure-shaped round
builds one full tree per topology.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.network as network_module
from repro.core.config import SrmConfig
from repro.experiments.common import LossRecoverySimulation
from repro.experiments.figure4 import figure4_scenarios
from repro.net.link import NthPacketDropFilter
from repro.net.node import Agent
from repro.net.routing import RootedIndex, build_source_tree

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


def run_sparse_session(seed, n, members, sends, filters, joins, full):
    """Run ``sends`` on a weighted random tree; with ``full`` every node's
    source tree is built first, so no sender plans on a member tree."""
    network = random_weighted_tree(seed, n)
    network.trace.keep = None
    network.account_bandwidth = True
    group = network.groups.allocate()
    log = []
    for member in range(n):
        network.attach(member, Log(log))
    for member in members:
        network.join(member, group)
    if full:
        for node in range(n):
            network.source_tree(node)
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
    member_run, network = run_sparse_session(
        seed, n, members, sends, filters, joins, full=False)
    full_run, _ = run_sparse_session(
        seed, n, members, sends, filters, joins, full=True)
    assert member_run == full_run
    senders = {origin for _, origin, _ in sends}
    if len(senders) > 1 and not joins:
        assert network._member_trees  # the first sender roots the index


def test_a_sparse_round_builds_no_full_tree(monkeypatch):
    """A figure-4 round (40 members on 1000 nodes) builds no full tree:
    every sender, the source too, gets a member tree off the skeleton's
    rooted index, which the network shares with every other build of
    the spec, and the closest requester's distance is read off that
    index too."""
    scenario = figure4_scenarios(sizes=(40,), sims=1, seed=4)[0]
    built = []
    real = network_module.build_source_tree

    def counting(adjacency, origin, neighbors=None):
        built.append(origin)
        return real(adjacency, origin, neighbors)

    monkeypatch.setattr(network_module, "build_source_tree", counting)
    # Check mode's oracles read full trees of their own; count a plain run.
    monkeypatch.delenv("SRM_CHECK", raising=False)
    simulation = LossRecoverySimulation(scenario, config=SrmConfig(),
                                        seed=1)
    outcome = simulation.run_round()
    assert outcome.recovered and outcome.requests >= 1
    assert built == []
    network = simulation.network
    assert network._index is scenario.spec.build()._index is not None
    cut_down = {origin for (origin, _), (_, tree)
                in network._member_trees.items()
                if len(tree.parent) < len(network.nodes)}
    assert len(cut_down) >= 3 and scenario.source in cut_down
