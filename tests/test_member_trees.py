"""Member trees, plans and cut entries: a sender keeps its plan, not
its tree.

A network answers every route question through one routes object: a
loaded tree topology's shared ``RootedIndex``, any other graph's own
``SourceTrees``. Every edge of a loaded tree is one link, so the rooted
index answers a pair, a direct-engine plan or a cut entry by hop count:
a climb by depth and two per-hop tables (delay, TTL needed), with no
tree built. ``RootedIndex.member_tree`` (the origin's source tree cut
down to the paths to some nodes) serves the hop engine's forwarding
tables and link charging. Armed drop filters are consulted through one
cut entry per (origin, link), whose cut set is made only when the
filter drops. These tests pin that all of this is invisible: both kinds
of routes answer as Dijkstra does, bit for bit; a member tree is the
full tree restricted; plans and cut entries are what the full tree
says; a network that charges links on member trees delivers, drops and
charges exactly as one that charges on full trees; neither a
figure-shaped round nor a long star session builds a full tree; and the
experiments' tree questions give what the full source trees gave.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.n_unicast import (multicast_link_cost,
                                       unicast_link_cost, worst_link_load)
from repro.core.config import SrmConfig
from repro.experiments.common import (LossRecoverySimulation, Scenario,
                                      candidate_drop_edges)
from repro.experiments.figure4 import figure4_scenarios
from repro.experiments.figure5 import star_scenario
from repro.experiments.figure7 import drop_edge_at_hops
from repro.experiments.robustness import _single_member_loss_scenario
from repro.net import routing
from repro.net.link import NthPacketDropFilter
from repro.net.network import Network
from repro.net.node import Agent
from repro.net.packet import Packet
from repro.net.routing import (RootedIndex, SourceTrees, build_source_tree,
                               traverse_tree)
from repro.oracle.base import check_mode_enabled
from repro.sim.rng import RandomSource
from repro.topology.btree import balanced_tree
from repro.topology.graphs import tree_plus_edges
from repro.topology.random_tree import random_labeled_tree

from conftest import examples
from test_lazy_network import eager
from test_routing import assert_same_tree


def rooted(network, root=0):
    """Route ``network``, a tree whose links all have one delay and one
    threshold, on a rooted index of its own links rooted at ``root``, as
    a loaded tree routes on its skeleton's (rooted at 0)."""
    neighbors = {node: sorted(links.items())
                 for node, links in network.adjacency.items()}
    links = network.links
    assert len({(link.delay, link.threshold) for link in links}) == 1
    network._routes = RootedIndex(traverse_tree(neighbors, root), neighbors,
                                  links[0])
    return network._routes


#: Uniform link delays whose sums are inexact in binary floating point.
DELAYS = (0.1, 0.7, 3.0)


def random_uniform_tree(seed, n, delay=0.7, threshold=2):
    """A loaded random labeled tree whose links all have ``delay`` and
    ``threshold``: the only kind of topology a rooted index serves."""
    return random_labeled_tree(n, RandomSource(seed)).build(
        delay=delay, threshold=threshold)


@contextmanager
def full_trees_built():
    """The origin of every full source tree built inside the block."""
    built = []
    real_build = routing.build_source_tree
    real_traverse = RootedIndex.source_tree

    def build(adjacency, origin, neighbors=None):
        built.append(origin)
        return real_build(adjacency, origin, neighbors)

    def traverse(index, origin):
        built.append(origin)
        return real_traverse(index, origin)

    with mock.patch.object(routing, "build_source_tree", build), \
            mock.patch.object(RootedIndex, "source_tree", traverse):
        yield built


def three_kinds(kind, seed, n):
    """(network, reference adjacency) for one of the three kinds of
    routes: a loaded tree on its skeleton's index, a loaded tree whose
    delays were edited (1 to 20), and a mesh. The reference is an
    eagerly built copy with the same delays."""
    rng = RandomSource(seed)
    if kind == "mesh":
        spec = tree_plus_edges(n, min(n * (n - 1) // 2, n + n // 2), rng)
    else:
        spec = random_labeled_tree(n, rng)
    network = spec.build()
    reference = eager(spec)
    if kind == "edited":
        for link, twin in zip(network.links, reference.links):
            link.delay = twin.delay = float(rng.randint(1, 20))
        network.invalidate_routes()
        reference.invalidate_routes()
    expected = RootedIndex if kind == "loaded" else SourceTrees
    assert isinstance(network._routes, expected)
    return network, reference.adjacency


@settings(max_examples=examples(40))
@given(kind=st.sampled_from(["loaded", "edited", "mesh"]),
       seed=st.integers(0, 10_000), n=st.integers(2, 30), data=st.data())
def test_every_route_question_is_answered_as_dijkstra(kind, seed, n, data):
    """pair, path, next hop, cut, member and full trees, on all three
    kinds of routes, equal Dijkstra over an eagerly built adjacency."""
    network, adjacency = three_kinds(kind, seed, n)
    routes = network._routes
    nodes = data.draw(st.lists(st.integers(0, n - 1), max_size=n),
                      label="nodes")
    for a in range(n):
        full = build_source_tree(adjacency, a)  # Dijkstra
        assert_same_tree(routes.source_tree(a), full, range(n))
        for b in range(n):
            assert routes.pair(a, b) == (full.dist[b], full.hops[b])
            assert network.distance(a, b) == full.dist[b]
            assert network.hops(a, b) == full.hops[b]
            assert routes.path(a, b) == network.path(a, b) == full.path(b)
            if a != b:
                assert network.path(a, b)[1] == full.path(b)[1]  # next hop
                parent = full.parent[b]
                assert routes.cut(a, parent, b) == full.subtree(b)
        member = network.member_tree(a, nodes)
        for node in {a}.union(*[full.path(node) for node in nodes]):
            assert member.parent[node] == full.parent[node]
            assert member.dist[node] == full.dist[node]
            assert member.ttl_required[node] == full.ttl_required[node]
            assert member.path(node) == full.path(node)


@settings(max_examples=examples(40))
@given(seed=st.integers(0, 10_000), n=st.integers(2, 60),
       delay=st.sampled_from(DELAYS), threshold=st.integers(1, 3),
       data=st.data())
def test_member_tree_is_the_source_tree_cut_down(seed, n, delay, threshold,
                                                 data):
    network = random_uniform_tree(seed, n, delay, threshold)
    root = data.draw(st.integers(0, n - 1), label="root")
    origin = data.draw(st.integers(0, n - 1), label="origin")
    nodes = data.draw(st.lists(st.integers(0, n - 1), max_size=n),
                      label="nodes")
    index = rooted(network, root)
    full = build_source_tree(network.adjacency, origin)  # Dijkstra
    member = index.member_tree(origin, nodes)
    spanned = {origin}.union(*[full.path(node) for node in nodes])
    if 2 * len(nodes) >= n:  # from half the topology on: the full tree
        spanned = set(full.parent)
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
                       account=True, delay=0.7, threshold=2):
    """Run ``sends`` on a random tree rooted at node 0; with ``full``
    every sender charges links on its full source tree, not on a member
    tree. ``account`` charges links."""
    network = random_uniform_tree(seed, n, delay, threshold)
    rooted(network)
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
@given(seed=st.integers(0, 10_000), n=st.integers(6, 40),
       delay=st.sampled_from(DELAYS), threshold=st.integers(1, 3),
       data=st.data())
def test_member_tree_sends_match_full_tree_sends(seed, n, delay, threshold,
                                                 data):
    """Filters anywhere on the tree, including links no member hangs
    below, see the same packets in the same order either way."""
    links = dict(delay=delay, threshold=threshold)
    nodes = st.integers(0, n - 1)
    members = sorted(data.draw(st.sets(nodes, min_size=1,
                                       max_size=(n - 1) // 2),
                               label="members"))
    sends = data.draw(st.lists(st.tuples(
        st.integers(0, 30).map(float), nodes, st.integers(1, 64)),
        min_size=1, max_size=8), label="sends")
    edges = [(link.a, link.b)
             for link in random_uniform_tree(seed, n, **links).links]
    filters = data.draw(st.lists(st.tuples(
        st.integers(0, 30).map(lambda t: t + 0.5), st.sampled_from(edges),
        st.integers(1, 3)), max_size=3), label="filters")
    joins = data.draw(st.lists(st.tuples(
        st.integers(0, 30).map(lambda t: t + 0.25), nodes), max_size=2),
        label="joins")
    with full_trees_built() as built:
        member_run, _ = run_sparse_session(
            seed, n, members, sends, filters, joins, full=False, **links)
    full_run, _ = run_sparse_session(
        seed, n, members, sends, filters, joins, full=True, **links)
    assert member_run == full_run
    # Charging links or not, the direct engine builds no source tree: the
    # same packets arrive and drop, off plans and cut entries alone.
    with full_trees_built() as quiet_built:
        quiet_run, _ = run_sparse_session(
            seed, n, members, sends, filters, joins, full=False,
            account=False, **links)
    assert quiet_run[:2] + quiet_run[3:] == member_run[:2] + member_run[3:]
    # Check mode's scope oracle reads each sender's full tree on its own.
    allowed = ({origin for _, origin, _ in sends} if check_mode_enabled()
               else set())
    assert set(built) | set(quiet_built) <= allowed


def test_a_sparse_round_builds_no_full_tree(monkeypatch):
    """A figure-4 round (40 members on 1000 nodes) in the direct engine
    builds no tree at all: every sender's plan and its one cut entry for
    the filtered link are read off the skeleton's rooted index, which the
    network shares with every other build of the spec, and so is the
    closest requester's distance. No traversal runs, no member tree is
    asked for, and the network keeps none."""
    scenario = figure4_scenarios(sizes=(40,), sims=1, seed=4)[0]
    traversals = []
    real_traverse = routing.traverse_tree

    def traverse(neighbors, origin, within=None):
        traversals.append(origin)
        return real_traverse(neighbors, origin, within)

    member_trees = []
    real_member_tree = Network.member_tree

    def member_tree(network, origin, nodes):
        member_trees.append(origin)
        return real_member_tree(network, origin, nodes)

    monkeypatch.setattr(routing, "traverse_tree", traverse)
    monkeypatch.setattr(Network, "member_tree", member_tree)
    # Check mode's oracles read full trees of their own; count a plain run.
    monkeypatch.delenv("SRM_CHECK", raising=False)
    plans = Network._multicast_plan
    cut_entries = Network._cut_entry
    with full_trees_built() as built:
        simulation = LossRecoverySimulation(scenario, config=SrmConfig(),
                                            seed=1)
        network = simulation.network
        planned = []
        monkeypatch.setattr(network, "_multicast_plan", lambda *args: (
            planned.append(args[0].origin) or plans(network, *args)))
        cut = []
        monkeypatch.setattr(network, "_cut_entry", lambda *args: (
            cut.append(args[0]) or cut_entries(network, *args)))
        outcome = simulation.run_round()
    assert outcome.recovered and outcome.requests >= 1
    assert len(set(planned)) >= 3 and scenario.source in planned
    assert scenario.source in cut and len(cut) == len(set(cut))
    assert traversals == [] and member_trees == [] and built == []
    assert network._routes is scenario.spec.build()._routes
    assert isinstance(network._routes, RootedIndex)


def reference_plan(tree, members, origin, initial_ttl, zone=None):
    """A direct-engine plan read off ``tree``, ``origin``'s full source
    tree, the way plans were made from source trees: members sorted by
    (delay, membership order), runs merged on equal (delay, hops)."""
    eligible = []
    for order, member in enumerate(members):
        if member == origin or initial_ttl < tree.ttl_required[member]:
            continue
        if zone is not None and not set(tree.path(member)) <= zone:
            continue
        eligible.append((tree.dist[member], order, member))
    eligible.sort()
    entries = []
    for dist, _, member in eligible:
        hops = tree.hops[member]
        if entries and entries[-1][:2] == (dist, hops):
            entries[-1] = (dist, hops, entries[-1][2] + (member,))
        else:
            entries.append((dist, hops, (member,)))
    hop_counts = tuple(dict.fromkeys(entry[1] for entry in entries))
    slots = tuple(hop_counts.index(entry[1]) for entry in entries)
    return tuple(entries), len(eligible), hop_counts, slots


@settings(max_examples=examples(40))
@given(seed=st.integers(0, 10_000), n=st.integers(2, 50),
       delay=st.sampled_from(DELAYS), threshold=st.integers(1, 3),
       data=st.data())
def test_depth_answers_match_traversal_bit_for_bit(seed, n, delay,
                                                   threshold, data):
    """On a loaded tree with a non-unit delay and threshold, the rooted
    index answers by hop count: ``pair``, every direct-engine plan
    (entries, runs, hop counts, slots; with and without a scope zone)
    and every cut entry equal what the origin's traversed source tree
    and Dijkstra's give, float for float."""
    network = random_uniform_tree(seed, n, delay, threshold)
    routes = network._routes
    assert isinstance(routes, RootedIndex)
    adjacency = eager(random_labeled_tree(n, RandomSource(seed)),
                      delay).adjacency
    for links in adjacency.values():
        for link in links.values():
            link.threshold = threshold
    members = tuple(sorted(data.draw(
        st.sets(st.integers(0, n - 1), min_size=1), label="members")))
    zone = set(data.draw(st.sets(st.integers(0, n - 1)), label="zone"))
    network.define_scope_zone("zone", zone)
    group = network.groups.allocate()
    for member in members:
        network.join(member, group)
    for origin in range(n):
        tree = routes.source_tree(origin)  # a traversal
        dijkstra = build_source_tree(adjacency, origin)
        assert_same_tree(tree, dijkstra, ())
        for b in range(n):
            assert routes.pair(origin, b) == (tree.dist[b], tree.hops[b])
        for ttl in (1, threshold + 1, threshold + 3, 255):
            for scope in (None, "zone"):
                packet = Packet(origin=origin, dst=group, kind="data",
                                ttl=ttl, scope_zone=scope)
                assert network._multicast_plan(packet, members) == \
                    reference_plan(tree, members, origin, ttl,
                                   zone if scope else None)
        for link in network.links:
            parent, child = tree.on_tree_edge(link.a, link.b)
            assert network._cut_entry(origin, link) == [
                tree.hops[parent], parent, child,
                tree.ttl_required[child], None]


@settings(max_examples=examples(40))
@given(seed=st.integers(0, 10_000), n=st.integers(2, 40),
       delay=st.sampled_from(DELAYS), threshold=st.integers(1, 3),
       data=st.data())
def test_cut_entries_match_full_source_trees(seed, n, delay, threshold,
                                             data):
    """For every origin and every link of a tree with a non-unit delay
    and threshold, the cut entry read off a rooted index (any root) is
    what the origin's full source tree gives: the link's orientation,
    the parent end's hop count, the TTL the child end needs and the
    nodes a drop there cuts off."""
    network = random_uniform_tree(seed, n, delay, threshold)
    root = data.draw(st.integers(0, n - 1), label="root")
    index = rooted(network, root)
    with full_trees_built() as built:
        for origin in range(n):
            full = routing.build_source_tree(  # Dijkstra
                network.adjacency, origin)
            for link in network.links:
                parent, child = full.on_tree_edge(link.a, link.b)
                assert network._cut_entry(origin, link) == [
                    full.hops[parent], parent, child,
                    full.ttl_required[child], None]
                assert index.cut(origin, parent, child) == \
                    full.subtree(child)
    # Only the references were full trees.
    assert built == list(range(n))


def test_a_star_session_keeps_plans_not_trees(monkeypatch):
    """60 rounds on a 200-leaf star: most members send a request, yet
    the network keeps no source tree: it still routes on the shared
    index, which keeps none. The one cut set made is the filtered
    link's, for the data source whose packet it drops. Close drops the
    cut entries."""
    monkeypatch.delenv("SRM_CHECK", raising=False)
    scenario = star_scenario(200)
    simulation = LossRecoverySimulation(
        scenario, config=SrmConfig(c1=2.0, c2=20.0), seed=1)
    network = simulation.network
    outcomes = [simulation.run_round() for _ in range(60)]
    assert all(outcome.recovered for outcome in outcomes)
    assert network._routes is scenario.spec.build()._routes
    assert isinstance(network._routes, RootedIndex)
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
    forwarded off the rooted index, so no run builds a full tree; the
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
        with full_trees_built() as built:
            simulation = LossRecoverySimulation(
                scenario, config=SrmConfig(), seed=1, delivery=delivery)
            network = simulation.network
            network.account_bandwidth = True
            outcome = simulation.run_round()
        assert outcome.recovered and outcome.requests == outcome.repairs == 1
        assert built == [], delivery
        assert charged(network) == expected, delivery
    with full_trees_built() as built:
        network, sink = long_hop_unicast()
    assert sink.got == [(70.0, 185)]
    assert built == []
    assert [count for _, _, count in charged(network)] == [1] * 70


def old_drop_edge_at_hops(tree, hops, members):
    """``figure7.drop_edge_at_hops`` on the source's full tree."""
    member_set = set(members)
    candidates = []
    for node, parent in tree.parent.items():
        if parent is None or tree.hops[node] != hops:
            continue
        if member_set & tree.subtree(node):
            candidates.append((parent, node))
    if not candidates:
        raise ValueError(f"no candidate edge at {hops} hops")
    return min(candidates, key=lambda edge: edge[1])


def old_single_member_loss_scenario(rng):
    """``robustness._single_member_loss_scenario`` on full trees."""
    spec = balanced_tree(300, 4)
    members = sorted(rng.sample(range(spec.num_nodes), 40))
    source = rng.choice(members)
    tree = build_source_tree(spec.build().adjacency, source)
    leaves = [m for m in members
              if m != source and not (tree.subtree(m) - {m})]
    victim = rng.choice(leaves)
    return Scenario(spec=spec, members=members, source=source,
                    drop_edge=(tree.parent[victim], victim))


@settings(max_examples=examples(25), deadline=None)
@given(mesh=st.booleans(), seed=st.integers(0, 10_000),
       n=st.integers(2, 30), data=st.data())
def test_tree_questions_outside_net_match_full_source_trees(mesh, seed, n,
                                                            data):
    """The experiments' and baselines' tree questions, asked of the
    network, give what the full-source-tree formulas they replaced give,
    on random trees and meshes."""
    rng = RandomSource(seed)
    spec = (tree_plus_edges(n, min(n * (n - 1) // 2, n + n // 2), rng)
            if mesh else random_labeled_tree(n, rng))
    network = spec.build()
    members = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1),
                               label="members"))
    source = data.draw(st.sampled_from(members), label="source")
    tree = build_source_tree(eager(spec).adjacency, source)  # Dijkstra

    needed = set()
    for member in sorted(set(members) - {source}):
        path = tree.path(member)
        needed.update(zip(path[:-1], path[1:]))
    edges = candidate_drop_edges(network, source, members)
    assert edges == sorted(needed)

    for hops in range(5):
        try:
            expected = old_drop_edge_at_hops(tree, hops, members)
        except ValueError:
            with pytest.raises(ValueError):
                drop_edge_at_hops(spec, source, hops, members)
        else:
            assert drop_edge_at_hops(spec, source, hops, members) == expected

    receivers = [node for node in members if node != source]
    assert unicast_link_cost(network, source, members) == sum(
        tree.hops[node] for node in receivers)
    assert multicast_link_cost(network, source, members) == len(needed)
    load = {}
    for node in receivers:
        path = tree.path(node)
        for edge in zip(path[:-1], path[1:]):
            load[edge] = load.get(edge, 0) + 1
    assert worst_link_load(network, source, members) == (
        (max(load.values()), 1) if load else (0, 0))

    if not edges:
        return
    simulation = LossRecoverySimulation(Scenario(
        spec=spec, members=members, source=source, drop_edge=edges[0]))
    for edge in edges:
        below = tree.cut(*edge)
        assert simulation.affected_members(edge) == sorted(
            member for member in members if member in below)
    parent, child = edges[0]
    with pytest.raises(ValueError):
        simulation.affected_members((child, parent))  # reversed
    far = [node for node in range(n)
           if node != parent and node not in network.adjacency[parent]]
    if far:
        with pytest.raises(ValueError):
            simulation.affected_members((parent, far[0]))  # not an edge
    simulation.close()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_single_member_loss_victim_is_the_full_tree_leaf(seed):
    """The robustness case picks the victim the full source tree did."""
    assert _single_member_loss_scenario(RandomSource(seed)) == \
        old_single_member_loss_scenario(RandomSource(seed))
