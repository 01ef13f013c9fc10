"""The hop engine's forwarding tables against a table-free reference.

``Network._multicast_arrive`` reads one cached row per hop (who takes
the packet here, which links it leaves on). The reference below is the
engine those tables replaced: no cache at all, every hop recomputes the
pruned set from ``groups.members`` and asks ``is_member``. Both run the
same scenario and must agree on everything observable — deliveries in
firing order, event and drop counts, per-link accounting and the trace
text — on random topologies and under scripted changes made while a
packet is in flight.
"""

from __future__ import annotations

import dataclasses
import itertools
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import packet as packet_module
from repro.net.link import NthPacketDropFilter
from repro.net.node import Agent
from repro.sim.rng import RandomSource
from repro.topology.chain import chain
from repro.topology.graphs import tree_plus_edges
from repro.topology.random_tree import random_labeled_tree
from repro.topology.spec import TopologySpec
from repro.topology.star import star

from conftest import examples


class Recorder(Agent):
    def __init__(self, log):
        super().__init__()
        self.log = log

    def receive(self, packet):
        self.log.append((round(self.now, 9), self.node_id, packet.uid,
                         packet.ttl))


def use_reference_forwarder(network):
    """Swap in the table-free hop engine on this network instance."""

    def dropped(kind, at, child, packet):
        network.packets_dropped += 1
        network.trace.record(network.scheduler.now, at, kind,
                             packet=packet.uid, packet_kind=packet.kind,
                             link=(at, child))

    def forward(at, packet, tree):
        needed = set()
        for member in network.groups.members(packet.dst):
            node = member
            while node is not None and node not in needed:
                needed.add(node)
                node = tree.parent[node]
        for child in tree.children[at]:
            if child not in needed:
                continue
            link = network.adjacency[at][child]
            if packet.ttl < link.threshold:
                continue
            if packet.scope_zone is not None:
                zone = network.scope_zones[packet.scope_zone]
                if at not in zone or child not in zone:
                    continue
            if link.filters and link.drops_packet(packet, at):
                dropped("drop", at, child, packet)
                continue
            arrival = link.arrival_time(network.scheduler, packet, at)
            if arrival is None:
                dropped("queue_drop", at, child, packet)
                continue
            if network.account_bandwidth:
                link.account(packet)
            network.scheduler.schedule_at(
                arrival, arrive, child,
                dataclasses.replace(packet, ttl=packet.ttl - 1), tree)

    def arrive(at, packet, tree):
        if network.groups.is_member(at, packet.dst):
            network._deliver(at, packet)
        forward(at, packet, tree)

    network._multicast_hop_start = lambda packet: forward(
        packet.origin, packet, network.source_tree(packet.origin))


@contextmanager
def uids_from_one():
    """Both runs of a comparison number their packets alike."""
    saved = packet_module._packet_uids
    packet_module._packet_uids = itertools.count(1)
    try:
        yield
    finally:
        packet_module._packet_uids = saved


def observed(network, log):
    return {
        "deliveries": list(log),
        "events": network.scheduler.events_processed,
        "dropped": network.packets_dropped,
        "links": [(link.a, link.b, link.packets_carried, link.bytes_carried,
                   link.queue_drops) for link in network.links],
        "trace": network.trace.dump(),
    }


def both_ways(scenario):
    """Run ``scenario(network builder hook)`` on the tables and on the
    reference; return the (equal) observation."""
    with uids_from_one():
        tables = scenario(lambda network: None)
    with uids_from_one():
        reference = scenario(use_reference_forwarder)
    assert tables == reference
    return tables


# ----------------------------------------------------------------------
# Random scenarios
# ----------------------------------------------------------------------


def random_scenario(seed, nodes, extra_edges, trace_deliveries, prepare):
    rng = RandomSource(seed)
    if extra_edges:
        spec = tree_plus_edges(
            nodes, min(nodes - 1 + extra_edges, nodes * (nodes - 1) // 2),
            rng)
    else:
        spec = random_labeled_tree(nodes, rng)
    network = spec.build(delivery="hop")
    network.trace.keep = None
    network.trace_deliveries = trace_deliveries
    network.account_bandwidth = True
    for link in network.links:
        link.delay = rng.choice((0.5, 1.0, 2.0))
    for link in rng.sample(network.links, min(3, len(network.links))):
        link.threshold = rng.randint(2, 6)
    network.invalidate_routes()
    # One slow link with a small buffer: anything crossing it within 5
    # time units of the previous packet queues or is tail-dropped.
    network.set_link_bandwidth(*rng.choice(spec.edges), bandwidth=200.0,
                               queue_limit=rng.randint(1, 2))
    network.add_drop_filter(
        *rng.choice(spec.edges),
        NthPacketDropFilter(lambda packet: True, n=rng.randint(1, 3)))
    center = rng.randint(0, nodes - 1)
    zone = [node for node in range(nodes) if network.hops(center, node) <= 2]
    network.define_scope_zone("zone", zone)
    group = network.groups.allocate()
    log = []
    members = sorted(rng.sample(range(nodes), rng.randint(2, nodes)))
    for position, member in enumerate(members):
        # The first member carries two agents, the second none.
        for _ in range({0: 2, 1: 0}.get(position, 1)):
            network.attach(member, Recorder(log))
        network.join(member, group)
    for _ in range(rng.randint(2, 6)):
        origin = rng.randint(0, nodes - 1)
        scoped = origin in zone and rng.random() < 0.3
        network.scheduler.schedule_at(
            float(rng.randint(0, 3)), network.send_multicast, origin, group,
            "data", None, rng.randint(1, 40), 1000,
            "zone" if scoped else None)
    for _ in range(rng.randint(0, 3)):  # changes with packets in flight
        when = rng.randint(0, 5) + 0.25
        node = rng.randint(0, nodes - 1)
        change = rng.choice(("leave", "join", "attach", "detach"))
        if change == "attach":
            network.scheduler.schedule_at(when, network.attach, node,
                                          Recorder(log))
        elif change == "detach":
            def detach_one(node=node):
                if network.nodes[node].agents:
                    network.detach(node, network.nodes[node].agents[0])
            network.scheduler.schedule_at(when, detach_one)
        else:
            network.scheduler.schedule_at(when, getattr(network, change),
                                          node, group)
    prepare(network)
    network.run()
    return observed(network, log)


@settings(max_examples=examples(60))
@given(seed=st.integers(0, 10_000), nodes=st.integers(3, 30),
       extra_edges=st.integers(0, 6), trace_deliveries=st.booleans())
def test_tables_agree_with_the_table_free_engine(seed, nodes, extra_edges,
                                                 trace_deliveries):
    both_ways(lambda prepare: random_scenario(
        seed, nodes, extra_edges, trace_deliveries, prepare))


def test_random_scenarios_reach_every_branch():
    """Fixed seeds (always run): together they overflow the queue, fire
    the drop filter and deliver."""
    queue_drops = filter_drops = deliveries = 0
    for seed in range(12):
        seen = both_ways(lambda prepare: random_scenario(
            seed, 8 + seed, seed % 3, seed % 2 == 0, prepare))
        queue_drops += seen["trace"].count("queue_drop")
        filter_drops += seen["dropped"] - seen["trace"].count("queue_drop")
        deliveries += len(seen["deliveries"])
    assert queue_drops and filter_drops and deliveries


# ----------------------------------------------------------------------
# Changes made while a packet is in flight (a 6-node chain, unit delays:
# a packet sent from node 0 at t=0 reaches node k at t=k).
# ----------------------------------------------------------------------


def chain_scenario(script, prepare, members=(1, 3, 5), spec=None):
    network = (spec or chain(6)).build(delivery="hop")
    network.trace.keep = None
    network.trace_deliveries = False  # check mode (SRM_CHECK) turns it on
    network.account_bandwidth = True
    group = network.groups.allocate()
    log = []
    for member in members:
        network.attach(member, Recorder(log))
        network.join(member, group)
    network.scheduler.schedule_at(0.0, network.send_multicast, 0, group,
                                  "data")
    script(network, group, log)
    prepare(network)
    network.run()
    return observed(network, log)


def receivers(seen):
    return [(time, node) for time, node, _, _ in seen["deliveries"]]


def test_leave_then_join_elsewhere_takes_effect_at_the_next_hop():
    def script(network, group, log):
        def move():
            network.leave(5, group)
            network.attach(4, Recorder(log))
            network.join(4, group)
        network.scheduler.schedule_at(2.5, move)

    seen = both_ways(lambda prepare: chain_scenario(script, prepare))
    assert receivers(seen) == [(1.0, 1), (3.0, 3), (4.0, 4)]
    assert seen["links"][4] == (4, 5, 0, 0, 0)  # pruned before it got there


def test_last_member_leaving_stops_the_packet_where_it_is():
    def script(network, group, log):
        network.scheduler.schedule_at(1.5, network.leave, 3, group)
        network.scheduler.schedule_at(1.5, network.leave, 5, group)

    seen = both_ways(lambda prepare: chain_scenario(script, prepare))
    assert receivers(seen) == [(1.0, 1)]
    # In flight on link 1-2 when they left: it lands on 2 and dies there.
    assert [link[2] for link in seen["links"]] == [1, 1, 0, 0, 0]


def test_attach_and_detach_take_effect_at_the_next_hop():
    def script(network, group, log):
        def swap():
            network.detach(3, network.nodes[3].agents[0])
            network.attach(5, Recorder(log))   # node 5 now carries two
        network.scheduler.schedule_at(2.5, swap)

    seen = both_ways(lambda prepare: chain_scenario(script, prepare))
    assert receivers(seen) == [(1.0, 1), (5.0, 5), (5.0, 5)]


def test_trace_deliveries_flipped_in_flight():
    def script(network, group, log):
        network.scheduler.schedule_at(
            2.5, setattr, network, "trace_deliveries", True)
        network.scheduler.schedule_at(
            4.5, setattr, network, "trace_deliveries", False)

    seen = both_ways(lambda prepare: chain_scenario(script, prepare))
    assert receivers(seen) == [(1.0, 1), (3.0, 3), (5.0, 5)]
    assert seen["trace"].count("deliver") == 1  # node 3's, not 1's or 5's


def test_deliver_wrapped_on_the_instance_in_flight():
    wrapped = []

    def script(network, group, log):
        def wrap():
            original = network._deliver

            def spying(node_id, packet):
                wrapped.append(node_id)
                original(node_id, packet)
            network._deliver = spying
            # The one switch that routes a delivery through _deliver.
            network.trace_deliveries = True
        network.scheduler.schedule_at(2.5, wrap)

    seen = both_ways(lambda prepare: chain_scenario(script, prepare))
    assert receivers(seen) == [(1.0, 1), (3.0, 3), (5.0, 5)]
    assert wrapped == [3, 5, 3, 5]  # both runs, from the wrap onwards


def test_receive_spy_set_after_the_first_delivery_is_honoured():
    spied = []

    def script(network, group, log):
        def spy():
            agent = network.nodes[3].agents[0]
            agent.receive = lambda packet: spied.append(packet.ttl)
        # The first send built the table; the spy lands between sends.
        network.scheduler.schedule_at(10.0, spy)
        network.scheduler.schedule_at(11.0, network.send_multicast, 0,
                                      group, "data")

    seen = both_ways(lambda prepare: chain_scenario(script, prepare))
    assert receivers(seen) == [(1.0, 1), (3.0, 3), (5.0, 5),
                               (12.0, 1), (16.0, 5)]
    assert len(spied) == 2  # one per run

    # The direct engine: from leaf 1 of a star, leaves 2-4 tie, one run
    # bound by the first send; the spy lands on its middle member.
    spied.clear()
    network = star(4).build(delivery="direct")
    network.trace_deliveries = False  # check mode delivers via _deliver
    group = network.groups.allocate()
    log = []
    for leaf in range(1, 5):
        network.attach(leaf, Recorder(log))
        network.join(leaf, group)
    network.send_multicast(1, group, "data")
    network.run()
    assert list(network._run_bindings) == [(2, 3, 4)]
    network.nodes[3].agents[0].receive = (
        lambda packet: spied.append(packet.ttl))
    network.send_multicast(1, group, "data")
    network.run()
    assert [node for _, node, _, _ in log] == [2, 3, 4, 2, 4]
    assert len(spied) == 1


def test_receiver_changing_membership_redirects_the_same_hop():
    """A ``receive`` that makes members downstream leave: the forward
    that follows in the same event already sees them gone."""

    class Bouncer(Recorder):
        def receive(self, packet):
            super().receive(packet)
            self.network.leave(3, packet.dst)
            self.network.leave(5, packet.dst)

    def script(network, group, log):
        network.detach(1, network.nodes[1].agents[0])
        network.attach(1, Bouncer(log))

    seen = both_ways(lambda prepare: chain_scenario(script, prepare))
    assert receivers(seen) == [(1.0, 1)]
    assert [link[2] for link in seen["links"]] == [1, 0, 0, 0, 0]


#: 0-1-3 costs 2, 0-2-3 costs 4 — until the 0-1 delay is raised to 10.
SQUARE = TopologySpec(name="square", num_nodes=4,
                      edges=[(0, 1), (1, 3), (0, 2), (2, 3)])


def square_scenario(script, prepare):
    def setup(network, group, log):
        network.link_between(0, 2).delay = 2.0
        network.link_between(2, 3).delay = 2.0
        network.invalidate_routes()
        script(network, group, log)

    return chain_scenario(setup, prepare, members=(3,), spec=SQUARE)


def reroute(network):
    network.link_between(0, 1).delay = 10.0
    network.invalidate_routes()


def test_table_rebuilt_in_flight_keeps_the_packets_own_tree():
    """``invalidate_routes()`` and a join land while the packet crosses
    0-1: its table is rebuilt (the join), but for the tree it started
    on, not the one a new send would get (tests/test_pruning.py has the
    plain cases)."""

    def script(network, group, log):
        network.scheduler.schedule_at(0.5, reroute, network)
        network.scheduler.schedule_at(0.5, network.join, 2, group)

    seen = both_ways(lambda prepare: square_scenario(script, prepare))
    assert receivers(seen) == [(2.0, 3)]  # via 1, not 0-2-3


def test_tree_table_rebuilt_in_flight_keeps_the_packets_own_routes():
    """On a tree topology the table is read off the rooted index. A
    delay edit on 3-4, ``invalidate_routes()`` and a join at 4 land
    while the packet crosses 0-1: the join rebuilds the table on the
    index the packet started on, which the edit made stale, and the
    packet still reaches every member, the new one over the edited
    link. A later send reads the network's new index."""

    def edit(network, group, log):
        network.link_between(3, 4).delay = 5.0
        network.invalidate_routes()
        network.attach(4, Recorder(log))
        network.join(4, group)

    def script(network, group, log):
        network.scheduler.schedule_at(0.5, edit, network, group, log)
        network.scheduler.schedule_at(20.0, network.send_multicast, 0,
                                      group, "data")

    seen = both_ways(lambda prepare: chain_scenario(script, prepare))
    assert receivers(seen) == [(1.0, 1), (3.0, 3), (8.0, 4), (9.0, 5),
                               (21.0, 1), (23.0, 3), (28.0, 4), (29.0, 5)]
    assert [link[2] for link in seen["links"]] == [2, 2, 2, 2, 2]


def test_unknown_scope_zone_is_an_error_not_a_silent_drop():
    network = chain(3).build(delivery="hop")
    group = network.groups.allocate()
    network.join(2, group)
    with pytest.raises(KeyError):
        network.send_multicast(0, group, "data", scope_zone="nowhere")
