"""Tests for DVMRP-style pruned multicast forwarding (hop engine)."""

from repro.net.node import Agent
from repro.net.packet import Packet
from repro.topology.btree import balanced_tree
from repro.topology.chain import chain
from repro.topology.spec import TopologySpec


class Sink(Agent):
    def __init__(self):
        super().__init__()
        self.received = []

    def receive(self, packet):
        self.received.append(packet.uid)


def test_traffic_stays_off_memberless_subtrees():
    spec = balanced_tree(13, 3)  # root 0; children 1,2,3
    network = spec.build(delivery="hop")
    network.account_bandwidth = True
    group = network.groups.allocate()
    sink = Sink()
    network.attach(1, sink)
    network.join(1, group)  # only node 1's branch has a member
    network.scheduler.schedule(0.0, network.send_multicast, 0, group,
                               "data")
    network.run()
    assert sink.received
    assert network.link_between(0, 1).packets_carried == 1
    assert network.link_between(0, 2).packets_carried == 0
    assert network.link_between(0, 3).packets_carried == 0


def test_prune_follows_membership_changes():
    network = chain(5).build(delivery="hop")
    network.account_bandwidth = True
    group = network.groups.allocate()
    sink = Sink()
    network.attach(4, sink)
    network.join(4, group)
    network.scheduler.schedule(0.0, network.send_multicast, 0, group,
                               "data")
    network.run()
    assert network.link_between(3, 4).packets_carried == 1
    # The member leaves: subsequent multicasts stop at the graft point.
    network.leave(4, group)
    network.join(2, group)
    network.scheduler.schedule(0.0, network.send_multicast, 0, group,
                               "data")
    network.run()
    assert network.link_between(3, 4).packets_carried == 1  # unchanged
    assert network.link_between(1, 2).packets_carried == 2


def test_prune_cache_is_per_group():
    network = chain(4).build(delivery="hop")
    network.account_bandwidth = True
    group_a = network.groups.allocate("a")
    group_b = network.groups.allocate("b")
    sink_near, sink_far = Sink(), Sink()
    network.attach(1, sink_near)
    network.attach(3, sink_far)
    network.join(1, group_a)
    network.join(3, group_b)
    network.scheduler.schedule(0.0, network.send_multicast, 0, group_a,
                               "data")
    network.scheduler.schedule(0.0, network.send_multicast, 0, group_b,
                               "data")
    network.run()
    # Group A's packet stopped at node 1; group B's went all the way.
    assert network.link_between(2, 3).packets_carried == 1
    assert len(sink_near.received) == 1
    assert len(sink_far.received) == 1


def test_empty_group_generates_no_traffic():
    network = chain(4).build(delivery="hop")
    network.account_bandwidth = True
    group = network.groups.allocate()
    network.scheduler.schedule(0.0, network.send_multicast, 0, group,
                               "data")
    network.run()
    assert all(link.packets_carried == 0 for link in network.links)


def square_with_member_at_3():
    """0-1-3 costs 2 and 0-2-3 costs 4: node 0's tree reaches 3 via 1."""
    network = TopologySpec(
        name="square", num_nodes=4,
        edges=[(0, 1), (1, 3), (0, 2), (2, 3)]).build(delivery="hop")
    network.link_between(0, 2).delay = 2.0
    network.link_between(2, 3).delay = 2.0
    network.invalidate_routes()
    group = network.groups.allocate()
    arrivals = []

    class Clock(Agent):
        def receive(self, packet):
            arrivals.append(self.now)

    network.attach(3, Clock())
    network.join(3, group)
    return network, group, arrivals


def slow_down_link_0_1(network):
    network.link_between(0, 1).delay = 10.0
    network.invalidate_routes()


def test_prune_follows_a_route_change_without_a_membership_change():
    """The pruned state belongs to one source tree: after a topology edit
    reshapes node 0's tree (now 0-2-3) the next multicast must not be
    forwarded into — and silently dropped by — the old tree's prune."""
    network, group, arrivals = square_with_member_at_3()
    network.send_multicast(0, group, "data")
    network.run()
    assert arrivals == [2.0]
    slow_down_link_0_1(network)
    network.send_multicast(0, group, "data")
    network.run()
    assert arrivals == [2.0, 6.0]
    assert network.packets_dropped == 0


def test_packet_in_flight_finishes_on_its_old_tree():
    network, group, arrivals = square_with_member_at_3()
    network.send_multicast(0, group, "data")
    network.scheduler.schedule_at(0.5, slow_down_link_0_1, network)
    network.run()
    # Already on link 0-1 (delay 1 when it left) it goes on through 1.
    assert arrivals == [2.0]
