"""Integration tests for the network container and delivery engines."""

import pytest

from repro.net.link import MatchDropFilter, NthPacketDropFilter
from repro.net.network import Network
from repro.net.node import Agent
from repro.net.packet import Packet
from repro.net.routing import RootedIndex, SourceTrees
from repro.topology.chain import chain
from repro.topology.star import star


class Sink(Agent):
    """Records every packet delivered to its node."""

    def __init__(self):
        super().__init__()
        self.received = []

    def receive(self, packet: Packet) -> None:
        self.received.append((self.now, packet))


def chain_network(n=5, delivery="direct"):
    network = chain(n).build(delivery=delivery)
    sinks = {}
    for node in range(n):
        sinks[node] = Sink()
        network.attach(node, sinks[node])
    return network, sinks


@pytest.mark.parametrize("delivery", ["direct", "hop"])
def test_unicast_delivery_time(delivery):
    network, sinks = chain_network(5, delivery)
    network.scheduler.schedule(
        0.0, network.send_unicast, 0, 4, "data", "payload")
    network.run()
    assert len(sinks[4].received) == 1
    time, packet = sinks[4].received[0]
    assert time == 4.0
    assert packet.payload == "payload"
    # Intermediate nodes do not see unicast traffic addressed elsewhere.
    assert sinks[2].received == []


@pytest.mark.parametrize("delivery", ["direct", "hop"])
def test_unicast_to_self(delivery):
    network, sinks = chain_network(3, delivery)
    network.scheduler.schedule(0.0, network.send_unicast, 1, 1, "data")
    network.run()
    assert len(sinks[1].received) == 1


@pytest.mark.parametrize("delivery", ["direct", "hop"])
def test_multicast_reaches_members_only(delivery):
    network, sinks = chain_network(5, delivery)
    group = network.groups.allocate()
    for node in (1, 3, 4):
        network.join(node, group)
    network.scheduler.schedule(
        0.0, network.send_multicast, 0, group, "data", "x")
    network.run()
    assert len(sinks[1].received) == 1
    assert len(sinks[3].received) == 1
    assert len(sinks[4].received) == 1
    assert sinks[2].received == []  # not a member
    assert sinks[0].received == []  # the sender does not hear itself


@pytest.mark.parametrize("delivery", ["direct", "hop"])
def test_multicast_arrival_times_follow_distance(delivery):
    network, sinks = chain_network(5, delivery)
    group = network.groups.allocate()
    for node in range(5):
        network.join(node, group)
    network.scheduler.schedule(
        0.0, network.send_multicast, 2, group, "data")
    network.run()
    assert sinks[0].received[0][0] == 2.0
    assert sinks[4].received[0][0] == 2.0
    assert sinks[1].received[0][0] == 1.0


@pytest.mark.parametrize("delivery", ["direct", "hop"])
def test_ttl_limits_multicast_scope(delivery):
    network, sinks = chain_network(6, delivery)
    group = network.groups.allocate()
    for node in range(6):
        network.join(node, group)
    network.scheduler.schedule(
        0.0, network.send_multicast, 0, group, "data", None, 2)
    network.run()
    assert len(sinks[1].received) == 1
    assert len(sinks[2].received) == 1
    assert sinks[3].received == []


@pytest.mark.parametrize("delivery", ["direct", "hop"])
def test_link_threshold_blocks_low_ttl(delivery):
    network, sinks = chain_network(4, delivery)
    network.link_between(1, 2).threshold = 100
    network.invalidate_routes()  # thresholds feed ttl_required caches
    group = network.groups.allocate()
    for node in range(4):
        network.join(node, group)
    network.scheduler.schedule(
        0.0, network.send_multicast, 0, group, "data", None, 50)
    network.run()
    assert len(sinks[1].received) == 1
    assert sinks[2].received == []
    # A TTL above the threshold passes.
    network.scheduler.schedule(
        0.0, network.send_multicast, 0, group, "data", None, 150)
    network.run()
    assert len(sinks[2].received) == 1


@pytest.mark.parametrize("delivery", ["direct", "hop"])
def test_drop_filter_cuts_subtree(delivery):
    network, sinks = chain_network(5, delivery)
    group = network.groups.allocate()
    for node in range(5):
        network.join(node, group)
    network.add_drop_filter(
        2, 3, NthPacketDropFilter(lambda p: p.kind == "data"))
    network.scheduler.schedule(0.0, network.send_multicast, 0, group, "data")
    network.scheduler.schedule(1.0, network.send_multicast, 0, group, "data")
    network.run()
    # First packet: nodes 1, 2 only. Second: everyone.
    assert len(sinks[1].received) == 2
    assert len(sinks[2].received) == 2
    assert len(sinks[3].received) == 1
    assert len(sinks[4].received) == 1
    assert network.packets_dropped == 1


@pytest.mark.parametrize("delivery", ["direct", "hop"])
def test_unicast_drop_filter(delivery):
    network, sinks = chain_network(4, delivery)
    network.add_drop_filter(
        1, 2, MatchDropFilter(lambda p: p.kind == "data"))
    network.scheduler.schedule(0.0, network.send_unicast, 0, 3, "data")
    network.scheduler.schedule(0.0, network.send_unicast, 0, 3, "ctrl")
    network.run()
    kinds = [packet.kind for _, packet in sinks[3].received]
    assert kinds == ["ctrl"]


@pytest.mark.parametrize("delivery", ["direct", "hop"])
def test_scope_zone_blocks_boundary(delivery):
    network, sinks = chain_network(6, delivery)
    network.define_scope_zone("site", {0, 1, 2})
    group = network.groups.allocate()
    for node in range(6):
        network.join(node, group)
    network.scheduler.schedule(
        0.0, lambda: network.send_multicast(0, group, "data",
                                            scope_zone="site"))
    network.run()
    assert len(sinks[1].received) == 1
    assert len(sinks[2].received) == 1
    assert sinks[3].received == []


def test_unknown_scope_zone_raises():
    network, _ = chain_network(3, "direct")
    group = network.groups.allocate()
    network.join(2, group)
    network.scheduler.schedule(
        0.0, lambda: network.send_multicast(0, group, "data",
                                            scope_zone="nope"))
    with pytest.raises(KeyError):
        network.run()


def test_bandwidth_accounting_multicast_direct():
    network, _ = chain_network(5, "direct")
    network.account_bandwidth = True
    group = network.groups.allocate()
    for node in (2, 4):
        network.join(node, group)
    network.scheduler.schedule(0.0, network.send_multicast, 0, group, "data")
    network.run()
    # Pruned member tree: links 0-1, 1-2, 2-3, 3-4 each carry one copy.
    carried = [network.link_between(i, i + 1).packets_carried
               for i in range(4)]
    assert carried == [1, 1, 1, 1]


def test_bandwidth_accounting_matches_hop_mode():
    for delivery in ("direct", "hop"):
        network, _ = chain_network(5, delivery)
        network.account_bandwidth = True
        group = network.groups.allocate()
        for node in (2, 4):
            network.join(node, group)
        network.scheduler.schedule(
            0.0, network.send_multicast, 0, group, "data")
        network.run()
        carried = tuple(network.link_between(i, i + 1).packets_carried
                        for i in range(4))
        assert carried == (1, 1, 1, 1), delivery


def test_network_validation_errors():
    network = Network()
    network.add_node(0)
    with pytest.raises(ValueError):
        network.add_node(0)
    network.add_node(1)
    network.add_link(0, 1)
    with pytest.raises(ValueError):
        network.add_link(0, 1)
    with pytest.raises(KeyError):
        network.add_link(0, 99)
    with pytest.raises(KeyError):
        network.link_between(0, 99)
    with pytest.raises(ValueError):
        Network(delivery="quantum")


def test_distance_and_rtt_queries():
    network, _ = chain_network(5)
    assert network.distance(1, 4) == 3.0
    assert network.distance(3, 3) == 0.0
    assert network.hops(0, 4) == 4
    assert network.rtt(1, 4) == 6.0


def test_clear_drop_filters():
    network, sinks = chain_network(3)
    network.add_drop_filter(0, 1, MatchDropFilter(lambda p: True))
    network.clear_drop_filters()
    network.scheduler.schedule(0.0, network.send_unicast, 0, 2, "data")
    network.run()
    assert len(sinks[2].received) == 1


def test_star_hub_not_member_forwards_anyway():
    network = star(4).build()
    sinks = {}
    for node in range(5):
        sinks[node] = Sink()
        network.attach(node, sinks[node])
    group = network.groups.allocate()
    for leaf in range(1, 5):
        network.join(leaf, group)
    network.scheduler.schedule(0.0, network.send_multicast, 1, group, "data")
    network.run()
    assert sinks[0].received == []  # hub is not a member
    for leaf in (2, 3, 4):
        assert sinks[leaf].received[0][0] == 2.0


def test_invalidate_routes_after_delay_edit():
    """Editing a link in place needs one call to drop every routing cache:
    the routes, the distance rows' entries, and the plans. The routes were the
    shared skeleton's rooted index; the new ones are the network's own
    source trees, and the next network built from the spec still reads
    the skeleton's index."""
    network, sinks = chain_network(5)
    group = network.groups.allocate()
    for node in range(5):
        network.join(node, group)
    stale_tree = network.source_tree(0)
    assert network.distance(0, 4) == 4.0
    assert network.distance(3, 1) == 2.0   # walked: no tree is built
    assert network.hops(4, 2) == 2
    network.scheduler.schedule(
        0.0, network.send_multicast, 0, group, "data")
    network.run()
    assert sinks[4].received[-1][0] == 4.0
    plan_key = next(iter(network._plan_cache))
    stale_index = network._routes
    assert isinstance(stale_index, RootedIndex)
    assert stale_index is chain(5).build()._routes
    # Each asking node has a row of what it asked; hops keeps none.
    row = network.distance_row(0)
    assert network._rows == {0: {0: 0.0, 4: 4.0}, 3: {3: 0.0, 1: 2.0}}

    network.link_between(1, 2).delay = 7.5
    network.invalidate_routes()
    own = network._routes
    assert network._plan_cache == {} and isinstance(own, SourceTrees)
    assert network._rows == {0: {0: 0.0}, 3: {3: 0.0}} and own.trees == {}
    assert network.distance_row(0) is row and row.routes is own
    assert own.neighbors is None
    assert network.distance(3, 1) == 8.5
    assert network.distance(0, 4) == 10.5
    assert network.hops(4, 2) == 2
    fresh_tree = network.source_tree(0)
    assert fresh_tree is not stale_tree
    assert fresh_tree.dist[4] == 10.5
    start = network.scheduler.now
    network.scheduler.schedule(
        0.0, network.send_multicast, 0, group, "data")
    network.run()
    assert sinks[4].received[-1][0] == start + 10.5
    assert plan_key in network._plan_cache
    assert network._routes is own and own.adjacency is network.adjacency
    assert own.pair(3, 1) == (8.5, 2)
    assert own.pair(0, 4) == (row[4], 4) == (10.5, 4)
    # The skeleton, and every network built from it since, kept the
    # old delay.
    assert stale_index.pair(3, 1) == (2.0, 2)
    fresh, _ = chain_network(5)
    assert fresh._routes is stale_index and fresh.distance(3, 1) == 2.0


def test_add_link_invalidates_walked_distances():
    network = chain(3).build()
    network.source_tree(0)
    assert network.distance(2, 1) == 1.0   # memoised pair, no tree for 2
    network.add_link(0, 2, delay=0.25)     # now a cycle, not a tree
    assert network.distance(2, 0) == 0.25
    assert network.path(2, 0) == [2, 0]
