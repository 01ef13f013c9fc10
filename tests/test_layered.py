"""Tests for receiver-driven layered reliable multicast (Section IX-C)."""

import pytest

from repro.core.config import SrmConfig
from repro.core.layered import (
    LayeredReceiver,
    LayeredSource,
    make_layers,
)
from repro.sim.rng import RandomSource
from repro.topology.chain import chain


def layered_network(bottleneck_bandwidth=None, queue_limit=3,
                    chain_length=5):
    """Source at node 0; receivers hang off the chain. Node boundary
    (1,2) optionally becomes a bottleneck."""
    network = chain(chain_length).build(delivery="hop")
    network.trace.keep = None
    if bottleneck_bandwidth is not None:
        network.set_link_bandwidth(1, 2, bottleneck_bandwidth,
                                   queue_limit=queue_limit)
    return network


def test_layer_rates_double():
    network = layered_network()
    layers = make_layers(network, 3, base_interval=8.0)
    assert [layer.packet_interval for layer in layers] == [8.0, 4.0, 2.0]
    assert len({layer.group for layer in layers}) == 3


def test_source_sends_on_every_layer():
    network = layered_network()
    layers = make_layers(network, 3, base_interval=8.0)
    source = LayeredSource(network, 0, layers, rng=RandomSource(1))
    receiver = LayeredReceiver(network, 4, layers, rng=RandomSource(2),
                               start_layers=3)
    source.start()
    network.run(until=100.0)
    source.stop()
    network.run(until=400.0)
    assert source.packets_sent(0) > 0
    assert source.packets_sent(2) > source.packets_sent(0)
    # All three layers arrive reliably on the unconstrained path.
    for index in range(3):
        assert receiver.received_on(index) == source.packets_sent(index)


def test_unsubscribed_layer_not_delivered():
    network = layered_network()
    layers = make_layers(network, 3)
    source = LayeredSource(network, 0, layers, rng=RandomSource(1))
    receiver = LayeredReceiver(network, 4, layers, rng=RandomSource(2),
                               start_layers=1)
    source.start()
    network.run(until=80.0)
    source.stop()
    network.run(until=200.0)
    assert receiver.subscribed == 1
    assert receiver.received_on(0) > 0
    assert receiver.received_on(1) == 0
    assert receiver.received_on(2) == 0


def test_pruning_keeps_unwanted_layers_off_links():
    """Traffic for a layer nobody downstream subscribes to never crosses
    the link (DVMRP-style pruning, which RLM depends on)."""
    network = layered_network()
    network.account_bandwidth = True
    layers = make_layers(network, 2)
    source = LayeredSource(network, 0, layers, rng=RandomSource(1))
    # The only receiver subscribes to layer 0 only.
    LayeredReceiver(network, 4, layers, rng=RandomSource(2),
                    start_layers=1)
    source.start()
    network.run(until=50.0)
    source.stop()
    network.run(until=100.0)
    carried = network.link_between(3, 4).packets_carried
    sent_layer0 = source.packets_sent(0)
    sent_layer1 = source.packets_sent(1)
    assert sent_layer1 > 0
    # Only layer-0 data (and its session-less control: none) crossed.
    assert carried <= sent_layer0 + 2


def test_congested_receiver_sheds_layers():
    """Behind a bottleneck that can carry ~1.5 layers, the controller
    drops from 3 subscriptions to a sustainable level."""
    # Base interval 8, sizes 1000: layer rates 125/250/500 -> cumulative
    # 875 through a 300-capacity bottleneck is hopeless; 125 fits.
    network = layered_network(bottleneck_bandwidth=300.0, queue_limit=3)
    layers = make_layers(network, 3, base_interval=8.0)
    source = LayeredSource(network, 0, layers, rng=RandomSource(1))
    far = LayeredReceiver(network, 4, layers, rng=RandomSource(2),
                          start_layers=3, decision_interval=40.0)
    far.start()
    source.start()
    network.run(until=1200.0)
    source.stop()
    far.stop()
    assert far.drops_performed >= 1
    assert far.subscribed < 3


def test_well_connected_receiver_keeps_all_layers():
    network = layered_network(bottleneck_bandwidth=300.0, queue_limit=3)
    layers = make_layers(network, 3, base_interval=8.0)
    source = LayeredSource(network, 0, layers, rng=RandomSource(1))
    # Node 1 is upstream of the bottleneck: unconstrained.
    near = LayeredReceiver(network, 1, layers, rng=RandomSource(3),
                           start_layers=3, decision_interval=40.0)
    far = LayeredReceiver(network, 4, layers, rng=RandomSource(2),
                          start_layers=3, decision_interval=40.0)
    near.start()
    far.start()
    source.start()
    network.run(until=1200.0)
    source.stop()
    near.stop()
    far.stop()
    assert near.subscribed == 3
    assert near.drops_performed == 0
    assert far.subscribed < 3


def test_join_experiment_after_quiet_period():
    """A receiver starting at one layer joins upward when there is no
    congestion."""
    network = layered_network()
    layers = make_layers(network, 3, base_interval=8.0)
    source = LayeredSource(network, 0, layers, rng=RandomSource(1))
    receiver = LayeredReceiver(network, 4, layers, rng=RandomSource(2),
                               start_layers=1, decision_interval=30.0,
                               quiet_windows_to_join=2)
    receiver.start()
    source.start()
    network.run(until=600.0)
    source.stop()
    receiver.stop()
    assert receiver.joins_performed >= 2
    assert receiver.subscribed == 3


def test_subscribed_layers_stay_reliable_under_congestion():
    """Whatever the controller settles on, the layers it keeps are
    delivered reliably by per-layer SRM."""
    network = layered_network(bottleneck_bandwidth=300.0, queue_limit=3)
    layers = make_layers(network, 3, base_interval=8.0)
    source = LayeredSource(network, 0, layers, rng=RandomSource(1))
    far = LayeredReceiver(network, 4, layers, rng=RandomSource(2),
                          start_layers=3, decision_interval=40.0)
    far.start()
    source.start()
    network.run(until=1000.0)
    source.stop()
    far.stop()
    network.run(until=2500.0)  # drain recovery
    agent = far.agents[0]  # the base layer is always kept
    sent = source.packets_sent(0)
    # The base layer is complete up to SRM's recovery horizon: compare
    # against the packets whose existence the receiver knows about.
    base_source_agent = source.agents[0]
    from repro.core.names import AduName, DEFAULT_PAGE
    known_high = agent.reception.highest_seq(0, agent.current_page)
    assert known_high > 0
    for seq in range(1, known_high + 1):
        assert agent.store.have(AduName(0, agent.current_page, seq)), seq
