"""Tests for queueing links and emergent congestion."""

import pytest

from repro.experiments.congestion import run_congestion_experiment
from repro.net.link import Link
from repro.net.node import Agent
from repro.net.packet import Packet
from repro.sim.scheduler import EventScheduler
from repro.topology.chain import chain


class Sink(Agent):
    def __init__(self):
        super().__init__()
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append((self.now, packet.uid))


# ----------------------------------------------------------------------
# Link-level queueing semantics
# ----------------------------------------------------------------------

def test_set_bandwidth_validation():
    link = Link(0, 1)
    with pytest.raises(ValueError):
        link.set_bandwidth(0.0)
    with pytest.raises(ValueError):
        link.set_bandwidth(10.0, queue_limit=0)


def test_plain_link_arrival_is_propagation_only():
    sched = EventScheduler()
    link = Link(0, 1, delay=3.0)
    packet = Packet(origin=0, dst=1, kind="data", size=1000)
    assert link.arrival_time(sched, packet, 0) == 3.0


def test_serialization_delay():
    sched = EventScheduler()
    link = Link(0, 1, delay=1.0).set_bandwidth(500.0)
    packet = Packet(origin=0, dst=1, kind="data", size=1000)
    # 1000/500 = 2 units of serialization + 1 propagation.
    assert link.arrival_time(sched, packet, 0) == pytest.approx(3.0)


def test_fifo_queueing_accumulates():
    sched = EventScheduler()
    link = Link(0, 1, delay=1.0).set_bandwidth(500.0)
    packet = Packet(origin=0, dst=1, kind="data", size=1000)
    arrivals = [link.arrival_time(sched, packet, 0) for _ in range(3)]
    assert arrivals == [pytest.approx(3.0), pytest.approx(5.0),
                        pytest.approx(7.0)]


def test_tail_drop_when_buffer_full():
    sched = EventScheduler()
    link = Link(0, 1, delay=1.0).set_bandwidth(500.0)
    link.queue_limit = 2
    packet = Packet(origin=0, dst=1, kind="data", size=1000)
    assert link.arrival_time(sched, packet, 0) is not None
    assert link.arrival_time(sched, packet, 0) is not None
    assert link.arrival_time(sched, packet, 0) is None
    assert link.queue_drops == 1


def test_buffer_drains_over_time():
    sched = EventScheduler()
    link = Link(0, 1, delay=1.0).set_bandwidth(500.0)
    link.queue_limit = 2
    packet = Packet(origin=0, dst=1, kind="data", size=1000)
    link.arrival_time(sched, packet, 0)
    link.arrival_time(sched, packet, 0)
    assert link.occupancy(0) == 2
    sched.run(until=10.0)  # both serialized by t=4
    assert link.occupancy(0) == 0
    assert link.arrival_time(sched, packet, 0) is not None


def test_directions_are_independent():
    sched = EventScheduler()
    link = Link(0, 1, delay=1.0).set_bandwidth(500.0)
    packet = Packet(origin=0, dst=1, kind="data", size=1000)
    link.arrival_time(sched, packet, 0)
    # The reverse direction is idle: no queueing delay.
    assert link.arrival_time(sched, packet, 1) == pytest.approx(3.0)


# ----------------------------------------------------------------------
# Network integration
# ----------------------------------------------------------------------

def test_direct_mode_rejects_queueing_links():
    network = chain(3).build(delivery="direct")
    with pytest.raises(ValueError):
        network.set_link_bandwidth(0, 1, 500.0)


def test_hop_delivery_through_bottleneck_orders_fifo():
    network = chain(3).build(delivery="hop")
    network.set_link_bandwidth(1, 2, 500.0)
    sink = Sink()
    network.attach(2, sink)
    group = network.groups.allocate()
    network.join(2, group)
    for _ in range(3):
        network.scheduler.schedule(
            0.0, network.send_multicast, 0, group, "data", None, 255, 1000)
    network.run()
    times = [time for time, _ in sink.arrivals]
    # Hop 0->1 takes 1; serialization 2 each; propagation 1.
    assert times == [pytest.approx(4.0), pytest.approx(6.0),
                     pytest.approx(8.0)]


def test_queue_drop_traced():
    network = chain(3).build(delivery="hop")
    network.trace.keep = None
    network.set_link_bandwidth(1, 2, 500.0, queue_limit=1)
    group = network.groups.allocate()
    network.join(2, group)
    for _ in range(4):
        network.scheduler.schedule(
            0.0, network.send_multicast, 0, group, "data", None, 255, 1000)
    network.run()
    drops = network.trace.filter(kind="queue_drop")
    assert len(drops) == 3
    assert network.packets_dropped == 3


# ----------------------------------------------------------------------
# End-to-end congestion experiment
# ----------------------------------------------------------------------

def test_unpaced_burst_overflows_and_srm_recovers():
    outcome = run_congestion_experiment(rate_limit=None, seed=1)
    assert outcome.data_queue_drops > 0
    assert outcome.requests > 0
    assert outcome.repairs > 0
    assert outcome.all_recovered


def test_paced_source_avoids_congestion_entirely():
    outcome = run_congestion_experiment(rate_limit=400.0, seed=1)
    assert outcome.data_queue_drops == 0
    assert outcome.requests == 0
    assert outcome.all_recovered


def test_pacing_tradeoff_is_visible():
    """Pacing costs transmission time but eliminates recovery traffic."""
    unpaced = run_congestion_experiment(rate_limit=None, seed=2)
    paced = run_congestion_experiment(rate_limit=400.0, seed=2)
    assert paced.requests + paced.repairs < \
        unpaced.requests + unpaced.repairs
