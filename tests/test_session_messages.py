"""Tests for session messages and distance estimation (Section III-A)."""

import pytest

from repro.core.config import SrmConfig
from repro.core.names import AduName, DEFAULT_PAGE
from repro.core.session import OracleDistance, SessionDistance
from repro.net.link import MatchDropFilter
from repro.topology.chain import chain
from repro.topology.star import star

from conftest import build_srm_session


def session_config(**overrides):
    base = dict(session_enabled=True, distance_oracle=False,
                session_min_interval=5.0)
    base.update(overrides)
    return SrmConfig(**base)


def test_session_messages_are_sent_periodically():
    network, agents, _ = build_srm_session(chain(4), range(4),
                                           config=session_config())
    network.run(until=100.0)
    for agent in agents.values():
        assert agent.session is not None
        assert agent.session.messages_sent >= 5


def test_distance_estimates_converge_to_true_delay():
    """The simplified-NTP exchange recovers one-way delays exactly in a
    symmetric, skew-free network."""
    network, agents, _ = build_srm_session(chain(6), range(6),
                                           config=session_config())
    network.run(until=200.0)
    for node, agent in agents.items():
        estimator = agent.distances
        assert isinstance(estimator, SessionDistance)
        for peer in agents:
            if peer == node:
                continue
            true = network.distance(node, peer)
            assert estimator.distance(peer) == pytest.approx(true)


def test_distance_estimates_with_heterogeneous_delays():
    spec = chain(4)
    network = spec.build()
    network.link_between(1, 2).delay = 7.0
    network.invalidate_routes()
    network.trace.keep = None
    group = network.groups.allocate("s")
    from repro.core.agent import SrmAgent
    from repro.sim.rng import RandomSource
    agents = {}
    for node in range(4):
        agent = SrmAgent(session_config(), RandomSource(node))
        network.attach(node, agent)
        agent.join_group(group)
        agents[node] = agent
    network.run(until=300.0)
    assert agents[0].distances.distance(3) == pytest.approx(9.0)
    assert agents[3].distances.distance(0) == pytest.approx(9.0)


def test_group_size_estimate_counts_heard_members():
    network, agents, _ = build_srm_session(star(8), range(1, 9),
                                           config=session_config())
    network.run(until=100.0)
    for agent in agents.values():
        assert agent.session.group_size_estimate() == 8


def test_interval_scales_with_group_size():
    """The vat rule: aggregate session bandwidth is capped, so the
    per-member interval grows linearly with the number of members."""
    network, agents, _ = build_srm_session(
        star(30), range(1, 31),
        config=session_config(session_min_interval=0.001,
                              session_data_bandwidth=100.0,
                              session_message_size=10))
    network.run(until=50.0)
    agent = agents[1]
    interval = agent.session.interval()
    # 30 members * 10 bytes / (0.05 * 100) = 60 time units.
    assert interval == pytest.approx(30 * 10 / 5.0)


def test_min_interval_floor():
    network, agents, _ = build_srm_session(
        chain(3), range(3), config=session_config(session_min_interval=42.0))
    assert agents[0].session.interval() == 42.0


def test_tail_loss_detected_via_session_message():
    """The last packet of a burst leaves no gap to detect; only the
    session message's high-water report reveals it (Section III-A)."""
    network, agents, _ = build_srm_session(chain(4), range(4),
                                           config=session_config())
    # Drop ALL data from node 0 toward nodes 2-3: they never see seq 1.
    network.add_drop_filter(1, 2, MatchDropFilter(
        lambda p: p.kind == "srm-data"))
    network.scheduler.schedule(0.0, lambda: agents[0].send_data("tail"))
    network.run(until=400.0)
    name = AduName(0, DEFAULT_PAGE, 1)
    assert agents[3].store.have(name)
    assert network.trace.count("loss_detected", name=name) >= 1


def test_oracle_distance_matches_topology():
    network, agents, _ = build_srm_session(chain(5), range(5))
    agent = agents[1]
    assert isinstance(agent.distances, OracleDistance)
    assert agent.distances.distance(4) == 3.0


def test_session_distance_default_and_clamp():
    estimator = SessionDistance(default=2.5)
    assert estimator.distance(99) == 2.5
    estimator.update(7, -0.3)  # numeric noise must not go negative
    assert estimator.distance(7) == 0.0
    estimator.update(7, 4.0)
    assert estimator.distance(7) == 4.0


def test_session_stops_on_leave():
    network, agents, _ = build_srm_session(chain(3), range(3),
                                           config=session_config())
    network.run(until=20.0)
    sent_before = agents[2].session.messages_sent
    agents[2].leave_group()
    network.run(until=200.0)
    assert agents[2].session.messages_sent == sent_before
