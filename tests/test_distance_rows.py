"""A member reads its distances by subscript.

``Network.distance_row(node)`` hands out one :class:`DistanceRow` per
node: a miss asks the routes' ``pair`` and keeps the delay, a hit is a
dict lookup, and ``row[node]`` is 0. ``Network.distance`` reads the
rows, and ``invalidate_routes`` clears each in place and points it at
the new routes, so a row a member already holds answers for the edited
graph. An oracle member's estimator row is its engine row; a session
member's row answers its default for a peer not heard from and stores
nothing. These tests pin the answers bit for bit against the routes and
Dijkstra, and that the protocol's timer paths ask the network nothing.
"""

from __future__ import annotations

import struct
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.agent import SrmAgent
from repro.core.config import SrmConfig
from repro.core.session import OracleDistance, SessionDistance
from repro.experiments.common import LossRecoverySimulation
from repro.experiments.figure5 import star_scenario
from repro.net.network import DistanceRow, Network
from repro.net.routing import build_source_tree
from repro.sim.rng import RandomSource
from repro.topology.chain import chain

from conftest import examples
from test_member_trees import three_kinds


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


@settings(max_examples=examples(40))
@given(kind=st.sampled_from(["loaded", "edited", "mesh"]),
       seed=st.integers(0, 10_000), n=st.integers(3, 30), data=st.data())
def test_rows_and_distance_are_the_routes_pair_bit_for_bit(kind, seed, n,
                                                           data):
    """On all three kinds of routes, a held row and ``Network.distance``
    give ``pair``'s delay and Dijkstra's, whichever asks first."""
    network, adjacency = three_kinds(kind, seed, n)
    routes = network._routes
    rows = {a: network.distance_row(a) for a in range(n)}
    order = data.draw(st.permutations(range(n)), label="order")
    for a in order:
        full = build_source_tree(adjacency, a)  # Dijkstra
        for b in order:
            expected = routes.pair(a, b)[0] if a != b else 0.0
            assert bits(rows[a][b]) == bits(expected) == bits(full.dist[b])
            assert bits(network.distance(a, b)) == bits(expected)
    assert all(network.distance_row(a) is rows[a] for a in range(n))
    assert all(row.routes is routes for row in rows.values())


@settings(max_examples=examples(30))
@given(seed=st.integers(0, 10_000), n=st.integers(3, 25),
       edit=st.sampled_from(["delay", "add_link"]), data=st.data())
def test_a_held_row_answers_for_the_edited_graph(seed, n, edit, data):
    """An agent joins a loaded tree and reads its row; the graph is then
    edited (a delay changed in place, or a short link added from the
    agent's node). The row the agent already holds gives the new graph's
    delays, bit for bit."""
    network, _ = three_kinds("loaded", seed, n)
    node = data.draw(st.integers(0, n - 1), label="node")
    agent = SrmAgent(SrmConfig(), RandomSource(seed))
    network.attach(node, agent)
    agent.join_group(network.groups.allocate("session"))
    held = agent._row
    assert held is agent._true_row is agent.distances.row
    assert held is network.distance_row(node)
    before = [held[b] for b in range(n)]
    if edit == "delay":
        link = network.links[data.draw(
            st.integers(0, len(network.links) - 1), label="link")]
        link.delay = float(data.draw(st.integers(2, 20), label="delay"))
        network.invalidate_routes()
    else:
        far = [b for b in range(n)
               if b != node and b not in network.adjacency[node]]
        assume(far)
        b = data.draw(st.sampled_from(far), label="b")
        network.add_link(node, b, delay=0.25)
    assert dict(held) == {node: 0.0}
    full = build_source_tree(network.adjacency, node)  # Dijkstra
    after = [held[b] for b in range(n)]
    assert [bits(d) for d in after] == [bits(full.dist[b])
                                        for b in range(n)]
    assert held.routes is network._routes
    if edit == "add_link":
        assert before[b] >= 2.0 and held[b] == 0.25


def test_a_session_row_miss_answers_the_default_and_stores_nothing():
    estimator = SessionDistance(default=2.5)
    row = estimator.row
    assert row is estimator.estimates
    assert row[7] == estimator.distance(7) == 2.5
    assert 7 not in row and len(row) == 0
    estimator.update(7, 4.0)
    assert row[7] == 4.0 and dict(row) == {7: 4.0}


def test_a_session_member_reads_estimates_and_true_rtts():
    """A member without the oracle draws its timers from its estimates
    and divides its delays by the engine's true RTT."""
    network, _ = three_kinds("loaded", 5, 6)
    agent = SrmAgent(SrmConfig(distance_oracle=False), RandomSource(1))
    network.attach(2, agent)
    agent.join_group(network.groups.allocate("session"))
    assert agent._row is agent.distances.estimates
    assert agent._true_row is network.distance_row(2)
    assert agent._row[0] == SrmConfig().default_distance
    assert 2.0 * agent._true_row[0] == network.rtt(2, 0)


def test_rows_hold_neither_the_network_nor_an_agent():
    network, _ = three_kinds("mesh", 3, 8)
    agent = SrmAgent(SrmConfig(), RandomSource(0))
    network.attach(1, agent)
    agent.join_group(network.groups.allocate("session"))
    assert isinstance(agent.distances, OracleDistance)
    row = agent.distances.row
    assert isinstance(row, DistanceRow)
    assert not hasattr(row, "__dict__")
    assert (row.routes, row.node) == (network._routes, 1)
    assert agent.distances.distance(5) == row[5] == network.distance(1, 5)


def test_hops_asks_the_routes_and_keeps_nothing():
    network = chain(5).build()
    assert network.hops(4, 1) == 3 and network.hops(2, 2) == 0
    assert network._rows == {}


def test_a_star_round_asks_the_network_for_no_distance_or_rtt(monkeypatch):
    """Every distance and RTT a round reads, the agents' timers and the
    outcome's closest-request ratio, comes off a held row. (Check mode's
    oracle suite asks the network itself, so it is off here.)"""
    monkeypatch.delenv("SRM_CHECK", raising=False)
    scenario = star_scenario(20)
    sim = LossRecoverySimulation(scenario, SrmConfig(), seed=2)
    refuse = mock.Mock(side_effect=AssertionError("asked the network"))
    with mock.patch.object(Network, "distance", refuse), \
            mock.patch.object(Network, "rtt", refuse):
        outcome = sim.run_round()
    sim.close()
    assert outcome.recovered and outcome.requests >= 1
    assert outcome.closest_request_ratio is not None
    assert not refuse.called
