"""Tests for local recovery (Section VII-B): TTL scoping, one-step and
two-step repairs, administrative scope zones."""

import pytest

from repro.core.config import SrmConfig
from repro.core.local import (
    ideal_scoped_recovery,
    loss_neighborhood,
    reached_by,
    ttl_to_escape,
    ttl_to_reach,
)
from repro.core.messages import KIND_DATA, DataPayload
from repro.core.names import AduName, DEFAULT_PAGE
from repro.net.link import NthPacketDropFilter
from repro.topology.btree import balanced_tree
from repro.topology.chain import chain

from conftest import build_srm_session


# ----------------------------------------------------------------------
# TTL helpers
# ----------------------------------------------------------------------

def test_loss_neighborhood_on_chain():
    network = chain(8).build()
    members = list(range(8))
    losses = loss_neighborhood(network, 0, 3, 4, members)
    assert losses == [4, 5, 6, 7]


def test_loss_neighborhood_requires_oriented_tree_edge():
    network = chain(8).build()
    with pytest.raises(ValueError):
        loss_neighborhood(network, 0, 4, 3, list(range(8)))
    with pytest.raises(ValueError):
        loss_neighborhood(network, 0, 2, 6, list(range(8)))


def test_ttl_to_reach_is_max_hop_distance():
    network = chain(10).build()
    assert ttl_to_reach(network, 5, [3, 6, 9]) == 4
    assert ttl_to_reach(network, 5, [5]) == 0


def test_ttl_to_reach_respects_thresholds():
    network = chain(5).build()
    network.link_between(2, 3).threshold = 10
    network.invalidate_routes()
    assert ttl_to_reach(network, 0, [4]) == 12  # 2 hops + threshold 10


def test_ttl_to_escape():
    network = chain(10).build()
    neighborhood = [4, 5, 6]
    candidates = [2, 8]
    # From node 4: node 2 is 2 hops, node 8 is 4 hops -> escape TTL 2.
    assert ttl_to_escape(network, 4, neighborhood, candidates) == 2
    assert ttl_to_escape(network, 4, neighborhood, [5, 6]) is None


def test_reached_by():
    network = chain(10).build()
    assert reached_by(network, 5, 2, range(10)) == {3, 4, 5, 6, 7}


# ----------------------------------------------------------------------
# Idealized Fig. 15 executions
# ----------------------------------------------------------------------

def test_two_step_covers_loss_neighborhood_on_chain():
    network = chain(20).build()
    members = list(range(20))
    outcome = ideal_scoped_recovery(network, 0, 14, 15, members,
                                    mode="two-step")
    assert outcome.requester == 15
    assert outcome.covered
    assert outcome.loss_members == frozenset(range(15, 20))
    # The repair stays local: nowhere near the whole session.
    assert outcome.fraction_of_session < 1.0


def test_one_step_reaches_at_least_two_step_requester_side():
    network = balanced_tree(200, 4).build()
    members = list(range(0, 200, 3))
    # Drop on a deep edge.
    tree = network.source_tree(0)
    child = max(tree.parent, key=lambda n: (tree.hops[n], n))
    parent = tree.parent[child]
    if not any(m in tree.subtree(child) for m in members):
        members.append(child)
    two = ideal_scoped_recovery(network, 0, parent, child, members,
                                mode="two-step")
    one = ideal_scoped_recovery(network, 0, parent, child, members,
                                mode="one-step")
    assert two.covered
    assert one.covered
    # One-step repairs over-reach: never smaller than the two-step union.
    assert len(one.repair_reached) >= len(two.repair_reached)


def test_scoped_recovery_validation():
    network = chain(6).build()
    members = list(range(6))
    with pytest.raises(ValueError):
        ideal_scoped_recovery(network, 0, 2, 3, members, mode="warp")
    # Every member shares the loss -> no replier.
    with pytest.raises(ValueError):
        ideal_scoped_recovery(network, 0, 0, 1, list(range(1, 6)))


def test_scoped_recovery_no_affected_members():
    network = chain(6).build()
    with pytest.raises(ValueError):
        ideal_scoped_recovery(network, 0, 4, 5, [0, 1, 2])


# ----------------------------------------------------------------------
# Protocol-level scoped recovery (the real agents)
# ----------------------------------------------------------------------

NAME1 = AduName(0, DEFAULT_PAGE, 1)


def scoped_session(mode, request_ttl, chain_length=12):
    config = SrmConfig(request_ttl=request_ttl, local_repair_mode=mode)
    network, agents, group = build_srm_session(chain(chain_length),
                                               range(chain_length),
                                               config=config)
    return network, agents


def run_drop_round(network, agents, drop_edge):
    network.add_drop_filter(*drop_edge, NthPacketDropFilter(
        lambda p: p.kind == "srm-data"))
    network.scheduler.schedule(0.0, lambda: agents[0].send_data("x"))
    network.scheduler.schedule(1.0, lambda: agents[0].send_data("y"))
    network.run()


def test_two_step_protocol_recovers_all_bad_members():
    # Drop at (8, 9): bad members 9, 10, 11. A request with TTL 4 from
    # any of them covers the others and escapes to a good member.
    network, agents = scoped_session("two-step", request_ttl=4)
    run_drop_round(network, agents, (8, 9))
    for node in (9, 10, 11):
        assert agents[node].store.have(NAME1), node
    # A second-step repair happened (the requester re-multicast).
    assert network.trace.count("send_repair_second_step") >= 1


def test_two_step_repair_stays_local():
    network, agents = scoped_session("two-step", request_ttl=4)
    run_drop_round(network, agents, (8, 9))
    # Members far upstream never saw a repair packet: their only copy is
    # the original data.
    repair_rows = network.trace.filter(kind="recv_data",
                                       predicate=lambda r:
                                       r.detail.get("repair"))
    touched = {row.node for row in repair_rows}
    assert touched  # someone recovered via repair
    assert 0 not in touched and 1 not in touched and 2 not in touched


def test_one_step_protocol_recovers_all_bad_members():
    network, agents = scoped_session("one-step", request_ttl=4)
    run_drop_round(network, agents, (8, 9))
    for node in (9, 10, 11):
        assert agents[node].store.have(NAME1), node
    assert network.trace.count("send_repair_second_step") == 0


def test_one_step_repair_reaches_the_requests_far_edge():
    # Drop at (8, 9) with TTL-2 requests: member 10 asks, reaching 8..11,
    # and member 8 answers from two hops upstream. Only a repair TTL of
    # the request's plus those two hops reaches member 11, so one repair
    # recovers every bad member.
    network, agents = scoped_session("one-step", request_ttl=2)
    run_drop_round(network, agents, (8, 9))
    for node in (9, 10, 11):
        assert agents[node].store.have(NAME1), node
    assert network.trace.count("send_repair") == 1


def test_global_requests_when_no_scope_configured():
    network, agents = scoped_session(None, request_ttl=None)
    run_drop_round(network, agents, (8, 9))
    for node in (9, 10, 11):
        assert agents[node].store.have(NAME1)


# ----------------------------------------------------------------------
# Administrative scoping (Section VII-B1)
# ----------------------------------------------------------------------

def test_admin_scoped_recovery_protocol():
    """Section VII-B1 end-to-end: a member configured with an admin
    scope zone containing both its loss neighborhood and a data holder
    recovers entirely inside the zone; out-of-zone members never see
    the request or the repair."""
    zone_nodes = {6, 7, 8, 9, 10, 11}
    config = SrmConfig(request_scope_zone="site")
    network, agents, _ = build_srm_session(chain(12), range(12),
                                           config=config)
    network.define_scope_zone("site", zone_nodes)
    # Drop at (8, 9): losers 9-11; helpers 6-8 are in-zone.
    run_drop_round(network, agents, (8, 9))
    for node in (9, 10, 11):
        assert agents[node].store.have(NAME1), node
    repair_receipts = network.trace.filter(
        kind="recv_data", predicate=lambda r: r.detail.get("repair"))
    touched = {row.node for row in repair_receipts}
    assert touched and touched <= zone_nodes
    # Repliers were in-zone too.
    for row in network.trace.filter(kind="send_repair"):
        assert row.node in zone_nodes


def test_admin_scoped_repair_inherits_request_zone():
    """Only the loss-side members are zone-configured; repliers answer
    with the request's scope automatically."""
    zone_nodes = {5, 6, 7, 8, 9}
    network, agents, _ = build_srm_session(chain(10), range(10))
    network.define_scope_zone("edge", zone_nodes)
    for node in (8, 9):
        agents[node].config = agents[node].config.copy(
            request_scope_zone="edge")
    run_drop_round(network, agents, (7, 8))
    assert agents[9].store.have(NAME1)
    for row in network.trace.filter(kind="send_repair"):
        assert row.node in zone_nodes


def test_admin_scope_zone_confines_traffic():
    network, agents, group = build_srm_session(chain(8), range(8))
    network.define_scope_zone("site", {4, 5, 6, 7})
    name = AduName(5, DEFAULT_PAGE, 1)
    network.scheduler.schedule(0.0, lambda: network.send_multicast(
        5, group, KIND_DATA, DataPayload(name=name, data="scoped"),
        scope_zone="site"))
    network.run()
    # Only in-zone members record the scoped data; out-of-zone agents saw
    # nothing (their stores and reception state are untouched).
    for node in (4, 6, 7):
        assert agents[node].store.held == {name: "scoped"}, node
    for node in (0, 1, 2, 3):
        assert agents[node].reception.page_state(
            agents[node].current_page) == {}, node
        assert not agents[node].store.held, node
