"""Tests for hierarchical session messages (Section IX-A)."""

import pytest

from repro.core.config import SrmConfig
from repro.core.scalable_session import SessionHierarchy, \
    session_load_model
from repro.topology.btree import balanced_tree

from conftest import build_srm_session


def hierarchy_session():
    """A 21-node degree-4 tree; all nodes are members; two subtrees are
    local areas (node sets chosen to be path-closed)."""
    spec = balanced_tree(21, 4)
    config = SrmConfig(session_enabled=True, session_min_interval=10.0,
                       distance_oracle=False)
    network, agents, group = build_srm_session(spec, range(21),
                                               config=config)
    # Subtrees rooted at nodes 1 and 2 (children 5-8 / 9-11 etc.).
    tree = network.source_tree(0)
    area_a = sorted(tree.subtree(1))
    area_b = sorted(tree.subtree(2))
    areas = {"a": area_a, "b": area_b}
    hierarchy = SessionHierarchy(network, agents, areas)
    return network, agents, hierarchy, areas


def test_representatives_elected_lowest_id():
    network, agents, hierarchy, areas = hierarchy_session()
    assert hierarchy.representatives["a"] == min(areas["a"])
    assert hierarchy.representatives["b"] == min(areas["b"])
    assert hierarchy.representative_of(areas["a"][1]) == min(areas["a"])
    assert hierarchy.area_of(areas["b"][0]) == "b"
    assert hierarchy.area_of(0) is None


def test_explicit_representative():
    spec = balanced_tree(21, 4)
    config = SrmConfig(session_enabled=True, distance_oracle=False)
    network, agents, _ = build_srm_session(spec, range(21), config=config)
    tree = network.source_tree(0)
    area = sorted(tree.subtree(1))
    rep = area[-1]
    hierarchy = SessionHierarchy(network, agents, {"a": area},
                                 representatives={"a": rep})
    assert hierarchy.representatives["a"] == rep


def test_invalid_configurations_rejected():
    spec = balanced_tree(21, 4)
    config = SrmConfig(session_enabled=True, distance_oracle=False)
    network, agents, _ = build_srm_session(spec, range(21), config=config)
    tree = network.source_tree(0)
    area = sorted(tree.subtree(1))
    with pytest.raises(ValueError):  # overlapping areas
        SessionHierarchy(network, agents, {"a": area, "b": area})
    with pytest.raises(ValueError):  # rep outside the area
        SessionHierarchy(network, agents, {"a": area},
                         representatives={"a": 0})
    with pytest.raises(ValueError):  # area without members
        SessionHierarchy(network, {0: agents[0]},
                         {"a": [node for node in area]})


def test_scoped_members_stay_local():
    network, agents, hierarchy, areas = hierarchy_session()
    network.run(until=200.0)
    rep_a = hierarchy.representatives["a"]
    scoped_member = next(node for node in areas["a"]
                         if node != rep_a)
    # A node outside area "a" never heard the scoped member...
    outside = agents[0].session if False else None
    for node, agent in agents.items():
        heard = agent.session.last_heard
        if node in areas["a"]:
            continue
        assert scoped_member not in heard, node
    # ...but did hear the representative.
    assert rep_a in agents[0].session.last_heard


def test_representatives_reach_everyone():
    network, agents, hierarchy, areas = hierarchy_session()
    network.run(until=200.0)
    reps = set(hierarchy.representatives.values())
    global_nodes = set(hierarchy.global_senders())
    assert reps <= global_nodes
    for node, agent in agents.items():
        for rep in reps:
            if rep != node:
                assert rep in agent.session.last_heard


def test_in_area_members_hear_each_other():
    network, agents, hierarchy, areas = hierarchy_session()
    network.run(until=200.0)
    members = areas["a"]
    for node in members:
        for peer in members:
            if node != peer:
                assert peer in agents[node].session.last_heard


def test_dissolve_restores_flat_reporting():
    network, agents, hierarchy, areas = hierarchy_session()
    hierarchy.dissolve()
    network.run(until=200.0)
    # Everyone hears everyone again.
    for node, agent in agents.items():
        assert len(agent.session.last_heard) == 20


def test_message_load_model():
    flat_only = session_load_model(100, [])
    assert flat_only["flat"] == flat_only["hierarchical"]
    split = session_load_model(100, [50, 50])
    # 2 reps reach 99 each; 2*49 members reach 49 each.
    assert split["hierarchical"] == 2 * 99 + 2 * 49 * 49
    assert split["reduction"] > 1.9
    with pytest.raises(ValueError):
        session_load_model(10, [8, 8])


def test_hierarchy_reduces_measured_receptions():
    """Count actual session-message deliveries, flat vs hierarchical."""
    def receptions(with_hierarchy):
        spec = balanced_tree(21, 4)
        config = SrmConfig(session_enabled=True,
                           session_min_interval=10.0,
                           distance_oracle=False)
        network, agents, _ = build_srm_session(spec, range(21),
                                               config=config)
        if with_hierarchy:
            tree = network.source_tree(0)
            SessionHierarchy(network, agents,
                             {"a": sorted(tree.subtree(1)),
                              "b": sorted(tree.subtree(2)),
                              "c": sorted(tree.subtree(3)),
                              "d": sorted(tree.subtree(4))})
        count = [0]
        original_deliver = network._deliver

        def counting_deliver(node_id, packet):
            if packet.kind == "srm-session":
                count[0] += 1
            original_deliver(node_id, packet)

        network._deliver = counting_deliver
        network.trace_deliveries = True   # every delivery via _deliver
        network.run(until=300.0)
        return count[0]

    flat = receptions(False)
    hierarchical = receptions(True)
    assert hierarchical < 0.6 * flat
