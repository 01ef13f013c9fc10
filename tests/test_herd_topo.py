"""The herd's distance index is a read of the agent engine's SourceTree.

``repro.herd.topo.TreeIndex`` builds no graph of its own: it runs
``repro.net.routing.traverse_tree`` over the spec and lays an Euler-tour
LCA over the result. These tests pin that the two engines therefore see
one tree: the same distances (the agent engine's answered by its rooted
index, ``repro.net.routing.RootedIndex``), the same members cut off below
every candidate drop edge, and the same refusals.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import (LossRecoverySimulation, Scenario,
                                      candidate_drop_edges)
from repro.herd import HerdSimulation, HerdUnsupportedError
from repro.herd.topo import TreeIndex
from repro.net.routing import RootedIndex
from repro.sim.rng import RandomSource
from repro.topology.btree import balanced_tree
from repro.topology.chain import chain
from repro.topology.random_tree import random_labeled_tree
from repro.topology.spec import TopologySpec
from repro.topology.star import star

from conftest import examples


@st.composite
def tree_sessions(draw):
    """A random, balanced or star tree with an origin and a member set."""
    kind = draw(st.sampled_from(["random", "balanced", "star"]))
    n = draw(st.integers(3, 40))
    if kind == "random":
        spec = random_labeled_tree(
            n, RandomSource(draw(st.integers(0, 10_000))))
    elif kind == "balanced":
        spec = balanced_tree(n, draw(st.integers(2, 5)))
    else:
        spec = star(n - 1)
    origin = draw(st.integers(0, n - 1), label="origin")
    others = draw(st.sets(st.integers(0, n - 1), max_size=n),
                  label="members")
    return spec, origin, sorted(others | {origin})


@settings(max_examples=examples(40))
@given(session=tree_sessions())
def test_herd_index_reads_the_agent_engines_source_tree(session):
    spec, origin, members = session
    network = spec.build()
    index = TreeIndex(spec, origin)
    tree = network.source_tree(origin)
    assert index.tree.parent == tree.parent
    assert index.tree.children == tree.children
    assert index.tree.hops == tree.hops
    assert index.tree.dist == tree.dist
    assert index.tree.ttl_required == tree.ttl_required

    targets = np.asarray(members, dtype=np.int64)
    index.attach_targets(targets)
    # Every other origin is answered by the rooted index every network
    # built from the spec shares: the tree rooted at node 0, as the herd
    # roots it too.
    rooted = network._routes
    assert isinstance(rooted, RootedIndex)
    assert rooted is spec.build()._routes
    assert rooted.tree.parent == TreeIndex(spec, 0).tree.parent
    for a in range(spec.num_nodes):
        expected = [network.hops(a, b) for b in members]
        assert index.dist_row_to(a, targets).tolist() == expected
        assert index.dist_row(a).tolist() == expected
        for b in range(spec.num_nodes):
            assert index.dist(a, b) == network.hops(a, b) \
                == network.distance(a, b) == rooted.pair(a, b)[0]
        member = rooted.member_tree(a, members)
        assert [member.hops[b] for b in members] == expected
    # The answers came off the shared index: no tree was kept.
    assert network._routes is rooted

    edges = candidate_drop_edges(network, origin, members)
    if not edges:
        return
    scenario = Scenario(spec=spec, members=members, source=origin,
                        drop_edge=edges[0])
    herd = HerdSimulation(scenario)
    agent = LossRecoverySimulation(scenario)
    for edge in edges:
        assert herd.affected_members(edge) == agent.affected_members(edge)
        assert herd.affected_members(edge), edge


@st.composite
def cycle_specs(draw):
    """|E| = |V| - 1 with a cycle: a ring plus a tree on the rest."""
    n = draw(st.integers(4, 30))
    ring = draw(st.integers(3, n - 1))
    edges = [(i, (i + 1) % ring) for i in range(ring)]
    if n - ring >= 2:
        rest = random_labeled_tree(
            n - ring, RandomSource(draw(st.integers(0, 10_000))))
        edges += [(a + ring, b + ring) for a, b in rest.edges]
    label = draw(st.permutations(range(n)))
    spec = TopologySpec("ring-and-tree", n,
                        [(label[a], label[b]) for a, b in edges])
    assert spec.num_edges == n - 1
    return spec, draw(st.integers(0, n - 1), label="origin")


@settings(max_examples=examples(30))
@given(case=cycle_specs())
def test_edge_count_tree_with_a_cycle_is_refused_by_both_engines(case):
    spec, origin = case
    with pytest.raises(ValueError, match="not a tree"):
        TreeIndex(spec, origin)
    scenario = Scenario(spec=spec, members=[origin], source=origin,
                        drop_edge=spec.edges[0])
    with pytest.raises(HerdUnsupportedError, match="not a tree"):
        HerdSimulation(scenario)
    with pytest.raises(ValueError, match="topology is disconnected"):
        spec.build().source_tree(origin)


@pytest.mark.parametrize("drop_edge", [(1, 0), (3, 2), (0, 3), (5, 6)])
def test_drop_edge_outside_the_envelope_is_refused_at_construction(
        drop_edge):
    """Reversed, off-tree and unknown edges never reach a round."""
    scenario = Scenario(spec=chain(6), members=[0, 2, 5], source=0,
                        drop_edge=drop_edge)
    with pytest.raises(HerdUnsupportedError,
                       match="not a tree edge directed away from 0"):
        HerdSimulation(scenario)
    with pytest.raises(ValueError, match="directed away from 0"):
        LossRecoverySimulation(scenario).affected_members()


def test_round_drop_edge_override_is_checked_too():
    scenario = Scenario(spec=chain(6), members=[0, 2, 5], source=0,
                        drop_edge=(1, 2))
    sim = HerdSimulation(scenario)
    with pytest.raises(HerdUnsupportedError, match="directed away"):
        sim.run_round(drop_edge=(2, 1))
    assert sim.rounds_run == 0
    assert sim.run_round().recovered
