"""Trace on demand: a lean trace changes nothing anyone reads.

A :class:`LossRecoverySimulation` builds only the rows its metrics
collector reads (``SUBSCRIBED_KINDS``) and counts the rest. These
properties run the same rounds on a lean trace and on one that keeps
every row, over star, chain and random-tree sessions on both delivery
engines, and require the two to agree on everything but the rows the
lean one never built.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import (LossRecoverySimulation, Scenario,
                                      choose_scenario)
from repro.experiments.figure5 import star_scenario
from repro.metrics.collector import SUBSCRIBED_KINDS
from repro.oracle import SessionOracleSuite
from repro.sim import trace as trace_module
from repro.sim.rng import RandomSource
from repro.sim.trace import (DUP_REQUEST_OBSERVED, KINDS, RECV_REPAIR,
                             REQUEST_TIMER_SET)
from repro.topology.chain import chain
from repro.topology.random_tree import random_labeled_tree

from conftest import examples


def _chain_scenario(size_and_hop) -> Scenario:
    size, hop = size_and_hop
    return Scenario(spec=chain(size), members=list(range(size)), source=0,
                    drop_edge=(hop - 1, hop))


def _random_tree_scenario(size_and_seed) -> Scenario:
    size, seed = size_and_seed
    rng = RandomSource(seed)
    return choose_scenario(random_labeled_tree(size, rng.fork("tree")),
                           session_size=max(2, size // 2),
                           rng=rng.fork("pick"))


SCENARIOS = st.one_of(
    st.builds(star_scenario, st.integers(3, 24)),
    st.integers(3, 14).flatmap(lambda size: st.tuples(
        st.just(size), st.integers(1, size - 1))).map(_chain_scenario),
    st.tuples(st.integers(4, 40), st.integers(0, 0xFFFF)).map(
        _random_tree_scenario),
)

#: Kinds a round emits that the collector never reads: on a lean trace
#: only a listener naming them makes them wanted.
LATE_KINDS = frozenset({REQUEST_TIMER_SET, DUP_REQUEST_OBSERVED,
                        RECV_REPAIR})


def _rows(records):
    return [(row.time, row.node, row.kind, row.detail) for row in records]


def _run(scenario, seed, engine, keep_all, subscribe_at, rounds=2):
    """``rounds`` rounds, a listener for LATE_KINDS subscribing
    ``subscribe_at`` into the first one."""
    simulation = LossRecoverySimulation(scenario, seed=seed, delivery=engine)
    trace = simulation.network.trace
    if keep_all:
        trace.keep = None
    run = {"simulation": simulation, "heard": [], "every": [], "built": [],
           "outcomes": [], "bundles": []}
    trace.subscribe(run["every"].append)   # hears what is built, all rounds

    def join():
        run["joined"] = len(run["every"])
        trace.subscribe(run["heard"].append, kinds=LATE_KINDS)

    set_kind = trace_module._set_kind

    def counted_set_kind(row, kind):
        run["built"].append(kind)
        set_kind(row, kind)

    simulation.network.scheduler.schedule(subscribe_at, join)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace_module, "_set_kind", counted_set_kind)
        for _ in range(rounds):
            run["outcomes"].append(simulation.run_round())
            run["bundles"].append(simulation.last_round_metrics.to_dict())
    return run


@settings(max_examples=examples(40))
@given(scenario=SCENARIOS, seed=st.integers(0, 0xFFFF),
       engine=st.sampled_from(["direct", "hop"]),
       subscribe_at=st.floats(0.0, 6.0))
def test_lean_rounds_equal_keep_everything_rounds(scenario, seed, engine,
                                                  subscribe_at):
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("SRM_CHECK", raising=False)   # check mode keeps all
        lean = _run(scenario, seed, engine, False, subscribe_at)
        full = _run(scenario, seed, engine, True, subscribe_at)
    lean_trace = lean["simulation"].network.trace
    full_trace = full["simulation"].network.trace
    assert lean_trace.keep == SUBSCRIBED_KINDS

    assert lean["outcomes"] == full["outcomes"]
    assert lean["bundles"] == full["bundles"]   # timers, control, kernel
    assert lean_trace.kind_totals == full_trace.kind_totals
    assert _rows(lean_trace.records) == _rows(
        row for row in full_trace.records if row.kind in SUBSCRIBED_KINDS)

    # No row of an unwanted kind is built: only the kept kinds, and the
    # late listener's from the moment it joined.
    assert set(lean["built"]) <= SUBSCRIBED_KINDS | LATE_KINDS
    assert [kind for kind in lean["built"] if kind in LATE_KINDS] == \
        [row.kind for row in lean["heard"]]
    assert sum(kind in SUBSCRIBED_KINDS for kind in lean["built"]) == sum(
        full_trace.kind_totals[kind] for kind in SUBSCRIBED_KINDS)

    # The listener that joined mid-round hears the very next row of its
    # kinds, and every one after it, as it does on the full trace.
    expected = [row for row in full["every"][full["joined"]:]
                if row.kind in LATE_KINDS]
    assert _rows(lean["heard"]) == _rows(full["heard"]) == _rows(expected)


def test_passive_suite_makes_no_kind_wanted():
    """``enable_trace=False`` (the SRM_CHECK=1 pytest fixture) observes
    what the trace builds anyway and turns nothing on."""
    network = chain(4).build()
    trace = network.trace
    assert trace.keep == frozenset() and trace.wanted == frozenset()
    SessionOracleSuite.attach(network, enable_trace=False)
    assert trace.keep == frozenset() and trace.wanted == frozenset()

    trace.keep = SUBSCRIBED_KINDS
    SessionOracleSuite.attach(network, enable_trace=False)
    assert trace.wanted == SUBSCRIBED_KINDS

    SessionOracleSuite.attach(network)   # check mode: keep every row
    assert trace.keep is None and trace.wanted == frozenset(KINDS)


def test_passive_suite_does_not_check_a_partial_stream(monkeypatch):
    """A lean round's rows lack the timer kinds: a send_repair with no
    repair_scheduled before it would read as a suppression violation."""
    monkeypatch.delenv("SRM_CHECK", raising=False)
    simulation = LossRecoverySimulation(star_scenario(12), seed=3)
    suite = SessionOracleSuite.attach(simulation.network,
                                      enable_trace=False)
    heard = []
    simulation.network.trace.subscribe(heard.append)
    assert simulation.run_round().repairs >= 1
    assert {row.kind for row in heard} <= SUBSCRIBED_KINDS
    assert not suite.verify(context="lean round")
