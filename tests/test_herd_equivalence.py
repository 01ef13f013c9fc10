"""Differential suite: the herd engine is equivalent to the agent core.

The vectorized struct-of-arrays engine (:mod:`repro.herd`) claims
*exact* equivalence with :class:`LossRecoverySimulation` on the
single-drop loss-recovery rounds every figure experiment runs: the same
seed produces the same request/repair counts, the same trace rows (for
the protocol-event kinds the herd emits), and the same recovery-delay
ratios. These tests pin that claim over a seed x topology x loss-site
matrix at session sizes small enough to run both engines.

Tolerance contract (documented in ``docs/herd.md``): counts and trace
row sequences must be *exact*; delay ratios must agree within
``RATIO_TOL`` ulps-scale absolute tolerance. Empirically the ratios are
bit-identical too — the herd computes every expiry with the same single
``now + delay`` addition the agent uses and replays the same per-member
``Random`` streams — so the tolerance is headroom for future backends,
not slack the current engine needs.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.core.config import SrmConfig
from repro.experiments.common import (ExperimentSpec, LossRecoverySimulation,
                                      RunResult, Scenario, choose_scenario)
from repro.experiments.figure5 import star_scenario
from repro.experiments.scaling import star_scaling_scenario
from repro.fleet.wire import result_to_json
from repro.herd import HerdSimulation
from repro.metrics.bundle import RunMetrics
from repro.sim.rng import RandomSource
from repro.sim.trace import KINDS
from repro.topology.btree import balanced_tree
from repro.topology.chain import chain
from repro.topology.random_tree import random_labeled_tree

#: Max absolute disagreement allowed on any RTT-ratio observation.
RATIO_TOL = 1e-12

#: Every protocol-event kind the herd engine emits (the ``herd`` column
#: of the kind table). The agent engine additionally
#: emits transport rows (``recv_data``, ``recv_repair``, ``deliver``...)
#: that no metrics consumer reads; the differential filters the agent
#: trace down to this shared vocabulary.
HERD_KINDS = frozenset(kind for kind, spec in KINDS.items() if spec.herd)


def protocol_rows(trace) -> List[Tuple]:
    """The trace projected onto the herd's event vocabulary, in order."""
    return [(row.time, row.node, row.kind, tuple(sorted(row.detail.items())))
            for row in trace if row.kind in HERD_KINDS]


def assert_ratio_lists_close(label: str, agent_list, herd_list) -> None:
    assert len(agent_list) == len(herd_list), label
    for a, h in zip(agent_list, herd_list):
        assert abs(a - h) <= RATIO_TOL, (label, a, h)


def assert_equivalent_round(agent_sim: LossRecoverySimulation,
                            herd_sim: HerdSimulation,
                            drop_edge=None) -> None:
    """Run one round on each engine and compare everything comparable."""
    agent_out = agent_sim.run_round(drop_edge=drop_edge)
    herd_out = herd_sim.run_round(drop_edge=drop_edge)

    # Round outcome scalars.
    assert herd_out.name == agent_out.name
    assert herd_out.requests == agent_out.requests
    assert herd_out.repairs == agent_out.repairs
    assert herd_out.duplicate_requests == agent_out.duplicate_requests
    assert herd_out.duplicate_repairs == agent_out.duplicate_repairs
    assert herd_out.recovered == agent_out.recovered
    for field in ("last_member_ratio", "closest_request_ratio"):
        a, h = getattr(agent_out, field), getattr(herd_out, field)
        if a is None:
            assert h is None, field
        else:
            assert h is not None and abs(a - h) <= RATIO_TOL, (field, a, h)

    # Metrics bundles: exact counts, exact timer/control aggregates,
    # ratio distributions within tolerance. The ``kernel`` perf-counter
    # dict is engine-specific by design and excluded.
    am, hm = agent_sim.last_round_metrics, herd_sim.last_round_metrics
    assert (hm.requests, hm.repairs) == (am.requests, am.repairs)
    assert hm.duplicate_requests == am.duplicate_requests
    assert hm.duplicate_repairs == am.duplicate_repairs
    assert hm.losses_detected == am.losses_detected
    assert hm.recoveries == am.recoveries
    assert hm.timers == am.timers
    assert hm.control_packets == am.control_packets
    assert hm.control_bytes == am.control_bytes
    assert_ratio_lists_close("recovery_ratios",
                             sorted(am.recovery_ratios),
                             sorted(hm.recovery_ratios))
    assert_ratio_lists_close("request_ratios",
                             sorted(am.request_ratios),
                             sorted(hm.request_ratios))
    assert_ratio_lists_close("last_member_ratios",
                             am.last_member_ratios, hm.last_member_ratios)

    # Rows counted per kind, built or not, and the full row sequence.
    assert {kind: herd_sim.trace.kind_totals.get(kind, 0)
            for kind in HERD_KINDS} == \
        {kind: agent_sim.network.trace.kind_totals.get(kind, 0)
         for kind in HERD_KINDS}
    assert protocol_rows(herd_sim.trace) == \
        protocol_rows(agent_sim.network.trace)


def engine_pair(scenario: Scenario, config: SrmConfig = None, seed: int = 0,
                **herd_kwargs):
    """Both engines on one scenario, each keeping every row, so their
    protocol rows can be compared."""
    agent_sim = LossRecoverySimulation(scenario, config=config, seed=seed)
    agent_sim.network.trace.keep = None
    herd_sim = HerdSimulation(scenario, config=config, seed=seed,
                              **herd_kwargs)
    herd_sim.trace.keep = None
    return agent_sim, herd_sim


# ----------------------------------------------------------------------
# Star sessions (the figure 5 setup): every member equidistant, so the
# timers tie-break heavily — the hardest case for exact-order emission.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("group_size", [8, 32, 128])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_star_round_equivalent(group_size, seed):
    agent_sim, herd_sim = engine_pair(star_scenario(group_size), seed=seed)
    assert_equivalent_round(agent_sim, herd_sim)


@pytest.mark.parametrize("c2", [0.0, 1.0, 50.0])
def test_star_c2_sweep_equivalent(c2):
    config = SrmConfig(c2=c2)
    agent_sim, herd_sim = engine_pair(star_scenario(24), config=config,
                                      seed=3)
    assert_equivalent_round(agent_sim, herd_sim)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
def test_star_256_equivalent(seed):
    agent_sim, herd_sim = engine_pair(star_scenario(256), seed=seed)
    assert_equivalent_round(agent_sim, herd_sim)


# ----------------------------------------------------------------------
# Chains: maximal distance spread (the figure 4 deterministic limit).
# ----------------------------------------------------------------------

def chain_scenario(n: int, failure_hop: int) -> Scenario:
    return Scenario(spec=chain(n), members=list(range(n)), source=0,
                    drop_edge=(failure_hop - 1, failure_hop))


@pytest.mark.parametrize("n,failure_hop", [
    (4, 1), (4, 2), (9, 1), (9, 4), (16, 1), (16, 8), (16, 15),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_chain_round_equivalent(n, failure_hop, seed):
    agent_sim, herd_sim = engine_pair(chain_scenario(n, failure_hop),
                                      seed=seed)
    assert_equivalent_round(agent_sim, herd_sim)


# ----------------------------------------------------------------------
# Sparse sessions on trees (the figure 4 setup): members scattered over
# a larger topology, randomized source and loss link placement.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_balanced_tree_sparse_session_equivalent(seed):
    spec = balanced_tree(85, 4)
    scenario = choose_scenario(spec, 20, RandomSource(seed).fork("pick"))
    agent_sim, herd_sim = engine_pair(scenario, seed=seed)
    assert_equivalent_round(agent_sim, herd_sim)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("adjacent_drop", [False, True])
def test_random_tree_session_equivalent(seed, adjacent_drop):
    rng = RandomSource(100 + seed)
    spec = random_labeled_tree(60, rng.fork("tree"))
    scenario = choose_scenario(spec, 24, rng.fork("pick"),
                               adjacent_drop=adjacent_drop)
    agent_sim, herd_sim = engine_pair(scenario, seed=seed)
    assert_equivalent_round(agent_sim, herd_sim)


# ----------------------------------------------------------------------
# Multi-round persistence: recovery state resets between rounds, RNG
# streams keep advancing — both engines must stay in lockstep.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 2])
def test_three_rounds_stay_in_lockstep(seed):
    scenario = star_scenario(16)
    agent_sim, herd_sim = engine_pair(scenario, seed=seed)
    for _ in range(3):
        assert_equivalent_round(agent_sim, herd_sim)


def test_multi_round_on_tree_with_alternating_drop_edges():
    spec = balanced_tree(85, 4)
    scenario = choose_scenario(spec, 20, RandomSource(9).fork("pick"))
    agent_sim, herd_sim = engine_pair(scenario, seed=9)
    assert_equivalent_round(agent_sim, herd_sim)
    # Same session, different congested link for round two.
    alt = choose_scenario(spec, 20, RandomSource(10).fork("pick"))
    assert_equivalent_round(agent_sim, herd_sim, drop_edge=alt.drop_edge)


# ----------------------------------------------------------------------
# Herd-internal consistency: what the trace keeps never changes a result.
# ----------------------------------------------------------------------

def herd_result_json(scenario: Scenario, config: SrmConfig, seed: int,
                     keep) -> str:
    """Two herd rounds as ``run_experiment`` runs them, the trace keeping
    ``keep``; the result's canonical JSON."""
    spec = ExperimentSpec(scenario=scenario, config=config, seed=seed,
                          rounds=2, engine="herd")
    sim = HerdSimulation(scenario, config=config, seed=seed)
    sim.trace.keep = keep
    outcomes, bundles = [], []
    for _ in range(spec.rounds):
        outcomes.append(sim.run_round())
        bundles.append(sim.last_round_metrics)
    return result_to_json(RunResult(spec=spec, outcomes=outcomes,
                                    metrics=RunMetrics.merged(bundles)))


@pytest.mark.parametrize("seed", [0, 1])
def test_full_and_aggregate_modes_agree(seed):
    # Rows kept vs none, on both sides of FULL_TRACE_THRESHOLD: the
    # bundle and report are read off the arrays either way.
    for size in (12, 600):
        scenario = star_scaling_scenario(size)
        config = SrmConfig(c2=size / 10.0)
        kept = herd_result_json(scenario, config, seed, keep=None)
        assert herd_result_json(scenario, config, seed, keep=()) == kept


def test_auto_mode_picks_full_below_threshold_and_aggregate_above():
    # Per-member timings up to FULL_TRACE_THRESHOLD members, counts only
    # above it: a rule of session size, whatever the trace keeps.
    small = HerdSimulation(star_scenario(12), seed=0)
    assert small.full_trace
    assert len(small.run_round().report.recoveries) == 11
    big = HerdSimulation(star_scaling_scenario(600),
                         config=SrmConfig(c2=60.0), seed=0)
    assert not big.full_trace
    out = big.run_round()
    assert out.recovered
    assert out.report.losses_detected == 599
    assert not out.report.recoveries and not out.report.request_waits
