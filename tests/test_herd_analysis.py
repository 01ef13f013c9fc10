"""The herd engine converges to the paper's closed-form analysis.

The differential suite (``test_herd_equivalence.py``) pins the herd to
the agent engine at small N; these tests pin it to Section IV's *math*
at session sizes only the vectorized engine can reach in test time:

* star sessions track ``E[#requests] = 1 + (G-2)/C2`` and the expected
  first-request delay ``(C1 + C2/G)/2`` RTTs (Section IV-B);
* deterministic chains (C1 = D1 = 1, C2 = D2 = 0) reproduce the exact
  recovery schedule of Section IV-A;
* on trees, duplicate requests only ever come from levels the analysis
  says *could* duplicate (Section IV-C's suppression bound).
"""

from __future__ import annotations

import pytest

from repro.analysis.chain import chain_recovery_schedule
from repro.analysis.star import (expected_first_request_delay_ratio,
                                 expected_requests)
from repro.analysis.tree import always_suppressed_level
from repro.core.config import SrmConfig
from repro.experiments.common import ExperimentSpec, run_experiment
from repro.experiments.figure5 import star_scenario
from repro.experiments.figure6 import chain_scenario
from repro.herd import HerdSimulation


def herd_rounds(scenario, config=None, rounds=1, seed=0):
    return run_experiment(ExperimentSpec(
        scenario=scenario, config=config, rounds=rounds, seed=seed,
        engine="herd")).outcomes


# ----------------------------------------------------------------------
# Star (Section IV-B): request implosion vs C2, first-request delay
# ----------------------------------------------------------------------

@pytest.mark.parametrize("c2", [10.0, 40.0])
def test_star_2000_tracks_request_count_analysis(c2):
    group = 2000
    outcomes = herd_rounds(star_scenario(group),
                           config=SrmConfig(c1=2.0, c2=c2),
                           rounds=30, seed=int(c2))
    mean_requests = sum(o.requests for o in outcomes) / len(outcomes)
    # 30 rounds of a mean-~(1 + (G-2)/C2) count: generous statistical
    # tolerance, same as the agent-engine analysis test uses.
    assert mean_requests == pytest.approx(expected_requests(group, c2),
                                          rel=0.5, abs=1.5)


@pytest.mark.parametrize("c2", [10.0, 40.0])
def test_star_2000_tracks_first_request_delay_analysis(c2):
    group = 2000
    outcomes = herd_rounds(star_scenario(group),
                           config=SrmConfig(c1=2.0, c2=c2),
                           rounds=30, seed=100 + int(c2))
    mean_delay = sum(o.closest_request_ratio for o in outcomes) \
        / len(outcomes)
    predicted = expected_first_request_delay_ratio(group, 2.0, c2)
    assert mean_delay == pytest.approx(predicted, rel=0.25)


def test_star_mega_session_single_round_tracks_analysis():
    # One 20k-member round in aggregate mode: with C2 scaled to the
    # session (the paper's own prescription for large G), the count
    # concentrates tightly around 1 + (G-2)/C2.
    group, c2 = 20_000, 2_000.0
    outcomes = herd_rounds(star_scenario(group), config=SrmConfig(c2=c2),
                           rounds=5, seed=0)
    mean_requests = sum(o.requests for o in outcomes) / len(outcomes)
    assert mean_requests == pytest.approx(expected_requests(group, c2),
                                          rel=0.5, abs=2.0)
    assert all(o.recovered for o in outcomes)


# ----------------------------------------------------------------------
# Chain (Section IV-A): deterministic timers, exact schedule
# ----------------------------------------------------------------------

@pytest.mark.parametrize("chain_length,failure_hops", [
    (12, 3), (40, 5), (200, 20),
])
def test_chain_schedule_reproduced_exactly(chain_length, failure_hops):
    config = SrmConfig(c1=1.0, c2=0.0, d1=1.0, d2=0.0)
    scenario = chain_scenario(failure_hops, chain_length)
    sim = HerdSimulation(scenario, config=config, seed=0)
    outcome = sim.run_round()
    schedule = chain_recovery_schedule(chain_length, failure_hops)
    assert outcome.requests == 1
    assert outcome.repairs == 1
    assert outcome.recovered
    assert outcome.last_member_ratio == pytest.approx(
        schedule.farthest_delay_ratio())


def test_chain_adjacent_failure_needs_two_requests():
    # Known edge of the closed form: with the drop on the source's own
    # link (failure_hops=1), the level-0 node is one hop from the source
    # and its request is answered by the source itself; the second
    # deterministic request fires before the repair lands, so the
    # simulators (herd and agent alike) report 2 requests, not 1.
    config = SrmConfig(c1=1.0, c2=0.0, d1=1.0, d2=0.0)
    sim = HerdSimulation(chain_scenario(1, 12), config=config, seed=0)
    outcome = sim.run_round()
    assert outcome.requests == 2
    assert outcome.repairs == 1
    assert outcome.recovered


# ----------------------------------------------------------------------
# Tree (Section IV-C): duplicate requests respect the suppression bound
# ----------------------------------------------------------------------

def test_tree_duplicates_only_from_unsuppressed_levels():
    from repro.sim.rng import RandomSource
    from repro.experiments.common import choose_scenario
    from repro.topology.btree import balanced_tree

    c1, c2 = 2.0, 2.0
    spec = balanced_tree(341, 4)
    hits = 0
    for seed in range(6):
        scenario = choose_scenario(spec, 120, RandomSource(seed).fork("pick"))
        sim = HerdSimulation(scenario, config=SrmConfig(c1=c1, c2=c2),
                             seed=seed)
        sim.trace.keep = None
        sim.run_round()
        level0 = scenario.drop_edge[1]
        source_distance = sim.node_distance(scenario.source, level0)
        sends = [row for row in sim.trace if row.kind == "send_request"]
        first_round = min(row.detail["round"] for row in sends)
        for row in sends:
            if row.detail["round"] != first_round:
                continue  # backoff re-sends are outside the burst model
            level = int(sim.node_distance(row.node, level0))
            assert not always_suppressed_level(level, c1, c2,
                                               source_distance), \
                (seed, row.node, level, source_distance)
            hits += 1
    assert hits >= 6  # at least the level-0 request every round
