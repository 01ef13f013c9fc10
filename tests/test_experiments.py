"""Tests for the experiment harness and (small) runs of each figure."""

import pytest

from repro.core.config import SrmConfig
from repro.experiments.common import (
    LossRecoverySimulation,
    Scenario,
    SeriesPoint,
    candidate_drop_edges,
    choose_scenario,
    format_quartile_table,
    run_rounds,
    run_single_round,
)
from repro.sim.rng import RandomSource
from repro.topology.btree import balanced_tree
from repro.topology.chain import chain
from repro.topology.star import star


def test_candidate_drop_edges_cover_member_paths():
    network = chain(6).build()
    edges = candidate_drop_edges(network, 0, [0, 2, 5])
    assert edges == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    edges_partial = candidate_drop_edges(network, 0, [0, 2])
    assert edges_partial == [(0, 1), (1, 2)]


def test_choose_scenario_properties():
    rng = RandomSource(7)
    spec = balanced_tree(100, 4)
    scenario = choose_scenario(spec, session_size=10, rng=rng)
    assert len(scenario.members) == 10
    assert scenario.source in scenario.members
    network = spec.build()
    tree = network.source_tree(scenario.source)
    parent, child = scenario.drop_edge
    assert tree.parent[child] == parent
    assert scenario.session_size == 10


def test_choose_scenario_adjacent_drop():
    rng = RandomSource(7)
    spec = balanced_tree(50, 4)
    scenario = choose_scenario(spec, session_size=20, rng=rng,
                               adjacent_drop=True)
    assert scenario.drop_edge[0] == scenario.source


def test_choose_scenario_session_too_large():
    with pytest.raises(ValueError):
        choose_scenario(chain(4), session_size=10, rng=RandomSource(1))


def test_run_round_recovers_everyone():
    scenario = Scenario(spec=chain(6), members=list(range(6)), source=0,
                        drop_edge=(2, 3))
    outcome = run_single_round(scenario, seed=1)
    assert outcome.recovered
    assert outcome.requests >= 1
    assert outcome.repairs >= 1
    assert outcome.last_member_ratio is not None
    assert outcome.closest_request_ratio is not None


def test_rounds_are_independent_resets():
    scenario = Scenario(spec=chain(6), members=list(range(6)), source=0,
                        drop_edge=(2, 3))
    simulation = LossRecoverySimulation(scenario, seed=1)
    first = simulation.run_round()
    second = simulation.run_round()
    assert first.recovered and second.recovered
    assert first.name != second.name
    assert simulation.rounds_run == 2


def test_affected_members():
    scenario = Scenario(spec=chain(6), members=[0, 1, 4, 5], source=0,
                        drop_edge=(2, 3))
    simulation = LossRecoverySimulation(scenario, seed=1)
    assert simulation.affected_members() == [4, 5]


def test_run_rounds_helper():
    scenario = Scenario(spec=star(10), members=list(range(1, 11)), source=1,
                        drop_edge=(1, 0))
    outcomes = run_rounds(scenario, rounds=5, seed=2)
    assert len(outcomes) == 5
    assert all(outcome.recovered for outcome in outcomes)


def test_series_point_and_table():
    point = SeriesPoint(x=10)
    for value in (1.0, 2.0, 3.0):
        point.add("metric", value)
    point.add("metric", None)  # ignored
    assert point.series("metric") == [1.0, 2.0, 3.0]
    table = format_quartile_table([point], "metric", "x", "Title")
    assert "Title" in table
    assert "2.000" in table


# ----------------------------------------------------------------------
# Small runs of every figure driver
# ----------------------------------------------------------------------

def test_figure3_small():
    from repro.experiments.figure3 import run_figure3
    result = run_figure3(sizes=(10, 20), sims=4, seed=1)
    assert len(result.points) == 2
    table = result.format_table()
    assert "Figure 3a" in table and "Figure 3c" in table
    for point in result.points:
        assert len(point.series("requests")) == 4


def test_figure4_small():
    from repro.experiments.figure4 import run_figure4
    result = run_figure4(sizes=(15,), sims=3, seed=1)
    assert len(result.points) == 1
    assert len(result.points[0].series("repairs")) == 3


def test_figure5_small():
    from repro.experiments.figure5 import run_figure5
    result = run_figure5(c2_values=(0, 20), sims=4,
                         group_size=20, seed=1)
    assert len(result.points) == 2
    low_c2, high_c2 = result.points
    # More randomization -> fewer requests, more delay (both panels).
    assert high_c2.sim_requests_mean < low_c2.sim_requests_mean
    assert high_c2.analysis_requests < low_c2.analysis_requests
    assert "Figure 5" in result.format_table()


def test_figure6_small():
    from repro.experiments.figure6 import run_figure6
    result = run_figure6(c2_values=(0, 10), failure_hops=(1, 5),
                         sims=3, chain_length=30, seed=1)
    assert set(result.series) == {1, 5}
    assert "Figure 6" in result.format_table()


def test_figure7_small():
    from repro.experiments.figure7 import run_figure7
    result = run_figure7(c2_values=(0, 8), hops_values=(1, 2),
                         sims=3, num_nodes=40, seed=1)
    assert set(result.series) == {1, 2}
    assert len(result.mean_requests(1)) == 2


def test_figure8_small():
    from repro.experiments.figure8 import run_figure8
    result = run_figure8(c2_values=(0, 8), hops_values=(1,),
                         sims=3, num_nodes=120, session_size=20,
                         seed=1)
    assert set(result.series) == {1}


def test_figure12_13_small():
    from repro.experiments.figure12_13 import (
        find_adversarial_scenario,
        run_rounds_experiment,
    )
    scenario = find_adversarial_scenario(seed=4, session_size=20,
                                         candidates=5, probe_rounds=1)
    result = run_rounds_experiment(scenario, adaptive=True, runs=2,
                                   rounds=5, seed=1)
    assert result.adaptive
    assert len(result.requests) == 2
    assert len(result.requests[0]) == 5
    assert "adaptive" in result.format_table(every=2)


def test_figure14_small():
    from repro.experiments.figure14 import run_figure14
    result = run_figure14(sizes=(15,), sims=2, rounds=5, seed=2)
    assert len(result.points) == 1
    assert "round 5" in result.format_table()


def test_figure14_rejects_non_adaptive_config():
    from repro.experiments.figure14 import run_figure14
    with pytest.raises(ValueError):
        run_figure14(config=SrmConfig(adaptive=False))


def test_figure15_small():
    from repro.experiments.figure15 import run_figure15
    result = run_figure15(sizes=(40,), sims=5, num_nodes=200,
                          seed=3)
    assert len(result.points) == 1
    fractions = result.points[0].series("fraction")
    assert len(fractions) == 5
    assert all(0 < fraction <= 1 for fraction in fractions)
    assert "Figure 15" in result.format_table()


@pytest.mark.parametrize("engine", ["direct", "hop", "herd"])
def test_run_experiment_refuses_session_rounds_before_building(
        monkeypatch, engine):
    """Session timers re-arm forever, so a session-enabled round would
    only stop at ROUND_EVENT_LIMIT: refused before any topology is built
    or any event runs."""
    from repro.experiments.common import ExperimentSpec, run_experiment
    from repro.sim.scheduler import EventScheduler
    from repro.topology.spec import TopologySpec

    touched = []
    monkeypatch.setattr(TopologySpec, "build",
                        lambda *args, **kwargs: touched.append("build"))
    monkeypatch.setattr(EventScheduler, "run",
                        lambda *args, **kwargs: touched.append("run"))
    scenario = Scenario(spec=chain(4), members=list(range(4)), source=0,
                        drop_edge=(1, 2))
    spec = ExperimentSpec(scenario=scenario, engine=engine,
                          config=SrmConfig(session_enabled=True))
    with pytest.raises(ValueError, match="session_enabled=False"):
        run_experiment(spec)
    assert touched == []


def test_run_round_refuses_session_rounds_before_any_event():
    scenario = Scenario(spec=chain(4), members=list(range(4)), source=0,
                        drop_edge=(1, 2))
    simulation = LossRecoverySimulation(
        scenario, config=SrmConfig(session_enabled=True), seed=1)
    scheduler = simulation.network.scheduler
    with pytest.raises(ValueError, match="re-arm forever"):
        simulation.run_round()
    assert scheduler.events_processed == 0 and scheduler.now == 0.0
    assert simulation.rounds_run == 0
    assert not simulation.network._filtered_links
    simulation.close()
