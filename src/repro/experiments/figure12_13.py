"""Figures 12 and 13: fixed vs adaptive timers over repeated rounds.

"From the simulation set in Fig. 4, we chose a network topology, session
membership, and drop scenario that resulted in a large number of
duplicate requests with the nonadaptive algorithm. The network topology
is a bounded-degree tree of 1000 nodes with degree 4 ... the multicast
session consists of 50 members. Each figure shows ten runs of the
simulation, with 100 loss recovery rounds in each run."

Fig. 12 (fixed parameters): the duplicate count stays high, round after
round. Fig. 13 (adaptive): duplicates fall to ~1 within about forty
rounds, with a small reduction in delay as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.core.config import SrmConfig
from repro.experiments.common import (
    ExperimentSpec,
    Scenario,
    run_experiment,
    run_sweep,
)
from repro.experiments.figure4 import figure4_scenarios
from repro.metrics.bundle import RunMetrics
from repro.metrics.events import quantiles

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runner import ExperimentRunner

NUM_RUNS = 10
NUM_ROUNDS = 100
SESSION_SIZE = 50


def find_adversarial_scenario(seed: int = 4, session_size: int = SESSION_SIZE,
                              candidates: int = 40,
                              probe_rounds: int = 3) -> Scenario:
    """Pick the Fig.-4-style scenario with the most duplicate requests.

    The paper: "we chose a network topology, session membership, and drop
    scenario that resulted in a large number of duplicate requests with
    the nonadaptive algorithm". Each candidate is probed with a few
    fixed-parameter rounds and scored by its mean request count
    (duplicate repairs break ties).
    """
    scenarios = figure4_scenarios(sizes=(session_size,),
                                  sims=candidates, seed=seed)
    worst = None
    worst_score = (-1.0, -1.0)
    for index, scenario in enumerate(scenarios):
        outcomes = run_experiment(ExperimentSpec(
            scenario=scenario, config=SrmConfig(), rounds=probe_rounds,
            seed=1000 + index)).outcomes
        score = (sum(o.requests for o in outcomes) / probe_rounds,
                 sum(o.repairs for o in outcomes) / probe_rounds)
        if score > worst_score:
            worst_score = score
            worst = scenario
    assert worst is not None
    return worst


@dataclass
class RoundsResult:
    """Per-round distributions over the ten runs."""

    adaptive: bool
    runs: int
    rounds: int
    #: requests[run][round], repairs[run][round], delays[run][round]
    requests: List[List[int]]
    repairs: List[List[int]]
    delays: List[List[float]]
    metrics: Optional[RunMetrics] = None

    def round_request_quartiles(self, round_index: int):
        values = [float(run[round_index]) for run in self.requests]
        return quantiles(values)

    def round_repair_quartiles(self, round_index: int):
        values = [float(run[round_index]) for run in self.repairs]
        return quantiles(values)

    def round_delay_quartiles(self, round_index: int):
        values = [run[round_index] for run in self.delays
                  if run[round_index] is not None]
        return quantiles(values)

    def mean_requests_over(self, first: int, last: int) -> float:
        """Mean requests per round across runs for rounds [first, last)."""
        return self._mean_over(self.requests, first, last)

    def mean_repairs_over(self, first: int, last: int) -> float:
        return self._mean_over(self.repairs, first, last)

    def mean_delay_over(self, first: int, last: int) -> float:
        rows = [[value for value in run[first:last] if value is not None]
                for run in self.delays]
        values = [value for run in rows for value in run]
        return sum(values) / len(values)

    @staticmethod
    def _mean_over(series: List[List[int]], first: int, last: int) -> float:
        total, count = 0.0, 0
        for run in series:
            for round_index in range(first, last):
                total += run[round_index]
                count += 1
        return total / count

    def format_table(self, every: int = 10) -> str:
        title = "Figure 13 (adaptive)" if self.adaptive else \
            "Figure 12 (nonadaptive)"
        lines = [f"{title}: {self.runs} runs x {self.rounds} rounds",
                 f"{'round':>6} {'req q1':>7} {'req med':>8} {'req q3':>7} "
                 f"{'rep med':>8} {'delay med':>10}"]
        for round_index in range(0, self.rounds, every):
            rq1, rmed, rq3 = self.round_request_quartiles(round_index)
            _, pmed, _ = self.round_repair_quartiles(round_index)
            _, dmed, _ = self.round_delay_quartiles(round_index)
            lines.append(f"{round_index:>6} {rq1:>7.1f} {rmed:>8.1f} "
                         f"{rq3:>7.1f} {pmed:>8.1f} {dmed:>10.2f}")
        return "\n".join(lines)


def run_rounds_experiment(scenario: Scenario, adaptive: bool,
                          runs: int = NUM_RUNS,
                          rounds: int = NUM_ROUNDS,
                          seed: int = 12,
                          runner: Optional["ExperimentRunner"] = None) -> RoundsResult:
    """Ten runs of 100 rounds; same scenario, different RNG seeds per run."""
    experiment = "figure13" if adaptive else "figure12"
    results, metrics = run_sweep(experiment, [ExperimentSpec(
        scenario=scenario, config=SrmConfig(adaptive=adaptive),
        rounds=rounds, seed=seed * 1009 + run_index,
        experiment=experiment) for run_index in range(runs)], runner)
    requests = [[outcome.requests for outcome in result.outcomes]
                for result in results]
    repairs = [[outcome.repairs for outcome in result.outcomes]
               for result in results]
    delays = [[outcome.last_member_ratio for outcome in result.outcomes]
              for result in results]
    return RoundsResult(adaptive=adaptive, runs=runs,
                        rounds=rounds, requests=requests,
                        repairs=repairs, delays=delays, metrics=metrics)


def run_figure12(scenario: Optional[Scenario] = None,
                 runs: int = NUM_RUNS, rounds: int = NUM_ROUNDS,
                 seed: int = 12,
                 runner: Optional["ExperimentRunner"] = None) -> RoundsResult:
    return run_rounds_experiment(scenario or find_adversarial_scenario(),
                                 adaptive=False, runs=runs, rounds=rounds,
                                 seed=seed, runner=runner)


def run_figure13(scenario: Optional[Scenario] = None,
                 runs: int = NUM_RUNS, rounds: int = NUM_ROUNDS,
                 seed: int = 13,
                 runner: Optional["ExperimentRunner"] = None) -> RoundsResult:
    return run_rounds_experiment(scenario or find_adversarial_scenario(),
                                 adaptive=True, runs=runs, rounds=rounds,
                                 seed=seed, runner=runner)
