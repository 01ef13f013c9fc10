"""Figure 5: delay/duplicates tradeoff in a star topology.

Star of G members, congested link adjacent to the source: the other G-1
members detect the loss simultaneously, so only randomization
(probabilistic suppression) limits the implosion. The figure sweeps the
request timer parameter C2 from 0 to 100 (C1 fixed at 2, as Section VI
states) and plots, per C2, the expected request delay of the closest bad
member (in RTT units) against the expected number of requests — both the
closed-form analysis of Section IV-B and simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runner import ExperimentRunner

from repro.analysis.star import (
    expected_first_request_delay_ratio,
    expected_requests,
)
from repro.experiments.common import Scenario, run_c2_sweep
from repro.metrics.bundle import RunMetrics
from repro.metrics.events import mean
from repro.topology.star import star

DEFAULT_C2_VALUES = tuple(range(0, 101, 4))
GROUP_SIZE = 100


@dataclass
class Figure5Point:
    c2: float
    analysis_delay: float
    analysis_requests: float
    sim_delay_mean: float
    sim_requests_mean: float
    sims: int


@dataclass
class Figure5Result:
    group_size: int
    c1: float
    points: List[Figure5Point]
    metrics: Optional[RunMetrics] = None

    def format_table(self) -> str:
        lines = [
            f"Figure 5: star topology, G={self.group_size}, C1={self.c1}",
            f"{'C2':>6} {'delay(analysis)':>16} {'reqs(analysis)':>15} "
            f"{'delay(sim)':>11} {'reqs(sim)':>10}",
        ]
        for point in self.points:
            lines.append(
                f"{point.c2:>6.0f} {point.analysis_delay:>16.3f} "
                f"{point.analysis_requests:>15.2f} "
                f"{point.sim_delay_mean:>11.3f} "
                f"{point.sim_requests_mean:>10.2f}")
        return "\n".join(lines)


def star_scenario(group_size: int = GROUP_SIZE) -> Scenario:
    """G leaves (all members), source leaf 1, drop adjacent to the source."""
    spec = star(group_size)
    members = list(range(1, group_size + 1))
    return Scenario(spec=spec, members=members, source=1,
                    drop_edge=(1, 0))


def run_figure5(c2_values: Sequence[float] = DEFAULT_C2_VALUES,
                sims: int = 20, group_size: int = GROUP_SIZE,
                c1: float = 2.0, seed: int = 5,
                runner: Optional["ExperimentRunner"] = None) -> Figure5Result:
    # One placement: in a star the failed edge is the source's own.
    series, metrics = run_c2_sweep(
        "figure5", {1: star_scenario(group_size)}, c2_values, c1, sims,
        lambda hops, c2: seed * 104729 + int(c2) * 613, runner)
    points = []
    for point in series[1]:
        points.append(Figure5Point(
            c2=float(point.x),
            analysis_delay=expected_first_request_delay_ratio(
                group_size, c1, point.x),
            analysis_requests=expected_requests(group_size, point.x),
            sim_delay_mean=mean(point.series("delay")),
            sim_requests_mean=mean(point.series("requests")),
            sims=sims))
    return Figure5Result(group_size=group_size, c1=c1, points=points,
                         metrics=metrics)
