"""Robustness scenarios (Sections V-B and VII-A).

The paper reports that no topology variation it explored "significantly
affected the performance of the loss recovery algorithms": router+LAN
topologies, point-to-point links with a range of propagation delays,
graphs denser than trees (1000 nodes / 1500 edges), trees with interior
degree 10, 5000-node trees, drops adjacent to the source, and losses
affecting a single member. This module sweeps all of them with one
driver and reports the same three metrics as Figs. 3/4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.config import SrmConfig
from repro.experiments.common import (
    LossRecoverySimulation,
    RoundOutcome,
    Scenario,
    choose_scenario,
    collector_paused,
)
from repro.metrics.events import mean, quantiles
from repro.sim.rng import RandomSource
from repro.topology.btree import balanced_tree
from repro.topology.graphs import tree_plus_edges
from repro.topology.lans import routers_with_lans
from repro.topology.random_tree import random_labeled_tree
from repro.topology.spec import TopologySpec


@dataclass
class RobustnessCase:
    """One named scenario family."""

    name: str
    build_scenario: Callable[[RandomSource], Scenario]
    #: Optional per-case tweak applied to the freshly-built network
    #: (e.g. heterogeneous delays); receives (network, rng).
    mutate_network: Optional[Callable] = None


@dataclass
class RobustnessResult:
    name: str
    outcomes: List[RoundOutcome]

    @property
    def mean_requests(self) -> float:
        return mean([float(o.requests) for o in self.outcomes])

    @property
    def mean_repairs(self) -> float:
        return mean([float(o.repairs) for o in self.outcomes])

    @property
    def median_delay(self) -> float:
        values = [o.last_member_ratio for o in self.outcomes
                  if o.last_member_ratio is not None]
        return quantiles(values)[1]

    @property
    def all_recovered(self) -> bool:
        return all(o.recovered for o in self.outcomes)


def _lan_scenario(rng: RandomSource) -> Scenario:
    spec = routers_with_lans(12, workstations_per_lan=5)
    stations = spec.metadata["workstations"]
    members = sorted(rng.sample(stations, 30))
    source = rng.choice(members)
    return choose_scenario_from(spec, members, source, rng)


def choose_scenario_from(spec: TopologySpec, members, source,
                         rng: RandomSource) -> Scenario:
    from repro.experiments.common import candidate_drop_edges
    network = spec.build()
    edges = candidate_drop_edges(network, source, members)
    return Scenario(spec=spec, members=members, source=source,
                    drop_edge=rng.choice(edges))


def _dense_graph_scenario(rng: RandomSource) -> Scenario:
    spec = tree_plus_edges(300, 450, rng)
    return choose_scenario(spec, session_size=40, rng=rng)


def _degree10_scenario(rng: RandomSource) -> Scenario:
    spec = balanced_tree(400, 10)
    return choose_scenario(spec, session_size=40, rng=rng)


def _big_tree_scenario(rng: RandomSource) -> Scenario:
    spec = balanced_tree(2000, 4)
    return choose_scenario(spec, session_size=50, rng=rng)


def _adjacent_drop_scenario(rng: RandomSource) -> Scenario:
    spec = balanced_tree(500, 4)
    return choose_scenario(spec, session_size=40, rng=rng,
                           adjacent_drop=True)


def _single_member_loss_scenario(rng: RandomSource) -> Scenario:
    """A drop on the edge into one leaf member: only it loses data."""
    spec = balanced_tree(300, 4)
    members = sorted(rng.sample(range(spec.num_nodes), 40))
    source = rng.choice(members)
    leaves = [m for m in members if m != source and spec.degree(m) == 1]
    victim = rng.choice(leaves)
    parent = spec.build().path(source, victim)[-2]
    return Scenario(spec=spec, members=members, source=source,
                    drop_edge=(parent, victim))


def _heterogeneous_delay_scenario(rng: RandomSource) -> Scenario:
    spec = random_labeled_tree(120, rng)
    return choose_scenario(spec, session_size=120, rng=rng)


def _heterogeneous_delays(network, rng: RandomSource) -> None:
    """Point-to-point links with propagation delays from 1 to 20."""
    for link in network.links:
        link.delay = float(rng.randint(1, 20))
    network.invalidate_routes()


DEFAULT_CASES: Dict[str, RobustnessCase] = {
    "lans": RobustnessCase("routers with 5-workstation LANs",
                           _lan_scenario),
    "dense-graph": RobustnessCase("graph denser than a tree (1.5x edges)",
                                  _dense_graph_scenario),
    "degree-10": RobustnessCase("tree with interior degree 10",
                                _degree10_scenario),
    "big-tree": RobustnessCase("large degree-4 tree", _big_tree_scenario),
    "adjacent-drop": RobustnessCase("congested link adjacent to source",
                                    _adjacent_drop_scenario),
    "single-member": RobustnessCase("loss seen by a single member",
                                    _single_member_loss_scenario),
    "hetero-delay": RobustnessCase("propagation delays 1..20",
                                   _heterogeneous_delay_scenario,
                                   mutate_network=_heterogeneous_delays),
}


def run_robustness(case_names: Optional[List[str]] = None,
                   rounds: int = 10, seed: int = 55,
                   config: Optional[SrmConfig] = None,
                   ) -> List[RobustnessResult]:
    """Run each case for ``rounds`` single-drop rounds.

    Each case's session is closed when it ends, so the sweep runs with
    the cyclic collector paused like every other entry point.
    """
    config = config if config is not None else SrmConfig()
    names = case_names if case_names is not None else list(DEFAULT_CASES)
    results = []
    with collector_paused():
        for index, name in enumerate(names):
            case = DEFAULT_CASES[name]
            rng = RandomSource(seed + index * 1009)
            scenario = case.build_scenario(rng)
            simulation = LossRecoverySimulation(scenario, config=config,
                                                seed=seed + index)
            try:
                if case.mutate_network is not None:
                    case.mutate_network(simulation.network, rng)
                outcomes = [simulation.run_round() for _ in range(rounds)]
            finally:
                simulation.close()
            results.append(RobustnessResult(name=case.name,
                                            outcomes=outcomes))
    return results


def format_table(results: List[RobustnessResult]) -> str:
    lines = ["Robustness sweep (fixed timer parameters)",
             f"{'scenario':<42} {'reqs':>6} {'reps':>6} "
             f"{'delay med':>10} {'ok':>4}"]
    for result in results:
        lines.append(f"{result.name:<42} {result.mean_requests:>6.2f} "
                     f"{result.mean_repairs:>6.2f} "
                     f"{result.median_delay:>10.2f} "
                     f"{'yes' if result.all_recovered else 'NO':>4}")
    return "\n".join(lines)
