"""Figure 4: sparse sessions in a 1000-node bounded-degree tree.

"Bounded-degree tree, degree 4, 1000 nodes, with a random congested
link." Sessions much smaller than the topology; the nodes adjacent to the
congested link are usually *not* members, so fixed timer parameters
de-synchronize less well and the average number of repairs per loss is
somewhat high — the motivation for the adaptive algorithm (Fig. 13/14).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runner import ExperimentRunner

from repro.core.config import SrmConfig
from repro.experiments.common import (
    ExperimentSpec,
    QuartilePanels,
    Scenario,
    choose_scenario,
    recovery_panels,
    run_size_sweep,
)
from repro.sim.rng import RandomSource
from repro.topology.btree import balanced_tree

DEFAULT_SIZES = (20, 40, 60, 80, 100)
NUM_NODES = 1000
DEGREE = 4


def figure4_scenarios(sizes: Sequence[int] = DEFAULT_SIZES,
                      sims: int = 20, seed: int = 4,
                      adjacent_drop: bool = False
                      ) -> List[Scenario]:
    """The scenario sweep shared by Figs. 4 and 14."""
    master = RandomSource(seed)
    spec = balanced_tree(NUM_NODES, DEGREE)
    network = spec.build()  # shared for candidate-edge computation
    scenarios = []
    for size in sizes:
        for sim_index in range(sims):
            rng = master.fork(f"fig4-{size}-{sim_index}")
            scenarios.append(choose_scenario(
                spec, session_size=size, rng=rng,
                adjacent_drop=adjacent_drop, network=network))
    return scenarios


def run_figure4(sizes: Sequence[int] = DEFAULT_SIZES,
                sims: int = 20, seed: int = 4,
                config: Optional[SrmConfig] = None,
                runner: Optional["ExperimentRunner"] = None
                ) -> QuartilePanels:
    base_config = config if config is not None else SrmConfig()
    scenarios = figure4_scenarios(sizes, sims, seed)
    sweep = [(scenario.session_size, ExperimentSpec(
        scenario=scenario, config=base_config,
        seed=(seed * 7919 + index), experiment="figure4"))
        for index, scenario in enumerate(scenarios)]
    return run_size_sweep("figure4", sizes, sweep,
                          recovery_panels("Figure 4"), runner)
