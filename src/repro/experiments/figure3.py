"""Figure 3: random trees, dense sessions, random congested link.

"Random trees with a random congested link and a single packet loss,
where all nodes are members of the multicast session." Three panels
against session size: (a) number of requests, (b) number of repairs,
(c) loss recovery delay of the last member to receive the repair, in
units of that member's RTT to the original source.

Expected shape: medians of exactly one request and one repair, and a
last-member delay ratio mostly below 2 — competitive with TCP-style
unicast recovery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runner import ExperimentRunner

from repro.core.config import SrmConfig
from repro.experiments.common import (
    ExperimentSpec,
    QuartilePanels,
    choose_scenario,
    recovery_panels,
    run_size_sweep,
)
from repro.sim.rng import RandomSource
from repro.topology.random_tree import random_labeled_tree

DEFAULT_SIZES = (10, 20, 40, 60, 80, 100)

def run_figure3(sizes: Sequence[int] = DEFAULT_SIZES,
                sims: int = 20, seed: int = 3,
                config: Optional[SrmConfig] = None,
                runner: Optional["ExperimentRunner"] = None
                ) -> QuartilePanels:
    """Twenty sims per session size; a fresh random tree per sim.

    Scenario generation (topology draws, membership, congested link)
    stays serial in this process — forking the master RNG is order
    dependent — while the independent specs execute on the runner.
    """
    master = RandomSource(seed)
    base_config = config if config is not None else SrmConfig()
    sweep = []  # (size, spec), in sweep order
    for size in sizes:
        for sim_index in range(sims):
            rng = master.fork(f"fig3-{size}-{sim_index}")
            spec = random_labeled_tree(size, rng)
            scenario = choose_scenario(spec, session_size=size, rng=rng)
            sweep.append((size, ExperimentSpec(
                scenario=scenario, config=base_config,
                seed=hash((seed, size, sim_index)) & 0xFFFF,
                experiment="figure3")))
    return run_size_sweep("figure3", sizes, sweep,
                          recovery_panels("Figure 3"), runner)
