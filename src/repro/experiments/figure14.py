"""Figure 14: the adaptive algorithm at round 40, across the Fig. 4 sweep.

"For each scenario (i.e., network topology, session membership, source
member, and congested link) in Fig. 14, the adaptive algorithm is run
repeatedly for 40 loss recovery rounds, and Fig. 14 shows the results
from the 40th loss recovery round."

Comparing against Fig. 4 shows the adaptive algorithm controlling the
number of duplicates over a range of scenarios.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.config import SrmConfig
from repro.experiments.common import (
    ExperimentSpec,
    QuartilePanels,
    run_size_sweep,
)
from repro.experiments.figure4 import DEFAULT_SIZES, figure4_scenarios

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runner import ExperimentRunner


def run_figure14(sizes: Sequence[int] = DEFAULT_SIZES,
                 sims: int = 20, rounds: int = 40, seed: int = 4,
                 config: Optional[SrmConfig] = None,
                 runner: Optional["ExperimentRunner"] = None
                 ) -> QuartilePanels:
    """Re-runs the exact Fig. 4 scenario sweep, adaptively, to round 40."""
    base_config = config if config is not None else SrmConfig(adaptive=True)
    if not base_config.adaptive:
        raise ValueError("figure 14 requires an adaptive config")
    scenarios = figure4_scenarios(sizes, sims, seed)
    sweep = [(scenario.session_size, ExperimentSpec(
        scenario=scenario, config=base_config, rounds=rounds,
        seed=(seed * 524287 + index), experiment="figure14"))
        for index, scenario in enumerate(scenarios)]
    panels = (
        ("requests", f"Figure 14a: requests at round {rounds} (adaptive)"),
        ("repairs", f"Figure 14b: repairs at round {rounds} (adaptive)"),
        ("delay_ratio", f"Figure 14c: last-member recovery delay at round "
                        f"{rounds}"),
    )
    return run_size_sweep("figure14", sizes, sweep, panels, runner)
