"""Figure 8: delay/duplicates tradeoff for a sparse session in a tree.

Same sweep as Fig. 7, but on a 1000-node degree-4 tree with a session of
100 randomly-placed members. For sparse sessions, small C2 gives
"unacceptably large numbers of requests"; increasing C2 reduces the
duplicates at a moderate cost in delay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runner import ExperimentRunner

from repro.experiments.common import TradeoffSeries, run_c2_sweep
from repro.experiments.figure7 import (DEFAULT_C2_VALUES, DEFAULT_HOPS,
                                       DEGREE, tree_scenarios)
from repro.sim.rng import RandomSource
from repro.topology.btree import balanced_tree

NUM_NODES = 1000
SESSION_SIZE = 100


def run_figure8(c2_values: Sequence[float] = DEFAULT_C2_VALUES,
                hops_values: Sequence[int] = DEFAULT_HOPS,
                sims: int = 20, num_nodes: int = NUM_NODES,
                session_size: int = SESSION_SIZE, c1: float = 2.0,
                seed: int = 8,
                runner: Optional["ExperimentRunner"] = None
                ) -> TradeoffSeries:
    spec = balanced_tree(num_nodes, DEGREE)
    rng = RandomSource(seed)
    members = sorted(rng.sample(range(num_nodes), session_size))
    source = rng.choice(members)
    series, metrics = run_c2_sweep(
        "figure8", tree_scenarios(spec, source, hops_values, members),
        c2_values, c1, sims,
        lambda hops, c2: seed * 131071 + hops * 7919 + int(c2) * 613, runner)
    return TradeoffSeries(
        title=f"Figure 8 (sparse session): tree of {num_nodes} nodes, "
              f"C1={c1}",
        series=series, metrics=metrics)
