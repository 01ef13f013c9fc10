"""Figure 7: delay/duplicates tradeoff for dense sessions in trees.

Bounded-degree tree, every node a member (density 1), session size at
least 100. One series per failed-edge placement (1-4 hops from the
source, which sits at the root); C2 sweeps 0..100 with C1 = 2. Each point
reports the expected request delay (RTT units, closest bad member) and
the expected number of requests.

Expected shape: the placement closest to the source gives the worst-case
duplicates, and duplicates are maximized at an *intermediate* C2 (they
are minimal at C2 = 100, and at very small C2 the level-0 node's request
is out so fast that deeper levels are deterministically suppressed).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runner import ExperimentRunner

from repro.experiments.common import Scenario, TradeoffSeries, run_c2_sweep
from repro.topology.btree import balanced_tree
from repro.topology.spec import TopologySpec

DEFAULT_C2_VALUES = (0, 1, 2, 3, 5, 8, 12, 20, 35, 60, 100)
DEFAULT_HOPS = (1, 2, 3, 4)
NUM_NODES = 120
DEGREE = 4


def drop_edge_at_hops(spec: TopologySpec, source: int, hops: int,
                      members: Sequence[int]) -> tuple[int, int]:
    """A source-tree edge whose upstream end is ``hops - 1`` hops from the
    source, chosen deterministically (lowest child id) among edges that
    cut off at least one member."""
    tree = spec.build().member_tree(source, members)
    paths = [tree.path(member) for member in members]
    candidates = [(path[hops - 1], path[hops]) for path in paths
                  if 0 < hops < len(path)]
    if not candidates:
        raise ValueError(f"no candidate edge at {hops} hops from {source}")
    return min(candidates, key=lambda edge: edge[1])


def tree_scenarios(spec: TopologySpec, source: int,
                   hops_values: Sequence[int],
                   members: Sequence[int]) -> Dict[int, Scenario]:
    """One scenario per failed-edge placement (Figs. 7 and 8)."""
    return {hops: Scenario(spec=spec, members=list(members), source=source,
                           drop_edge=drop_edge_at_hops(spec, source, hops,
                                                       members))
            for hops in hops_values}


def run_figure7(c2_values: Sequence[float] = DEFAULT_C2_VALUES,
                hops_values: Sequence[int] = DEFAULT_HOPS,
                sims: int = 20, num_nodes: int = NUM_NODES,
                degree: int = DEGREE, c1: float = 2.0,
                seed: int = 7,
                runner: Optional["ExperimentRunner"] = None
                ) -> TradeoffSeries:
    spec = balanced_tree(num_nodes, degree)
    series, metrics = run_c2_sweep(
        "figure7", tree_scenarios(spec, 0, hops_values, range(num_nodes)),
        c2_values, c1, sims,
        lambda hops, c2: seed * 31337 + hops * 7919 + int(c2) * 613, runner)
    return TradeoffSeries(
        title=f"Figure 7: tree of {num_nodes} nodes, C1={c1}",
        series=series, metrics=metrics)
