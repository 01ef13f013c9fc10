"""Figure 6: delay/duplicates tradeoff in a chain topology.

For a chain, C2 = 0 is optimal — deterministic suppression yields exactly
one request with the minimum delay — and increasing C2 can only increase
both the expected delay and (slightly) the number of duplicates. The four
series place the failed edge 1, 2, 5 and 10 hops from the source.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runner import ExperimentRunner

from repro.experiments.common import Scenario, TradeoffSeries, run_c2_sweep
from repro.topology.chain import chain

#: The paper sweeps C2 over 0..10 by 1 then 10..100 by 10.
DEFAULT_C2_VALUES = tuple(list(range(0, 11)) + list(range(20, 101, 10)))
DEFAULT_FAILURE_HOPS = (1, 2, 5, 10)
CHAIN_LENGTH = 100


def chain_scenario(failure_hops: int,
                   chain_length: int = CHAIN_LENGTH) -> Scenario:
    """Source at node 0, all nodes members, drop ``failure_hops`` out."""
    spec = chain(chain_length)
    return Scenario(spec=spec, members=list(range(chain_length)), source=0,
                    drop_edge=(failure_hops - 1, failure_hops))


def run_figure6(c2_values: Sequence[float] = DEFAULT_C2_VALUES,
                failure_hops: Sequence[int] = DEFAULT_FAILURE_HOPS,
                sims: int = 20, chain_length: int = CHAIN_LENGTH,
                c1: float = 2.0, seed: int = 6,
                runner: Optional["ExperimentRunner"] = None
                ) -> TradeoffSeries:
    series, metrics = run_c2_sweep(
        "figure6",
        {hops: chain_scenario(hops, chain_length) for hops in failure_hops},
        c2_values, c1, sims,
        lambda hops, c2: seed * 65537 + hops * 9973 + int(c2) * 613, runner)
    return TradeoffSeries(
        title=f"Figure 6: chain of {chain_length} nodes, C1={c1}; "
              f"mean over sims per point",
        series=series, metrics=metrics)
