"""Figure 15: two-step TTL-scoped local recovery.

"Local recovery with two-step repairs in bounded-degree trees with 1000
nodes, thresholds of one." For each session size, twenty simulations with
random membership, source and congested link — restricted, as in the
paper, to "scenarios where the loss neighborhood contains at most 1/10th
of the session members" — executing the *optimal* two-step algorithm
(single request and repair from the members closest to the failure,
request TTL = max(h, H)).

Top panel: fraction of session members reached by the repair. Bottom
panel: members reached by the repair as a multiple of the loss
neighborhood size. Both should stay small and roughly flat with session
size; the one-step variant is run alongside to show its inefficiency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.core.local import loss_neighborhood
from repro.experiments.common import (
    ExperimentSpec,
    QuartilePanels,
    RunResult,
    Scenario,
    candidate_drop_edges,
    run_size_sweep,
)
from repro.net.network import Network
from repro.sim.rng import RandomSource
from repro.topology.btree import balanced_tree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runner import ExperimentRunner

DEFAULT_SIZES = (50, 100, 150, 200, 250)
NUM_NODES = 1000
DEGREE = 4
#: The paper restricts to loss neighborhoods of at most 1/10 the session.
MAX_LOSS_FRACTION = 0.1


def _draw_scenario(network: Network, rng: RandomSource,
                   session_size: int, num_nodes: int):
    """Members/source/drop with a small, non-empty loss neighborhood."""
    while True:
        members = sorted(rng.sample(range(num_nodes), session_size))
        source = rng.choice(members)
        edges = candidate_drop_edges(network, source, members)
        drop_parent, drop_child = rng.choice(edges)
        losses = loss_neighborhood(network, source, drop_parent, drop_child,
                                   members)
        if not losses or len(losses) == len(members):
            continue
        if len(losses) <= MAX_LOSS_FRACTION * session_size:
            return members, source, (drop_parent, drop_child)


def _scoped_panel_values(result: RunResult) -> Dict[str, Optional[float]]:
    outcome = result.artifacts["scoped"]
    assert outcome.covered, "scoped repair must cover the loss"
    return {"fraction": outcome.fraction_of_session,
            "ratio": outcome.repair_to_loss_ratio}


def run_figure15(sizes: Sequence[int] = DEFAULT_SIZES,
                 sims: int = 20, num_nodes: int = NUM_NODES,
                 degree: int = DEGREE, mode: str = "two-step",
                 seed: int = 15,
                 runner: Optional["ExperimentRunner"] = None
                 ) -> QuartilePanels:
    spec = balanced_tree(num_nodes, degree)
    network = spec.build()
    master = RandomSource(seed)
    sweep = []  # (size, spec), in sweep order
    for size in sizes:
        for sim_index in range(sims):
            rng = master.fork(f"fig15-{mode}-{size}-{sim_index}")
            members, source, drop_edge = _draw_scenario(
                network, rng, size, num_nodes)
            sweep.append((size, ExperimentSpec(
                scenario=Scenario(spec=spec, members=members, source=source,
                                  drop_edge=drop_edge),
                kind="scoped", scoped_mode=mode, experiment="figure15")))
    panels = (
        ("fraction", f"Figure 15 top ({mode}): fraction of session "
                     f"members reached by the repair"),
        ("ratio", f"Figure 15 bottom ({mode}): repair neighborhood / "
                  f"loss neighborhood"),
    )
    return run_size_sweep("figure15", sizes, sweep, panels, runner,
                          values=_scoped_panel_values)
