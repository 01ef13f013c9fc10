"""Mega-session scaling sweep: figures 4/5 extended to 10^4-10^5 members.

The figure experiments stop at a few hundred members because the agent
engine instantiates one Python object per member per timer. The herd
engine (:mod:`repro.herd`) removes that ceiling, and this sweep measures
SRM recovery at session sizes the paper could only analyze:

* **star points** (the figure 5 setup): G leaf members, loss adjacent to
  the source, every survivor detects simultaneously. The request timer
  constant ``C2`` is *scaled with the session* (``C2 = G/10``) — with a
  fixed C2 the expected request count ``1 + (G-2)/C2`` grows linearly in
  G and the round degenerates into the NACK implosion the paper's
  Section IV-B predicts (measured: a G=10^5 star at the default C2=2
  multicasts ~56k requests). Scaling C2 is the paper's own prescription:
  the timer constants are per-session tuning knobs, and the sweep shows
  the implosion stays suppressed at any size once C2 tracks G.
* **tree points** (the figure 4 setup): members scattered over a
  balanced degree-4 tree of twice the session size, loss adjacent to
  the source. Here distance spread makes *deterministic* suppression do
  the work, so the paper's default constants hold at every size — the
  request count stays O(1) from N=10^2 to N=10^5.

Each point reports the request/repair counts and recovery-delay
distribution that the figure experiments report, in the same
:class:`~repro.metrics.bundle.RunMetrics` shape. The herd builds every
bundle from its arrays, so ``--check`` changes no number. Round reports
of sessions up to :data:`~repro.herd.FULL_TRACE_THRESHOLD` members also
carry per-member timings (``full``); larger ones carry counts only
(``aggregate``). The ``mode`` column records which.

Wall-clock timing deliberately lives in ``benchmarks/bench_herd.py``,
not here — experiment modules stay free of clock reads so identical
seeds produce identical artifacts byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.config import SrmConfig
from repro.experiments.common import Scenario
from repro.herd import HerdSimulation
from repro.metrics.bundle import RunMetrics
from repro.sim.rng import RandomSource
from repro.topology.btree import balanced_tree
from repro.topology.star import star

#: Session sizes of the standard sweep (10^2 .. 10^5).
DEFAULT_SIZES: Tuple[int, ...] = (100, 1_000, 10_000, 100_000)

#: Sizes the CI smoke job runs (keeps the job under a minute).
SMOKE_SIZES: Tuple[int, ...] = (100, 1_000, 10_000)


def star_c2(size: int) -> float:
    """The session-scaled request timer constant for star points."""
    return max(2.0, size / 10.0)


def star_scaling_scenario(size: int) -> Scenario:
    """G leaf members, source leaf 1, loss adjacent to the source."""
    spec = star(size)
    return Scenario(spec=spec, members=list(range(1, size + 1)), source=1,
                    drop_edge=(1, 0))


def tree_scaling_scenario(size: int, seed: int = 0) -> Scenario:
    """``size`` members sampled from a degree-4 tree of ``2*size`` nodes.

    The root is always a member and acts as the source; the congested
    link is the root's edge to its first child, so the affected set is
    (roughly) the members of one quarter of the tree — the figure 4
    "loss adjacent to the source" placement at mega-session scale.
    """
    spec = balanced_tree(2 * size, 4)
    rng = RandomSource(seed).fork(f"scaling-tree-{size}")
    members = sorted({0} | set(rng.sample(range(1, spec.num_nodes),
                                          size - 1)))
    return Scenario(spec=spec, members=members, source=0, drop_edge=(0, 1))


@dataclass
class ScalingPoint:
    """One (topology kind, session size) cell of the scaling table."""

    kind: str                # "star" | "tree"
    size: int
    c2: float
    rounds: int
    mode: str                # "full" | "aggregate"
    requests_mean: float
    repairs_mean: float
    duplicate_requests_mean: float
    losses_detected_mean: float
    recovery_p50: Optional[float]
    recovery_max: Optional[float]
    recovered: bool


@dataclass
class ScalingResult:
    seed: int
    points: List[ScalingPoint] = field(default_factory=list)
    metrics: Optional[RunMetrics] = None

    def format_table(self) -> str:
        lines = [
            "Mega-session scaling (herd engine): requests stay flat while"
            " N grows 1000x",
            f"{'kind':>5} {'N':>7} {'C2':>8} {'mode':>9} {'reqs':>7} "
            f"{'repairs':>7} {'dup_req':>7} {'affected':>8} "
            f"{'rec_p50':>8} {'rec_max':>8}",
        ]
        for p in self.points:
            rec_p50 = "-" if p.recovery_p50 is None else \
                f"{p.recovery_p50:.3f}"
            rec_max = "-" if p.recovery_max is None else \
                f"{p.recovery_max:.3f}"
            lines.append(
                f"{p.kind:>5} {p.size:>7} {p.c2:>8.0f} {p.mode:>9} "
                f"{p.requests_mean:>7.2f} {p.repairs_mean:>7.2f} "
                f"{p.duplicate_requests_mean:>7.2f} "
                f"{p.losses_detected_mean:>8.0f} "
                f"{rec_p50:>8} {rec_max:>8}")
        return "\n".join(lines)


def _run_point(kind: str, scenario: Scenario, config: Optional[SrmConfig],
               c2: float, rounds: int, seed: int
               ) -> Tuple[ScalingPoint, List[RunMetrics]]:
    sim = HerdSimulation(scenario, config=config, seed=seed)
    bundles: List[RunMetrics] = []
    recovered = True
    try:
        for _ in range(rounds):
            outcome = sim.run_round()
            recovered = recovered and outcome.recovered
            bundles.append(sim.last_round_metrics)
    finally:
        sim.close()
    merged = RunMetrics.merged(bundles, experiment=f"scaling-{kind}")
    headline = merged.headline()
    point = ScalingPoint(
        kind=kind, size=scenario.session_size, c2=c2, rounds=rounds,
        mode="full" if sim.full_trace else "aggregate",
        requests_mean=merged.requests / rounds,
        repairs_mean=merged.repairs / rounds,
        duplicate_requests_mean=merged.duplicate_requests / rounds,
        losses_detected_mean=merged.losses_detected / rounds,
        recovery_p50=headline["recovery_ratio_p50"],
        recovery_max=headline["recovery_ratio_max"],
        recovered=recovered)
    return point, bundles


def run_scaling(sizes: Sequence[int] = DEFAULT_SIZES, rounds: int = 3,
                seed: int = 0,
                kinds: Sequence[str] = ("star", "tree")) -> ScalingResult:
    """Run the sweep; one persistent herd session per (kind, size)."""
    result = ScalingResult(seed=seed)
    all_bundles: List[RunMetrics] = []
    for size in sizes:
        if "star" in kinds:
            c2 = star_c2(size)
            point, bundles = _run_point(
                "star", star_scaling_scenario(size),
                SrmConfig(c2=c2), c2, rounds, seed)
            result.points.append(point)
            all_bundles.extend(bundles)
        if "tree" in kinds:
            config = SrmConfig()
            point, bundles = _run_point(
                "tree", tree_scaling_scenario(size, seed=seed),
                config, config.c2, rounds, seed)
            result.points.append(point)
            all_bundles.extend(bundles)
    result.metrics = RunMetrics.merged(all_bundles, experiment="scaling")
    result.metrics.meta.update({"seed": seed, "engine": "herd",
                                "sizes": list(sizes),
                                "rounds_per_point": rounds})
    return result
