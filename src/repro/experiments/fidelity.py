"""``repro fidelity``: the paper's shape claims as one checked table.

The paper's evaluation is a set of *shape* claims — one request and one
repair per loss on dense trees, ``1 + (G-2)/C2`` requests in a star,
``C2 = 0`` optimal on a chain, adaptive timers collapsing duplicates.
Each is one :class:`Row` below: the paper's value as text, a statistic
computed from the experiment's own result object, and the predicate that
statistic must satisfy. Rows are grouped by the :class:`Experiment` that
feeds them; an experiment runs once, at the reduced or the paper scale
(both parameter sets are part of the table), on the caller's
:class:`~repro.runner.ExperimentRunner`.

A ``claim`` row gates: ``repro fidelity`` exits 1 when one fails. A
``deviation`` row carries the paper's predicate for a result this
reproduction is known not to match (EXPERIMENTS.md, "Known deviations");
it is measured and printed, never gating.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, \
    TextIO, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runner import ExperimentRunner

from repro.analysis.chain import chain_recovery_schedule, \
    unicast_recovery_delay
from repro.analysis.star import expected_first_request_delay_ratio, \
    expected_requests
from repro.baselines import bandwidth_ratio, build_sender_ack_session, \
    build_unicast_nack_session
from repro.core.agent import SrmAgent
from repro.core.config import SrmConfig
from repro.core.names import DEFAULT_PAGE, AduName
from repro.experiments.common import ExperimentSpec, SeriesPoint, run_sweep
from repro.experiments.congestion import run_congestion_experiment
from repro.experiments.figure5 import star_scenario
from repro.experiments.figure6 import chain_scenario
from repro.experiments.figure12_13 import find_adversarial_scenario
from repro.experiments.figures import FIGURES
from repro.experiments.robustness import run_robustness
from repro.metrics.events import mean, quantiles
from repro.net.link import BernoulliDropFilter, NthPacketDropFilter
from repro.sim.rng import RandomSource
from repro.sim.trace import FEC_RECONSTRUCTED, SEND_REPAIR, SEND_REQUEST
from repro.topology.btree import balanced_tree
from repro.topology.star import star


@dataclass(frozen=True)
class Row:
    """One claim: what the paper says, what we measure, what must hold."""

    id: str
    paper: str                      # the paper's value or shape
    tolerance: str                  # the predicate ``ok``, as text
    measure: Callable[[Any], Any]   # statistic from the experiment result
    ok: Callable[[Any], bool]       # predicate over that statistic
    status: str = "claim"           # "claim" gates; "deviation" reports


@dataclass(frozen=True)
class Experiment:
    """One run feeding several rows; ``run(runner, **scale) -> result``."""

    name: str
    figure: str
    run: Callable[..., Any]
    reduced: Dict[str, Any]
    full: Dict[str, Any]
    rows: Tuple[Row, ...]


@dataclass(frozen=True)
class Verdict:
    figure: str
    row: Row
    measured: Any
    ok: Optional[bool]              # None: not measurable at this scale


# ----------------------------------------------------------------------
# Statistics shared by the rows.
# ----------------------------------------------------------------------


def _medians(points: List[SeriesPoint], metric: str) -> List[float]:
    return [quantiles(point.series(metric))[1] for point in points]


def _means(points: List[SeriesPoint], metric: str) -> List[float]:
    return [mean(point.series(metric)) for point in points]


def _close(value: float, expected: float, rel: float,
           abs_tol: float = 0.0) -> bool:
    """``value == pytest.approx(expected, rel=rel, abs=abs_tol)``."""
    return abs(value - expected) <= max(rel * abs(expected), abs_tol)


def run_figure(name: str, runner: ExperimentRunner,
               **arguments: Any) -> Tuple[Any, ...]:
    """The tables of the ``repro <name>`` command, at its own seed."""
    figure = FIGURES[name]
    return figure.run(runner=runner, seed=figure.seed, **arguments)


def run_figure_table(name: str, runner: ExperimentRunner,
                     **arguments: Any) -> Any:
    """:func:`run_figure` for a figure that prints a single table."""
    (table,) = run_figure(name, runner, **arguments)
    return table


def _mean_outcome(result: Any, metric: str) -> float:
    return mean([getattr(outcome, metric) for outcome in result.outcomes])


def _serial(run: Callable[..., Any]) -> Callable[..., Any]:
    """An experiment that drives its own loop and takes no runner."""
    return lambda runner, **scale: run(**scale)


# ----------------------------------------------------------------------
# Experiments that are not a figure module of their own.
# ----------------------------------------------------------------------

FAILURE_HOPS = 5


def run_chain_section4(runner: ExperimentRunner,
                       chain_length: int) -> Dict[str, Any]:
    """Section IV-A: deterministic timers on a chain vs the closed form."""
    (result,), _ = run_sweep("sec4a", [ExperimentSpec(
        scenario=chain_scenario(FAILURE_HOPS, chain_length),
        config=SrmConfig(c1=1.0, c2=0.0, d1=1.0, d2=0.0))], runner)
    outcome = result.outcome
    schedule = chain_recovery_schedule(chain_length, FAILURE_HOPS)
    farthest = chain_length - 1
    return {"outcome": outcome,
            "analytic": schedule.farthest_delay_ratio(),
            "multicast": schedule.recovery_delay(farthest),
            "unicast": unicast_recovery_delay(farthest)}


def run_star_section4(runner: ExperimentRunner, group_size: int,
                      rounds: int) -> List[Dict[str, float]]:
    """Section IV-B: star request counts and delay vs the closed form."""
    c2_values = (5.0, 20.0, float(group_size))
    results, _ = run_sweep("sec4b", [ExperimentSpec(
        scenario=star_scenario(group_size),
        config=SrmConfig(c1=2.0, c2=c2), rounds=rounds, seed=int(c2) + 7)
        for c2 in c2_values], runner)
    return [{"requests": _mean_outcome(result, "requests"),
             "delay": _mean_outcome(result, "closest_request_ratio"),
             "model_requests": expected_requests(group_size, c2),
             "model_delay": expected_first_request_delay_ratio(
                 group_size, 2.0, c2)}
            for c2, result in zip(c2_values, results)]


def run_baselines(runner: ExperimentRunner, ack_groups: Tuple[int, ...],
                  tree_sizes: Tuple[int, ...],
                  chain_length: int) -> Dict[str, Any]:
    """Section II-A: ACK implosion, N-unicast bandwidth, the 1-RTT floor."""
    results, _ = run_sweep("sec2a", [ExperimentSpec(
        scenario=star_scenario(group_size),
        config=SrmConfig(c1=2.0, c2=group_size), rounds=5, seed=group_size)
        for group_size in ack_groups] + [ExperimentSpec(
            scenario=chain_scenario(FAILURE_HOPS, chain_length),
            config=SrmConfig(c1=1.0, c2=0.0, d1=1.0, d2=0.0))], runner)
    acks = []
    for group_size in ack_groups:
        network = star(group_size).build()
        sender, _ = build_sender_ack_session(
            network, 1, list(range(1, group_size + 1)))
        network.scheduler.schedule(0.0, partial(sender.send_data, "x"))
        network.run()
        acks.append(sender.acks_received)
    srm_control = [sum(o.requests + o.repairs for o in result.outcomes) / 5
                   for result in results[:-1]]
    bandwidth = [bandwidth_ratio(balanced_tree(size, 4).build(), 0,
                                 list(range(1, size)))
                 for size in tree_sizes]
    # Pure unicast NACK recovery on the same chain and drop as SRM's.
    network = chain_scenario(FAILURE_HOPS, chain_length).spec.build()
    source, receivers = build_unicast_nack_session(
        network, 0, list(range(chain_length)), repair_mode="unicast")
    network.add_drop_filter(
        FAILURE_HOPS - 1, FAILURE_HOPS,
        NthPacketDropFilter(lambda packet: packet.kind == "nack-data"))
    network.scheduler.schedule(0.0, partial(source.send_data, "a"))
    network.scheduler.schedule(1.0, partial(source.send_data, "b"))
    network.run()
    return {"groups": ack_groups, "acks": acks, "srm_control": srm_control,
            "bandwidth": bandwidth,
            "srm": results[-1].outcome.last_member_ratio,
            "unicast": receivers[chain_length - 1].recovery_delay_ratio(1)}


def run_ablations(runner: ExperimentRunner, backoff_chain: int,
                  backoff_rounds: int, star_size: int, distance_chain: int,
                  rounds: int) -> Dict[str, Tuple[float, float]]:
    """Switch one mechanism off at a time (DESIGN.md); (with, without)."""
    star_all = star_scenario(star_size)
    small_c2 = SrmConfig(c1=0.0, c2=1.0)
    sweep = [
        ("backoff", "requests", chain_scenario(1, backoff_chain),
         backoff_rounds, 21,
         SrmConfig(c1=2.0, c2=0.5, request_backoff=3.0),
         SrmConfig(c1=2.0, c2=0.5, request_backoff=2.0)),
        ("holddown", "repairs", star_all, rounds, 31,
         small_c2.copy(holddown_factor=3.0),
         small_c2.copy(holddown_factor=0.0)),
        ("distance", "requests", chain_scenario(5, distance_chain),
         rounds, 41,
         SrmConfig(c1=1.0, c2=0.5, d1=1.0, d2=0.5),
         SrmConfig(c1=0.0, c2=1.5, d1=1.0, d2=0.5)),
        ("ignore_backoff", "last_member_ratio", star_all, rounds, 51,
         small_c2, small_c2.copy(ignore_backoff_enabled=False)),
    ]
    results, _ = run_sweep("ablations", [
        ExperimentSpec(scenario=scenario, config=config, rounds=count,
                       seed=seed)
        for _, _, scenario, count, seed, *configs in sweep
        for config in configs], runner)
    return {name: (_mean_outcome(results[2 * index], metric),
                   _mean_outcome(results[2 * index + 1], metric))
            for index, (name, metric, *_) in enumerate(sweep)}


def run_lossy_transfer(fec_block: Optional[int], nodes: int, packets: int,
                       loss_rate: float = 0.08,
                       seed: int = 42) -> Dict[str, Any]:
    """``packets`` ADUs through a tree with a Bernoulli-lossy edge."""
    spec = balanced_tree(nodes, 4)
    network = spec.build()   # keeps no rows: only kind_totals are read
    group = network.groups.allocate("session")
    master = RandomSource(seed)
    config = SrmConfig(fec_block=fec_block)
    agents = {}
    for node in range(spec.num_nodes):
        agent = SrmAgent(config.copy(), master.fork(f"m{node}"))
        network.attach(node, agent)
        agent.join_group(group)
        agents[node] = agent
    network.add_drop_filter(0, 1, BernoulliDropFilter(
        loss_rate, master.fork("loss"),
        predicate=lambda packet: packet.kind == "srm-data"))
    for index in range(packets):
        network.scheduler.schedule(
            index * 2.0, partial(agents[0].send_data, f"p{index}"))
    # A reliable beacon reveals any tail loss.
    network.scheduler.schedule(packets * 2.0 + 50.0,
                               partial(agents[0].send_data, "beacon"))
    network.run(max_events=5_000_000)
    totals = network.trace.kind_totals
    return {"recovery": totals[SEND_REQUEST] + totals[SEND_REPAIR],
            "requests": totals[SEND_REQUEST],
            "reconstructed": totals[FEC_RECONSTRUCTED],
            "complete": all(
                agent.store.have(AduName(0, DEFAULT_PAGE, seq))
                for agent in agents.values()
                for seq in range(1, packets + 1))}


def run_fec(nodes: int, packets: int) -> Dict[str, Dict[str, Any]]:
    return {"plain": run_lossy_transfer(None, nodes, packets),
            "fec": run_lossy_transfer(4, nodes, packets)}


def run_c2_series(name: str, runner: ExperimentRunner,
                  **scale: Any) -> Dict[int, Dict[str, List[float]]]:
    """Figures 6-8: per failure placement, mean delay/requests per C2."""
    result = run_figure_table(name, runner, **scale)
    return {hops: {"delay": _means(points, "delay"),
                   "requests": _means(points, "requests")}
            for hops, points in result.series.items()}


def run_figure12_13(runner: ExperimentRunner, runs: int,
                    rounds: int) -> Dict[str, float]:
    # The candidate search is cheap next to the round loop: always search
    # the full Fig. 4 set so the duplicate-heavy scenario is found even
    # at reduced scale.
    scenario = find_adversarial_scenario(candidates=40, probe_rounds=3)
    fixed = run_figure_table("figure12", runner, scenario=scenario,
                             runs=runs, rounds=rounds)
    adaptive = run_figure_table("figure13", runner, scenario=scenario,
                                runs=runs, rounds=rounds)
    late = (3 * rounds // 4, rounds)
    return {"fixed_early": fixed.mean_requests_over(0, rounds // 4),
            "fixed_late": fixed.mean_requests_over(*late),
            "adaptive_early": adaptive.mean_requests_over(0, 5),
            "adaptive_late": adaptive.mean_requests_over(*late),
            "fixed_delay": fixed.mean_delay_over(*late),
            "adaptive_delay": adaptive.mean_delay_over(*late)}


def run_figure14_pair(runner: ExperimentRunner, rounds: int,
                      **scale: Any) -> Dict[str, List[float]]:
    """Fig. 14 against Fig. 4's fixed timers on the very same scenarios."""
    fixed = run_figure_table("figure4", runner, **scale)
    adaptive = run_figure_table("figure14", runner, rounds=rounds, **scale)
    return {"fixed": _means(fixed.points, "repairs"),
            "adaptive": _means(adaptive.points, "repairs"),
            "medians": _medians(adaptive.points, "repairs")}


def run_figure15_pair(runner: ExperimentRunner,
                      **scale: Any) -> Dict[str, Any]:
    two, one = run_figure("figure15", runner, **scale)
    return {"fractions": list(zip(_medians(two.points, "fraction"),
                                  _medians(one.points, "fraction"))),
            "two_ratio": mean([value for point in two.points
                               for value in point.series("ratio")]),
            "one_ratio": mean([value for point in one.points
                               for value in point.series("ratio")])}


def run_congestion_pair(burst: int) -> Dict[str, Any]:
    return {"unpaced": run_congestion_experiment(burst=burst,
                                                 rate_limit=None),
            "paced": run_congestion_experiment(burst=burst,
                                               rate_limit=400.0)}


# ----------------------------------------------------------------------
# The table.
# ----------------------------------------------------------------------

C2_PAPER = (0, 1, 2, 3, 5, 8, 12, 20, 35, 60, 100)
ADJACENT = "congested link adjacent to source"

SEC4A = Experiment(
    "sec4a", "§IV-A", run_chain_section4,
    reduced=dict(chain_length=50), full=dict(chain_length=100), rows=(
        Row("sec4a.one-request", "exactly one request per loss", "== 1",
            lambda r: r["outcome"].requests, lambda m: m == 1),
        Row("sec4a.one-repair", "exactly one repair per loss", "== 1",
            lambda r: r["outcome"].repairs, lambda m: m == 1),
        Row("sec4a.recovered", "every member recovers the loss", "is true",
            lambda r: r["outcome"].recovered, lambda m: m),
        Row("sec4a.matches-closed-form",
            "farthest-node delay/RTT follows the analytic timeline",
            "abs(simulated - analytic) < 1e-6",
            lambda r: (r["outcome"].last_member_ratio, r["analytic"]),
            lambda m: abs(m[0] - m[1]) < 1e-6),
        Row("sec4a.sub-rtt-tail",
            "the farthest node recovers in under one of its RTTs", "< 1.0",
            lambda r: r["outcome"].last_member_ratio, lambda m: m < 1.0),
        Row("sec4a.beats-unicast",
            "faster than any unicast scheme (floor: one RTT)",
            "multicast delay < unicast delay",
            lambda r: (r["multicast"], r["unicast"]), lambda m: m[0] < m[1]),
    ))

SEC4B = Experiment(
    "sec4b", "§IV-B", run_star_section4,
    reduced=dict(group_size=50, rounds=15),
    full=dict(group_size=100, rounds=30), rows=(
        Row("sec4b.requests-track-model",
            "E[requests] = 1 + (G-2)/C2 at C2 = 5, 20, G",
            "sim/model within rel 0.6 or abs 2.0",
            lambda r: [(p["requests"], p["model_requests"]) for p in r],
            lambda m: all(_close(sim, model, 0.6, 2.0) for sim, model in m)),
        Row("sec4b.delay-tracks-model",
            "E[first-request delay] = (C1 + C2/G)/2 RTT",
            "sim/model within rel 0.3",
            lambda r: [(p["delay"], p["model_delay"]) for p in r],
            lambda m: all(_close(sim, model, 0.3) for sim, model in m)),
        Row("sec4b.c2-cuts-requests", "raising C2 cuts duplicates",
            "requests at C2 = 5 > at C2 = G",
            lambda r: (r[0]["requests"], r[-1]["requests"]),
            lambda m: m[0] > m[1]),
        Row("sec4b.c2-raises-delay", "raising C2 costs delay",
            "delay at C2 = 5 < at C2 = G",
            lambda r: (r[0]["delay"], r[-1]["delay"]), lambda m: m[0] < m[1]),
    ))

FIG3 = Experiment(
    "fig3", "Fig. 3", partial(run_figure_table, "figure3"),
    reduced=dict(sizes=(10, 30, 60), sims=8),
    full=dict(sizes=(10, 20, 40, 60, 80, 100), sims=20), rows=(
        Row("fig3.request-median",
            "median of one request per loss at every session size", "== 1.0",
            lambda r: _medians(r.points, "requests"),
            lambda m: all(v == 1.0 for v in m)),
        Row("fig3.repair-median",
            "median of one repair per loss at every session size", "== 1.0",
            lambda r: _medians(r.points, "repairs"),
            lambda m: all(v == 1.0 for v in m)),
        Row("fig3.delay-median",
            "last-member delay below ~2 RTT, competitive with TCP",
            "median < 2.5",
            lambda r: _medians(r.points, "delay_ratio"),
            lambda m: all(v < 2.5 for v in m)),
    ))

FIG4 = Experiment(
    "fig4", "Fig. 4", partial(run_figure_table, "figure4"),
    reduced=dict(sizes=(20, 60), sims=8),
    full=dict(sizes=(20, 40, 60, 80, 100), sims=20), rows=(
        Row("fig4.request-median", "requests stay near one", "median <= 2.0",
            lambda r: _medians(r.points, "requests"),
            lambda m: all(v <= 2.0 for v in m)),
        Row("fig4.duplicate-repairs",
            "the number of repairs per loss is 'somewhat high'",
            "largest mean > 2.0",
            lambda r: _means(r.points, "repairs"), lambda m: max(m) > 2.0),
    ))

FIG5 = Experiment(
    "fig5", "Fig. 5", partial(run_figure_table, "figure5"),
    reduced=dict(group_size=50, c2_values=(2, 10, 40), sims=10),
    full=dict(group_size=100, c2_values=(0, 4, 10, 20, 40, 100), sims=20),
    rows=(
        Row("fig5.requests-fall", "more randomization, fewer requests",
            "requests at smallest C2 > at largest",
            lambda r: (r.points[0].sim_requests_mean,
                       r.points[-1].sim_requests_mean),
            lambda m: m[0] > m[1]),
        Row("fig5.delay-climbs", "delay climbs linearly in C2",
            "delay at smallest C2 < at largest",
            lambda r: (r.points[0].sim_delay_mean,
                       r.points[-1].sim_delay_mean),
            lambda m: m[0] < m[1]),
        Row("fig5.requests-track-analysis",
            "simulated requests concur with 1 + (G-2)/C2",
            "sim/analysis within rel 0.75 or abs 2.0, C2 >= 2",
            lambda r: [(p.sim_requests_mean, p.analysis_requests)
                       for p in r.points if p.c2 >= 2],
            lambda m: all(_close(sim, model, 0.75, 2.0) for sim, model in m)),
        Row("fig5.delay-tracks-analysis",
            "simulated delay concurs with (C1 + C2/G)/2",
            "sim/analysis within rel 0.35, C2 >= 2",
            lambda r: [(p.sim_delay_mean, p.analysis_delay)
                       for p in r.points if p.c2 >= 2],
            lambda m: all(_close(sim, model, 0.35) for sim, model in m)),
        # The paper quotes its G = C2 = 100 point; only --full sweeps it.
        Row("fig5.requests-at-c2-eq-g", "about 1.5 requests at G = C2 = 100",
            "within 0.25 of 1.5",
            lambda r: next((p.sim_requests_mean for p in r.points
                            if p.c2 == r.group_size == 100), None),
            lambda m: abs(m - 1.5) <= 0.25, status="deviation"),
    ))

FIG6 = Experiment(
    "fig6", "Fig. 6",
    partial(run_c2_series, "figure6", failure_hops=(1, 2, 5, 10)),
    reduced=dict(c2_values=(0, 10, 50, 100), sims=8, chain_length=60),
    full=dict(c2_values=tuple(range(0, 101, 10)), sims=20, chain_length=100),
    rows=(
        Row("fig6.c2-zero-min-delay",
            "C2 = 0 is optimal on a chain, per failure placement",
            "delay at C2 = 0 == minimum over the sweep",
            lambda r: [(s["delay"][0], min(s["delay"])) for s in r.values()],
            lambda m: all(first == least for first, least in m)),
        Row("fig6.delay-grows", "delay increases with C2",
            "delay at largest C2 > 2 x delay at C2 = 0",
            lambda r: [(s["delay"][-1], s["delay"][0]) for s in r.values()],
            lambda m: all(last > 2 * first for last, first in m)),
        Row("fig6.requests-small",
            "the increase in duplicates 'is quite small'",
            "largest mean requests <= 3.0",
            lambda r: [max(s["requests"]) for s in r.values()],
            lambda m: all(v <= 3.0 for v in m)),
        Row("fig6.one-request-at-c2-zero",
            "one request at C2 = 0 (deterministic suppression)",
            "mean requests == 1.0, per failure placement",
            lambda r: [s["requests"][0] for s in r.values()],
            lambda m: all(v == 1.0 for v in m), status="deviation"),
    ))

FIG7 = Experiment(
    "fig7", "Fig. 7",
    partial(run_c2_series, "figure7", hops_values=(1, 2, 3, 4)),
    reduced=dict(c2_values=(0, 2, 8, 20, 100), sims=10, num_nodes=85),
    full=dict(c2_values=C2_PAPER, sims=20, num_nodes=120), rows=(
        Row("fig7.peak-inside-sweep",
            "duplicates peak at an intermediate C2 (edge next to the source)",
            "peak requests > requests at largest C2",
            lambda r: (max(r[1]["requests"]), r[1]["requests"][-1]),
            lambda m: m[0] > m[1]),
        Row("fig7.adjacent-worst",
            "the failed edge closest to the source is the worst case",
            "peak at 1 hop >= peak at 4 hops",
            lambda r: (max(r[1]["requests"]), max(r[4]["requests"])),
            lambda m: m[0] >= m[1]),
    ))

FIG8 = Experiment(
    "fig8", "Fig. 8",
    partial(run_c2_series, "figure8", hops_values=(1, 2)),
    reduced=dict(c2_values=(0, 2, 8, 30, 100), sims=6, num_nodes=300,
                 session_size=40),
    full=dict(c2_values=C2_PAPER, sims=20, num_nodes=1000, session_size=100),
    rows=(
        Row("fig8.high-c2-not-worst",
            "increasing C2 never leaves duplicates above the peak",
            "requests at largest C2 <= peak (holds by construction)",
            lambda r: [(s["requests"][-1], max(s["requests"]))
                       for s in r.values()],
            lambda m: all(last <= peak for last, peak in m)),
        Row("fig8.delay-grows",
            "suppression is bought with delay that grows with C2",
            "delay at largest C2 > delay at C2 = 0",
            lambda r: [(s["delay"][-1], s["delay"][0]) for s in r.values()],
            lambda m: all(last > first for last, first in m)),
    ))

FIG12_13 = Experiment(
    "fig12-13", "Figs. 12-13", run_figure12_13,
    reduced=dict(runs=3, rounds=60), full=dict(runs=10, rounds=100), rows=(
        Row("fig12.early-duplicates",
            "fixed timers: several duplicate requests per round",
            "first-quarter mean > 3.0",
            lambda r: r["fixed_early"], lambda m: m > 3.0),
        Row("fig12.no-learning",
            "fixed timers never learn: duplicates stay high",
            "last-quarter mean > 3.0",
            lambda r: r["fixed_late"], lambda m: m > 3.0),
        Row("fig13.duplicates-halved",
            "adaptive timers cut duplicates by a large factor",
            "adaptive last quarter < fixed last quarter / 2",
            lambda r: (r["adaptive_late"], r["fixed_late"]),
            lambda m: m[0] < m[1] / 2),
        Row("fig13.duplicates-fall",
            "duplicates fall, 'reaching steady state after about forty "
            "iterations'",
            "adaptive last quarter < adaptive rounds 0-4",
            lambda r: (r["adaptive_late"], r["adaptive_early"]),
            lambda m: m[0] < m[1]),
        Row("fig13.delay-bounded",
            "delay stays in the band of the fixed-parameter run",
            "adaptive delay/RTT < 2 x fixed",
            lambda r: (r["adaptive_delay"], r["fixed_delay"]),
            lambda m: m[0] < 2.0 * m[1]),
        Row("fig13.delay-direction", "a small reduction in delay",
            "adaptive delay/RTT <= fixed",
            lambda r: (r["adaptive_delay"], r["fixed_delay"]),
            lambda m: m[0] <= m[1], status="deviation"),
    ))

FIG14 = Experiment(
    "fig14", "Fig. 14", run_figure14_pair,
    reduced=dict(sizes=(20, 60), sims=6, rounds=25),
    full=dict(sizes=(20, 40, 60, 80, 100), sims=20, rounds=40), rows=(
        Row("fig14.fewer-repairs-than-fixed",
            "adaptive timers control duplicates across the Fig. 4 sweep",
            "sum of mean repairs: adaptive < fixed",
            lambda r: (sum(r["adaptive"]), sum(r["fixed"])),
            lambda m: m[0] < m[1]),
        Row("fig14.repair-median",
            "repairs near one after the adaptation rounds", "median <= 3.0",
            lambda r: r["medians"], lambda m: all(v <= 3.0 for v in m)),
    ))

FIG15 = Experiment(
    "fig15", "Fig. 15", run_figure15_pair,
    reduced=dict(sizes=(50, 150, 250), sims=10, num_nodes=500),
    full=dict(sizes=(50, 100, 150, 200, 250), sims=20, num_nodes=1000),
    rows=(
        Row("fig15.two-step-fraction",
            "two-step repairs reach a small fraction of the session",
            "median fraction < 0.5",
            lambda r: [two for two, _ in r["fractions"]],
            lambda m: all(v < 0.5 for v in m)),
        Row("fig15.one-step-reaches-more",
            "one-step repairs reach at least as many members",
            "median fraction: one-step >= two-step",
            lambda r: r["fractions"],
            lambda m: all(one >= two for two, one in m)),
        Row("fig15.one-step-overreach",
            "one-step repairs are 'fairly inefficient'",
            "mean repair/loss neighborhood: one-step > 2 x two-step",
            lambda r: (r["one_ratio"], r["two_ratio"]),
            lambda m: m[0] > 2 * m[1]),
    ))

SEC2A = Experiment(
    "sec2a", "§II-A", run_baselines,
    reduced=dict(ack_groups=(10, 25, 50), tree_sizes=(50, 200, 400),
                 chain_length=40),
    full=dict(ack_groups=(10, 25, 50, 100), tree_sizes=(100, 500, 1000),
              chain_length=100),
    rows=(
        Row("sec2a.ack-implosion",
            "a sender-reliable scheme absorbs G-1 ACKs per packet",
            "ACKs == G - 1",
            lambda r: list(zip(r["acks"], r["groups"])),
            lambda m: all(acks == group - 1 for acks, group in m)),
        Row("sec2a.srm-control-flat",
            "SRM's control traffic per loss does not grow with G",
            "growth over the sweep: SRM < ACKs / 2",
            lambda r: (r["srm_control"][-1] / r["srm_control"][0],
                       r["acks"][-1] / r["acks"][0]),
            lambda m: m[0] < m[1] / 2),
        Row("sec2a.unicast-bandwidth",
            "N unicast connections waste bandwidth",
            "unicast/multicast link cost > 1.5 on the smallest tree",
            lambda r: r["bandwidth"][0], lambda m: m > 1.5),
        Row("sec2a.unicast-waste-grows", "the waste grows with the group",
            "cost ratio on the largest tree > on the smallest",
            lambda r: (r["bandwidth"][-1], r["bandwidth"][0]),
            lambda m: m[0] > m[1]),
        Row("sec2a.srm-sub-rtt", "SRM's farthest member beats one RTT",
            "delay/RTT < 1.0", lambda r: r["srm"], lambda m: m < 1.0),
        Row("sec2a.unicast-floor", "unicast recovery is floored at one RTT",
            "delay/RTT >= 1.0", lambda r: r["unicast"], lambda m: m >= 1.0),
        Row("sec2a.srm-beats-unicast",
            "SRM recovers faster than unicast on the same drop",
            "SRM delay/RTT < unicast",
            lambda r: (r["srm"], r["unicast"]), lambda m: m[0] < m[1]),
    ))

ABLATIONS = Experiment(
    "ablations", "ablation", run_ablations,
    reduced=dict(backoff_chain=50, backoff_rounds=20, star_size=30,
                 distance_chain=40, rounds=15),
    full=dict(backoff_chain=100, backoff_rounds=40, star_size=60,
              distance_chain=100, rounds=30),
    rows=(
        Row("ablation.backoff-x3",
            "backoff x3, not x2, avoids needless re-requests",
            "requests/loss: x3 <= x2",
            lambda r: r["backoff"], lambda m: m[0] <= m[1]),
        Row("ablation.holddown",
            "the 3d hold-down stops a second wave of repairs",
            "repairs/loss: without > 2 x with",
            lambda r: r["holddown"], lambda m: m[1] > 2 * m[0]),
        Row("ablation.distance-timers",
            "distance-dependent timers give chains their suppression",
            "requests/loss: C1 = 0 > C1 = 1",
            lambda r: r["distance"], lambda m: m[1] > m[0]),
        Row("ablation.ignore-backoff",
            "the ignore-backoff window never delays recovery",
            "last-member delay/RTT: on <= 1.5 x off",
            lambda r: r["ignore_backoff"], lambda m: m[0] <= m[1] * 1.5),
    ))

CONGESTION = Experiment(
    "congestion", "§III-E", _serial(run_congestion_pair),
    reduced=dict(burst=12), full=dict(burst=30), rows=(
        Row("congestion.burst-overflows",
            "a burst above the bottleneck rate overflows the queue",
            "data drops > 0",
            lambda r: r["unpaced"].data_queue_drops, lambda m: m > 0),
        Row("congestion.reliable-under-overload",
            "SRM recovers every tail-dropped packet", "is true",
            lambda r: r["unpaced"].all_recovered, lambda m: m),
        Row("congestion.pacing-prevents-loss",
            "a token bucket within the allocation loses nothing",
            "data drops == 0",
            lambda r: r["paced"].data_queue_drops, lambda m: m == 0),
        Row("congestion.pacing-no-requests",
            "no loss, so no recovery traffic", "requests == 0",
            lambda r: r["paced"].requests, lambda m: m == 0),
        Row("congestion.paced-complete",
            "the paced transfer delivers everything", "is true",
            lambda r: r["paced"].all_recovered, lambda m: m),
    ))

FEC = Experiment(
    "fec", "§VII-B", _serial(run_fec),
    reduced=dict(nodes=20, packets=24), full=dict(nodes=40, packets=60),
    rows=(
        Row("fec.both-complete",
            "plain and FEC transfers both deliver everything", "both true",
            lambda r: (r["plain"]["complete"], r["fec"]["complete"]),
            lambda m: m[0] and m[1]),
        Row("fec.plain-needs-requests",
            "without FEC every loss costs a recovery exchange",
            "requests > 0",
            lambda r: r["plain"]["requests"], lambda m: m > 0),
        Row("fec.reconstructs",
            "one XOR parity per 4 packets repairs losses locally",
            "reconstructions > 0",
            lambda r: r["fec"]["reconstructed"], lambda m: m > 0),
        Row("fec.quiets-recovery", "FEC absorbs most isolated losses",
            "requests + repairs: FEC < 0.7 x plain",
            lambda r: (r["fec"]["recovery"], r["plain"]["recovery"]),
            lambda m: m[0] < m[1] * 0.7),
    ))

ROBUSTNESS = Experiment(
    "robustness", "§V-B", _serial(partial(run_robustness, seed=55)),
    reduced=dict(rounds=5), full=dict(rounds=20), rows=(
        Row("robustness.all-recover",
            "no scenario family breaks loss recovery", "all true",
            lambda r: [case.all_recovered for case in r], lambda m: all(m)),
        Row("robustness.requests-bounded", "duplicate requests bounded",
            "mean requests < 12",
            lambda r: [case.mean_requests for case in r],
            lambda m: all(v < 12 for v in m)),
        Row("robustness.repairs-bounded", "duplicate repairs bounded",
            "mean repairs < 15",
            lambda r: [case.mean_repairs for case in r],
            lambda m: all(v < 15 for v in m)),
        Row("robustness.adjacent-fastest",
            "a drop next to the source recovers fastest",
            "median delay/RTT < 1.5",
            lambda r: next(case.median_delay for case in r
                           if case.name == ADJACENT),
            lambda m: m < 1.5),
    ))

EXPERIMENTS: Tuple[Experiment, ...] = (
    SEC4A, SEC4B, FIG3, FIG4, FIG5, FIG6, FIG7, FIG8, FIG12_13, FIG14, FIG15,
    SEC2A, ABLATIONS, CONGESTION, FEC, ROBUSTNESS)


# ----------------------------------------------------------------------
# Running and printing.
# ----------------------------------------------------------------------


def run_fidelity(runner: ExperimentRunner, full: bool = False,
                 log: TextIO = sys.stderr) -> List[Verdict]:
    """Run every experiment once; one :class:`Verdict` per row."""
    verdicts = []
    for experiment in EXPERIMENTS:
        scale = experiment.full if full else experiment.reduced
        started = time.perf_counter()
        result = experiment.run(runner=runner, **scale)
        print(f"{experiment.name}: {time.perf_counter() - started:.1f} s "
              f"{scale}", file=log)
        for row in experiment.rows:
            measured = row.measure(result)
            verdicts.append(Verdict(
                experiment.figure, row, measured,
                None if measured is None else bool(row.ok(measured))))
    return verdicts


def failed_claims(verdicts: List[Verdict]) -> List[str]:
    """Ids of the gating rows that do not hold (unmeasurable included)."""
    return [verdict.row.id for verdict in verdicts
            if verdict.row.status == "claim" and not verdict.ok]


def _show(value: Any) -> str:
    if value is None:
        return "n/a at this scale"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3g}"
    if isinstance(value, tuple):
        return " / ".join(_show(item) for item in value)
    if isinstance(value, list):
        return ", ".join(_show(item) for item in value)
    return str(value)


def format_table(verdicts: List[Verdict], full: bool = False) -> str:
    scale = "paper" if full else "reduced"
    lines = [f"SRM fidelity, {scale} scale: the paper's claims vs measured",
             "figure | claim | paper | measured | ok"]
    for verdict in verdicts:
        row = verdict.row
        ok = "n/a" if verdict.ok is None else "yes" if verdict.ok else "NO"
        if row.status == "deviation":
            ok += " (deviation)"
        lines.append(f"{verdict.figure} | {row.id} | {row.paper} "
                     f"[{row.tolerance}] | {_show(verdict.measured)} | {ok}")
    failed = failed_claims(verdicts)
    claims = sum(1 for verdict in verdicts if verdict.row.status == "claim")
    lines.append(f"{claims - len(failed)}/{claims} claims hold; "
                 f"{len(verdicts) - claims} known deviations reported")
    if failed:
        lines.append("FAILED: " + ", ".join(failed))
    return "\n".join(lines)
