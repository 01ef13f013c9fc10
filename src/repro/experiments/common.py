"""Shared machinery for the paper's loss-recovery experiments.

The methodology of Section V, verbatim: build a topology; randomly choose
G session members (a source among them); randomly choose a congested link
on the shortest-path tree from the source; drop the first packet from the
source on that link; the second packet (sent one unit later) triggers gap
detection; run the request/repair algorithms until every affected member
holds the data; count requests, repairs and per-member recovery delay in
units of each member's RTT to the source.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterator, List,
                    Optional, Sequence, Tuple)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runner import ExperimentRunner

from repro.core.agent import SrmAgent
from repro.core.config import SrmConfig
from repro.core.names import AduName
from repro.metrics.bundle import RunMetrics
from repro.metrics.collector import (SUBSCRIBED_KINDS, MetricsCollector,
                                     check_against_trace)
from repro.metrics.events import LossEventReport, mean, quantiles
from repro.net.link import NthPacketDropFilter
from repro.net.network import Network
from repro.net.packet import NodeId
from repro.oracle.base import check_mode_enabled
from repro.sim.rng import RandomSource
from repro.sim.scheduler import EventScheduler
from repro.topology.spec import TopologySpec

#: Safety horizon per round; recovery in these experiments completes in a
#: few hundred units at most, and the event queue drains naturally.
ROUND_EVENT_LIMIT = 5_000_000

DropEdge = Tuple[NodeId, NodeId]


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with the cyclic garbage collector off.

    A closed run owns no reference cycle (:meth:`Network.close`), so
    reference counting frees it and the collector would only rescan
    live objects. The collector's state is restored afterwards, also
    when the block raises; a caller that had it off keeps it off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass
class Scenario:
    """One fully-specified experiment scenario."""

    spec: TopologySpec
    members: List[NodeId]
    source: NodeId
    drop_edge: DropEdge

    @property
    def session_size(self) -> int:
        return len(self.members)


def candidate_drop_edges(network: Network, source: NodeId,
                         members: Sequence[NodeId]) -> List[DropEdge]:
    """Directed source-tree edges whose loss affects at least one member.

    These are the links "on the shortest-path tree from source to the
    members of the multicast group" where a drop produces a loss event.
    """
    tree = network.member_tree(source, members)
    member_set = set(members) - {source}
    needed = set()
    for member in sorted(member_set):
        for parent, child in tree.path_edges(member):
            needed.add((parent, child))
    return sorted(needed)


def choose_scenario(spec: TopologySpec, session_size: int,
                    rng: RandomSource,
                    adjacent_drop: bool = False,
                    network: Optional[Network] = None) -> Scenario:
    """Randomly draw members, source and congested link for a topology.

    ``adjacent_drop=True`` restricts the congested link to one adjacent to
    the source (the paper's alternative placement).
    """
    if session_size > spec.num_nodes:
        raise ValueError("session larger than the topology")
    members = sorted(rng.sample(range(spec.num_nodes), session_size))
    source = rng.choice(members)
    if network is None:
        network = spec.build()
    edges = candidate_drop_edges(network, source, members)
    if adjacent_drop:
        adjacent = [edge for edge in edges if edge[0] == source]
        if adjacent:
            edges = adjacent
    if not edges:
        raise ValueError("no candidate congested link (single-member session?)")
    drop_edge = rng.choice(edges)
    return Scenario(spec=spec, members=members, source=source,
                    drop_edge=drop_edge)


@dataclass
class RoundOutcome:
    """The per-round metrics every figure consumes."""

    report: LossEventReport
    name: AduName
    requests: int
    repairs: int
    duplicate_requests: int
    duplicate_repairs: int
    last_member_ratio: Optional[float]
    #: Request delay (in RTT units) of the affected member closest to the
    #: source; for ties, the smallest delay among members at that distance
    #: (Section VI's definition).
    closest_request_ratio: Optional[float]
    recovered: bool


class LossRecoverySimulation:
    """A persistent session running successive single-drop rounds.

    The same network, agents and (when adaptive) timer state carry across
    rounds — exactly the setup of Figs. 12-14, and a single round of it is
    the setup of Figs. 3-8.
    """

    def __init__(self, scenario: Scenario, config: Optional[SrmConfig] = None,
                 seed: int = 0, delivery: str = "direct",
                 scheduler: Optional[EventScheduler] = None) -> None:
        self.scenario = scenario
        self.config = config if config is not None else SrmConfig()
        self.master_rng = RandomSource(seed)
        self.network = scenario.spec.build(scheduler=scheduler,
                                           delivery=delivery)
        # Only the rows the collector reads are built and kept; the rest
        # are counted in kind_totals. Check mode's suite keeps every row.
        self.network.trace.keep = SUBSCRIBED_KINDS
        self.group = self.network.groups.allocate("session")
        self.agents: Dict[NodeId, SrmAgent] = {}
        for member in scenario.members:
            agent = SrmAgent(self.config,
                             self.master_rng.fork(f"member-{member}"))
            self.network.attach(member, agent)
            agent.join_group(self.group)
            self.agents[member] = agent
        self.source_agent = self.agents[scenario.source]
        self.rounds_run = 0
        self.collector = MetricsCollector(
            control_packet_size=self.config.control_packet_size
        ).attach(self.network.trace)
        #: RunMetrics bundle of the most recently completed round.
        self.last_round_metrics: Optional[RunMetrics] = None
        self.oracle = None
        if check_mode_enabled():
            from repro.oracle import SessionOracleSuite
            self.oracle = SessionOracleSuite.attach(self.network,
                                                    agents=self.agents)

    # ------------------------------------------------------------------

    def affected_members(self, drop_edge: Optional[DropEdge] = None
                         ) -> List[NodeId]:
        """Members below the congested link on the source's tree."""
        drop_edge = drop_edge if drop_edge is not None else \
            self.scenario.drop_edge
        below = self.network.source_tree(self.scenario.source).cut(*drop_edge)
        return sorted(member for member in self.scenario.members
                      if member in below)

    def run_round(self, drop_edge: Optional[DropEdge] = None,
                  trigger_gap: float = 1.0) -> RoundOutcome:
        """Drop one packet, run recovery to quiescence, return metrics."""
        scenario = self.scenario
        drop_edge = drop_edge if drop_edge is not None else scenario.drop_edge
        network = self.network
        network.trace.clear()
        self.collector.begin_round()
        network.clear_drop_filters()
        for agent in self.agents.values():
            agent.reset_recovery_state()
        if self.oracle is not None:
            self.oracle.reset()
        source = scenario.source
        drop_filter = NthPacketDropFilter(
            lambda packet: (packet.kind == "srm-data"
                            and packet.origin == source))
        network.add_drop_filter(drop_edge[0], drop_edge[1], drop_filter)

        sent: List[AduName] = []

        def send_dropped() -> None:
            sent.append(self.source_agent.send_data(
                f"round-{self.rounds_run}-payload"))

        def send_trigger() -> None:
            self.source_agent.send_data(f"round-{self.rounds_run}-trigger")

        scheduler = network.scheduler
        scheduler.schedule(0.0, send_dropped)
        scheduler.schedule(trigger_gap, send_trigger)
        scheduler.run(max_events=ROUND_EVENT_LIMIT)
        self.rounds_run += 1
        if self.oracle is not None:
            # Raises OracleViolationError with trace excerpts on any
            # invariant break observed this round.
            self.oracle.verify(context=f"round {self.rounds_run}")

        name = sent[0]
        collector = self.collector
        self.last_round_metrics = bundle = collector.snapshot(rounds=1)
        if self.oracle is not None:
            check_against_trace(
                network.trace, collector.reports(), bundle,
                self.config.control_packet_size,
                context=f"round {self.rounds_run}")
        return self._outcome(collector.report(name), name)

    def _outcome(self, report: LossEventReport,
                 name: AduName) -> RoundOutcome:
        recovered = all(self.agents[member].store.have(name)
                        for member in self.scenario.members)
        return RoundOutcome(
            report=report,
            name=name,
            requests=report.requests,
            repairs=report.repairs,
            duplicate_requests=report.duplicate_requests,
            duplicate_repairs=report.duplicate_repairs,
            last_member_ratio=report.last_member_recovery_ratio(),
            closest_request_ratio=self._closest_request_ratio(report),
            recovered=recovered)

    def _closest_request_ratio(self,
                               report: LossEventReport) -> Optional[float]:
        if not report.request_waits:
            return None
        # Pair distances from the rooted index: a tree topology builds
        # no full source tree to read a few of its entries.
        distance = self.network.distance
        source = self.scenario.source
        dist = {member: distance(source, member)
                for member in report.request_waits}
        closest_distance = min(dist.values())
        at_minimum = [timing for member, timing in
                      report.request_waits.items()
                      if dist[member] == closest_distance]
        return min(timing.ratio for timing in at_minimum)

    def close(self) -> None:
        """Free the finished session at once (:meth:`Network.close`).

        The collector and, in check mode, the oracle suite leave the
        trace too: both listen to it and hold it. Idempotent.
        """
        self.collector.detach()
        if self.oracle is not None:
            self.oracle.detach()
        self.network.close()


@dataclass
class ExperimentSpec:
    """One declarative unit of experiment work: what to run, fully.

    This is the single currency every figure trades in: a scenario
    (topology + membership + congested link), an :class:`SrmConfig`, a
    round count, a seed and a delivery engine. A spec is pure picklable
    data — it travels to runner workers, fingerprints into the result
    cache, and executes anywhere via :func:`run_experiment`.

    ``kind="recovery"`` (the default) runs the loss-recovery simulation;
    ``kind="scoped"`` evaluates the analytic TTL-scoped recovery of
    Fig. 15 (``scoped_mode`` chooses one-step vs two-step repairs), which
    has no simulated rounds and therefore no metrics bundle.
    """

    scenario: Scenario
    config: Optional[SrmConfig] = None
    rounds: int = 1
    seed: int = 0
    engine: str = "direct"
    experiment: str = ""
    kind: str = "recovery"       # "recovery" | "scoped"
    scoped_mode: Optional[str] = None
    trigger_gap: float = 1.0

    # -- spec/v3 wire contract (see repro.fleet.wire) ------------------
    # The frozen, versioned JSON encoding used by every fleet HTTP
    # payload and by the runner's cache-key fingerprint
    # (repro.runner.task.canonical encodes a spec as its to_wire()).

    def to_wire(self) -> Dict[str, Any]:
        from repro.fleet.wire import spec_to_wire

        return spec_to_wire(self)

    def to_json(self) -> str:
        from repro.fleet.wire import spec_to_json

        return spec_to_json(self)

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "ExperimentSpec":
        from repro.fleet.wire import spec_from_wire

        return spec_from_wire(payload)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        from repro.fleet.wire import spec_from_json

        return spec_from_json(text)


@dataclass
class RunResult:
    """What one executed :class:`ExperimentSpec` produced.

    ``outcomes`` holds every round's :class:`RoundOutcome` in order;
    ``metrics`` is the merged :class:`~repro.metrics.bundle.RunMetrics`
    over those rounds (None for analytic kinds); ``artifacts`` carries
    anything kind-specific (the scoped-recovery evaluation, for one).
    """

    spec: ExperimentSpec
    outcomes: List[RoundOutcome] = field(default_factory=list)
    metrics: Optional[RunMetrics] = None
    artifacts: Dict[str, Any] = field(default_factory=dict)

    @property
    def outcome(self) -> RoundOutcome:
        """The final round (the only round, for the one-shot figures)."""
        return self.outcomes[-1]

    # -- spec/v3 wire contract (see repro.fleet.wire) ------------------

    def to_wire(self) -> Dict[str, Any]:
        from repro.fleet.wire import result_to_wire

        return result_to_wire(self)

    def to_json(self) -> str:
        from repro.fleet.wire import result_to_json

        return result_to_json(self)

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "RunResult":
        from repro.fleet.wire import result_from_wire

        return result_from_wire(payload)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        from repro.fleet.wire import result_from_json

        return result_from_json(text)


def run_experiment(spec: ExperimentSpec) -> RunResult:
    """Execute one spec: the sole entry point every figure runs through."""
    if spec.kind == "scoped":
        return _run_scoped(spec)
    if spec.kind != "recovery":
        raise ValueError(f"unknown experiment kind {spec.kind!r}")
    if spec.engine == "herd":
        # The vectorized mega-session engine; duck-types the agent
        # simulation (same run_round/last_round_metrics/config surface).
        # Imported lazily: repro.herd imports this module.
        from repro.herd import HerdSimulation
        return _run_rounds(spec, HerdSimulation(
            spec.scenario, config=spec.config, seed=spec.seed))
    with collector_paused():
        simulation = LossRecoverySimulation(
            spec.scenario, config=spec.config, seed=spec.seed,
            delivery=spec.engine)
        try:
            return _run_rounds(spec, simulation)
        finally:
            simulation.close()


def _run_rounds(spec: ExperimentSpec, simulation: Any) -> RunResult:
    outcomes: List[RoundOutcome] = []
    bundles: List[Optional[RunMetrics]] = []
    for _ in range(spec.rounds):
        outcomes.append(simulation.run_round(trigger_gap=spec.trigger_gap))
        bundles.append(simulation.last_round_metrics)
    metrics = RunMetrics.merged(bundles, experiment=spec.experiment)
    metrics.meta.update({
        "seed": spec.seed,
        "engine": spec.engine,
        "session_size": spec.scenario.session_size,
        "adaptive": simulation.config.adaptive,
    })
    return RunResult(spec=spec, outcomes=outcomes, metrics=metrics)


def _run_scoped(spec: ExperimentSpec) -> RunResult:
    from repro.core.local import ideal_scoped_recovery

    scenario = spec.scenario
    network = scenario.spec.build()
    evaluation = ideal_scoped_recovery(
        network, scenario.source, scenario.drop_edge[0],
        scenario.drop_edge[1], scenario.members,
        mode=spec.scoped_mode or "two-step")
    return RunResult(spec=spec, artifacts={"scoped": evaluation})


def run_single_round(scenario: Scenario, config: Optional[SrmConfig] = None,
                     seed: int = 0) -> RoundOutcome:
    """Convenience for the one-round figures (3-8)."""
    return run_experiment(ExperimentSpec(
        scenario=scenario, config=config, seed=seed)).outcome


def run_rounds(scenario: Scenario, config: Optional[SrmConfig] = None,
               rounds: int = 20, seed: int = 0) -> List[RoundOutcome]:
    """Repeated independent rounds on one persistent session.

    With fixed (non-adaptive) timer parameters, successive rounds differ
    only in their random timer draws, so N rounds on one session are
    statistically equivalent to N one-round simulations — but reuse the
    topology, routing caches and agents, which is much faster.
    """
    return run_experiment(ExperimentSpec(
        scenario=scenario, config=config, rounds=rounds, seed=seed)).outcomes


@dataclass
class SeriesPoint:
    """One x-axis point aggregated over many simulations."""

    x: float
    values: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, metric: str, value: Optional[float]) -> None:
        if value is None:
            return
        self.values.setdefault(metric, []).append(value)

    def series(self, metric: str) -> List[float]:
        return self.values.get(metric, [])


def format_quartile_table(points: List[SeriesPoint], metric: str,
                          x_label: str, title: str) -> str:
    """Render one median/quartile series the way the paper plots it."""
    lines = [title, f"{x_label:>10}  {'q1':>8} {'median':>8} {'q3':>8} "
                    f"{'mean':>8}  n"]
    for point in points:
        values = point.series(metric)
        if not values:
            continue
        q1, median, q3 = quantiles(values)
        mean_value = sum(values) / len(values)
        lines.append(f"{point.x:>10.3g}  {q1:>8.3f} {median:>8.3f} "
                     f"{q3:>8.3f} {mean_value:>8.3f}  {len(values)}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Sweeps, and the table shapes their results fold into. (Here, not in a
# module of their own: importing one figure loads nothing but this file.)
# ----------------------------------------------------------------------


def run_sweep(experiment: str, specs: Sequence[ExperimentSpec],
              runner: Optional["ExperimentRunner"] = None
              ) -> Tuple[List[RunResult], Optional[RunMetrics]]:
    """Execute ``specs`` on the runner (default: in-process serial).

    Results come back in spec order, never completion order, together
    with their merged metrics bundle — None when no result carries one
    (the analytic kinds).
    """
    from repro.runner import ExperimentRunner

    runner = runner if runner is not None else ExperimentRunner()
    results = runner.map(experiment, run_experiment,
                         [dict(spec=spec) for spec in specs])
    bundles = [result.metrics for result in results
               if result.metrics is not None]
    metrics = RunMetrics.merged(bundles, experiment=experiment) \
        if bundles else None
    return results, metrics


@dataclass
class QuartilePanels:
    """Median/quartile panels against session size (Figs. 3, 4, 14, 15)."""

    points: List[SeriesPoint]
    #: (metric, title) of each panel, in print order.
    panels: Sequence[Tuple[str, str]]
    metrics: Optional[RunMetrics] = None

    def format_table(self) -> str:
        return "\n\n".join(
            format_quartile_table(self.points, metric, "session", title)
            for metric, title in self.panels)


def recovery_panels(figure: str) -> Sequence[Tuple[str, str]]:
    """The three panels of the fixed-timer size sweeps (Figs. 3 and 4)."""
    return (("requests", f"{figure}a: number of requests"),
            ("repairs", f"{figure}b: number of repairs"),
            ("delay_ratio", f"{figure}c: last-member recovery delay "
                            f"(units of its RTT to the source)"))


def recovery_panel_values(result: RunResult) -> Dict[str, Optional[float]]:
    """What Figs. 3, 4 and 14 plot of a run: its final round."""
    outcome = result.outcome
    return {"requests": outcome.requests, "repairs": outcome.repairs,
            "delay_ratio": outcome.last_member_ratio}


def run_size_sweep(experiment: str, sizes: Sequence[int],
                   sweep: Sequence[Tuple[int, ExperimentSpec]],
                   panels: Sequence[Tuple[str, str]],
                   runner: Optional["ExperimentRunner"] = None,
                   values: Callable[[RunResult], Dict[str, Optional[float]]]
                   = recovery_panel_values) -> QuartilePanels:
    """Run ``sweep`` — (session size, spec) pairs in submit order — and
    fold ``values(result)`` into one point per session size."""
    results, metrics = run_sweep(experiment, [spec for _, spec in sweep],
                                 runner)
    points = {size: SeriesPoint(x=size) for size in sizes}
    for (size, _), result in zip(sweep, results):
        for metric, value in values(result).items():
            points[size].add(metric, value)
    return QuartilePanels(points=[points[size] for size in sizes],
                          panels=panels, metrics=metrics)


@dataclass
class TradeoffSeries:
    """Delay against duplicates as C2 grows, one series per placement of
    the failed edge (Figs. 6, 7, 8)."""

    title: str
    #: hops from the source to the failed edge -> per-C2 SeriesPoints.
    series: Dict[int, List[SeriesPoint]]
    metrics: Optional[RunMetrics] = None

    def format_table(self) -> str:
        lines = [self.title]
        for hops, points in sorted(self.series.items()):
            lines.append(f"-- failed edge {hops} hop(s) from the source --")
            lines.append(f"{'C2':>6} {'delay/RTT':>10} {'requests':>9}")
            for point in points:
                lines.append(f"{point.x:>6.0f} "
                             f"{mean(point.series('delay')):>10.3f} "
                             f"{mean(point.series('requests')):>9.2f}")
        return "\n".join(lines)

    def mean_requests(self, hops: int) -> List[float]:
        return [mean(point.series("requests"))
                for point in self.series[hops]]


def run_c2_sweep(experiment: str, scenarios: Dict[int, Scenario],
                 c2_values: Sequence[float], c1: float, sims: int,
                 task_seed: Callable[[int, float], int],
                 runner: Optional["ExperimentRunner"] = None
                 ) -> Tuple[Dict[int, List[SeriesPoint]],
                            Optional[RunMetrics]]:
    """One ``sims``-round run per (failed-edge placement, C2) point.

    ``scenarios`` maps hops-from-the-source to the scenario with the
    edge there; ``task_seed(hops, c2)`` is the figure's seed formula.
    Each point collects, per round, the request count and the request
    delay of the closest affected member (Section VI's two axes).
    """
    sweep = [(hops, c2, ExperimentSpec(
        scenario=scenario, config=SrmConfig(c1=c1, c2=float(c2)),
        rounds=sims, seed=task_seed(hops, c2), experiment=experiment))
        for hops, scenario in scenarios.items() for c2 in c2_values]
    results, metrics = run_sweep(experiment,
                                 [spec for _, _, spec in sweep], runner)
    series: Dict[int, List[SeriesPoint]] = {hops: [] for hops in scenarios}
    for (hops, c2, _), result in zip(sweep, results):
        point = SeriesPoint(x=c2)
        for outcome in result.outcomes:
            point.add("requests", outcome.requests)
            point.add("delay", outcome.closest_request_ratio)
        series[hops].append(point)
    return series, metrics
