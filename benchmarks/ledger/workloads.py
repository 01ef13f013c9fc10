"""The four ledger workloads (imported by the child interpreter only).

Each workload is built from a seed and an op count ``M`` and exposes

* ``op(i)`` -- the timed call: one experiment through a public entry
  point of the agent engine, returning whatever that entry point returns;
* ``settle(i, raw)`` -- untimed: turns the raw result into the op's
  *outcome tuple* (simulated statistics only, identical in every pass),
  checks the recovery invariants and does any cleanup the op leaves
  behind. Returns ``(outcome, stats, failure)`` where ``failure`` is
  ``None`` or a one-line reason.

Ops ``0 .. M-1`` are the measured ones; index ``M`` is one more generated
input of the same kind, used as the warm-up op. The seed changes
scenarios and timer draws, never the op mix (sizes, topology families,
the even/odd alternation), so two seeds cost about the same.

Why these four (see README.md for the measured shares):

``session_fanin``     session messages on, routing warm -- the O(N^2)
                      fan-in ROADMAP item 2 targets.
``recovery_sweep``    a fresh scenario per op, session messages off --
                      what ``repro figure3..8`` execute; routing cold.
``suppression_star``  199 members arm and cancel timers at once -- the
                      agent / trace / metrics path.
``hop_congestion``    hop-by-hop through a queueing bottleneck -- one
                      event per hop, no delivery plans at all.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import SrmConfig
from repro.experiments.common import (ExperimentSpec, LossRecoverySimulation,
                                      Scenario, choose_scenario,
                                      run_experiment)
from repro.experiments.congestion import run_congestion_experiment
from repro.experiments.figure4 import figure4_scenarios
from repro.experiments.figure5 import star_scenario
from repro.metrics.events import analyze_loss_event
from repro.net.link import NthPacketDropFilter
from repro.sim.rng import RandomSource
from repro.topology.random_tree import random_labeled_tree

#: Simulated statistics every workload reports per op, in this order
#: (they feed the ``core.agent.*`` and ``net.link.*`` layer metrics).
STAT_KEYS = ("requests", "repairs", "duplicates", "queue_drops")

Settled = Tuple[tuple, Dict[str, int], Optional[str]]


def _recovery_failure(recovered: bool, requests: int, repairs: int,
                      dropped: bool) -> Optional[str]:
    """The recovery invariants shared by all workloads."""
    if not recovered:
        return "a member does not hold the dropped ADU"
    if dropped and (requests < 1 or repairs < 1):
        return f"drop without recovery traffic ({requests} req, {repairs} rep)"
    return None


def _round_settled(outcome: Any) -> Settled:
    """Outcome tuple + invariants of one ``RoundOutcome``."""
    report = outcome.report
    fired = report.losses_detected >= 1
    failure = (None if fired else "the armed drop filter never fired") \
        or _recovery_failure(outcome.recovered, outcome.requests,
                             outcome.repairs, dropped=True)
    tup = (outcome.requests, outcome.repairs, outcome.duplicate_requests,
           outcome.duplicate_repairs, report.losses_detected,
           repr(outcome.last_member_ratio),
           repr(outcome.closest_request_ratio), outcome.recovered)
    stats = {"requests": outcome.requests, "repairs": outcome.repairs,
             "duplicates": (outcome.duplicate_requests
                            + outcome.duplicate_repairs),
             "queue_drops": 0}
    return tup, stats, failure


class SessionFanin:
    """60 sim-seconds of a 100-member session with session messages on."""

    name = "session_fanin"
    nodes = 100
    period = 60.0
    #: The tree is the one ``bench_kernel.session_random_tree`` uses, not a
    #: draw from ``--seed``: how many receivers share a distance decides
    #: how far deliveries batch, and across ten seed-drawn trees that
    #: alone moved the exact call count by 13% (quartile distance 6%),
    #: more than any bound this benchmark could then keep. The seed still
    #: drives every member's timer and session-jitter stream.
    tree_seed = 4

    def __init__(self, seed: int, ops: int) -> None:
        self.ops = ops
        rng = RandomSource(seed).fork("session_fanin")
        spec = random_labeled_tree(self.nodes, RandomSource(self.tree_seed))
        members = list(range(self.nodes))
        source = members[0]
        config = SrmConfig(session_enabled=True, session_min_interval=5.0,
                           distance_oracle=True)
        self.simulation = LossRecoverySimulation(
            Scenario(spec=spec, members=members, source=source,
                     drop_edge=(source, 0)),
            config=config, seed=rng.randint(0, 0xFFFF))
        network = self.simulation.network
        self.source = source
        self.child = max(network.source_tree(source).children[source])

    def op(self, i: int) -> Any:
        simulation = self.simulation
        network = simulation.network
        source = self.source
        agent = simulation.source_agent
        drop_filter = NthPacketDropFilter(
            lambda packet: (packet.kind == "srm-data"
                            and packet.origin == source))
        network.clear_drop_filters()
        network.add_drop_filter(source, self.child, drop_filter)
        sent: list = []
        scheduler = network.scheduler
        before = scheduler.events_processed
        scheduler.schedule(
            0.0, lambda: sent.append(agent.send_data(f"round-{i}-payload")))
        scheduler.schedule(1.0, agent.send_data, f"round-{i}-trigger")
        network.run(until=scheduler.now + self.period)
        return drop_filter, sent, scheduler.events_processed - before

    def settle(self, i: int, raw: Any) -> Settled:
        drop_filter, sent, events = raw
        simulation = self.simulation
        trace = simulation.network.trace
        name = sent[0]
        report = analyze_loss_event(trace, name)
        recovered = all(agent.store.have(name)
                        for agent in simulation.agents.values())
        failure = ("the armed drop filter never fired"
                   if drop_filter.armed else None) \
            or _recovery_failure(recovered, report.requests, report.repairs,
                                 dropped=True)
        tup = (report.requests, report.repairs, report.duplicate_requests,
               report.duplicate_repairs, report.losses_detected,
               repr(report.last_member_recovery_ratio()), events,
               trace.count("send_session"), recovered)
        stats = {"requests": report.requests, "repairs": report.repairs,
                 "duplicates": (report.duplicate_requests
                                + report.duplicate_repairs),
                 "queue_drops": 0}
        trace.clear()
        simulation.collector.begin_round()
        return tup, stats, failure


class RecoverySweep:
    """One fresh-scenario recovery round per op (Fig. 3 / Fig. 4 shapes)."""

    name = "recovery_sweep"
    dense_nodes = 100
    sparse_members = 40

    def __init__(self, seed: int, ops: int) -> None:
        self.ops = ops
        master = RandomSource(seed).fork("recovery_sweep")
        total = ops + 1  # + the warm-up input
        dense = (total + 1) // 2
        sparse = figure4_scenarios(sizes=(self.sparse_members,),
                                   sims=total - dense,
                                   seed=master.randint(0, 0xFFFF))
        config = SrmConfig()
        self.specs: List[ExperimentSpec] = []
        for index in range(total):
            if index % 2 == 0:
                rng = master.fork(f"dense-{index}")
                spec = random_labeled_tree(self.dense_nodes, rng)
                scenario = choose_scenario(
                    spec, session_size=self.dense_nodes, rng=rng)
            else:
                scenario = sparse[index // 2]
            self.specs.append(ExperimentSpec(
                scenario=scenario, config=config,
                seed=master.randint(0, 0xFFFF), experiment="ledger"))

    def op(self, i: int) -> Any:
        return run_experiment(self.specs[i])

    def settle(self, i: int, raw: Any) -> Settled:
        return _round_settled(raw.outcome)


class SuppressionStar:
    """Successive rounds on a persistent 200-leaf star (Figs. 5/12-14)."""

    name = "suppression_star"
    leaves = 200

    def __init__(self, seed: int, ops: int) -> None:
        self.ops = ops
        rng = RandomSource(seed).fork("suppression_star")
        self.simulation = LossRecoverySimulation(
            star_scenario(self.leaves), config=SrmConfig(c1=2.0, c2=20.0),
            seed=rng.randint(0, 0xFFFF))

    def op(self, i: int) -> Any:
        return self.simulation.run_round()

    def settle(self, i: int, raw: Any) -> Settled:
        return _round_settled(raw)


class HopCongestion:
    """A 60-packet burst through a 5-packet queue on a 20-node chain."""

    name = "hop_congestion"

    def __init__(self, seed: int, ops: int) -> None:
        self.ops = ops
        rng = RandomSource(seed).fork("hop_congestion")
        self.seeds = [rng.randint(0, 0xFFFF) for _ in range(ops + 1)]

    def op(self, i: int) -> Any:
        return run_congestion_experiment(
            burst=60, chain_length=20, queue_limit=5,
            rate_limit=None if i % 2 == 0 else 400.0, seed=self.seeds[i])

    def settle(self, i: int, raw: Any) -> Settled:
        dropped = raw.data_queue_drops > 0
        failure = _recovery_failure(raw.all_recovered, raw.requests,
                                    raw.repairs, dropped)
        # Each tail-dropped data packet needs one request and one repair;
        # anything beyond that is duplicate recovery traffic.
        duplicates = (max(0, raw.requests - raw.data_queue_drops)
                      + max(0, raw.repairs - raw.data_queue_drops))
        tup = astuple(raw)
        tup = tup[:-1] + (repr(tup[-1]),)  # finish_time: exact float text
        stats = {"requests": raw.requests, "repairs": raw.repairs,
                 "duplicates": duplicates, "queue_drops": raw.queue_drops}
        return tup, stats, failure


#: Names are fixed; later issues cite them. Sizes live in run.py.
WORKLOADS = {cls.name: cls for cls in (
    SessionFanin, RecoverySweep, SuppressionStar, HopCongestion)}
