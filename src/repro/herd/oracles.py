"""Protocol-oracle attachment for the herd engine.

The oracle suite (PR 3) validates trace streams against the paper's
invariants; it reads the network only for ``scheduler.now``, pairwise
distances, per-node shared-tree state and per-agent configs. The herd
has no :class:`Network`, so :class:`HerdNetworkFacade` provides exactly
that surface over the engine's :class:`TreeIndex` (a numpy read of the
source's :class:`~repro.net.routing.SourceTree`), and every member's
agent is the simulation itself, whose config all members share.

Only the engine-independent oracle subset attaches — the trace schema,
scheduler sanity and the request-timer interval/backoff/ignore-window
checker. The others (scope/TTL containment, hold-down, suppression,
delivery consistency) read per-packet delivery rows the herd's
aggregate delivery model deliberately does not emit; the differential
equivalence suite covers those properties by pinning herd rounds to
agent rounds, where the full suite runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.oracle.base import SessionOracleSuite
from repro.oracle.checkers import (RequestTimerOracle,
                                   SchedulerMonotonicityOracle,
                                   TraceSchemaOracle)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.herd.engine import HerdSimulation

#: Oracle classes that run against herd traces.
HERD_ORACLES = (TraceSchemaOracle, SchedulerMonotonicityOracle,
                RequestTimerOracle)


class HerdNetworkFacade:
    """The slice of the Network surface the oracle suite consumes."""

    __slots__ = ("trace", "scheduler", "nodes", "scope_zones",
                 "trace_deliveries", "_sim")

    def __init__(self, sim: "HerdSimulation") -> None:
        self._sim = sim
        self.trace = sim.trace
        self.scheduler = sim.scheduler
        #: No shared-tree node state: ``shared_node`` checks resolve to
        #: "not shared", which is correct for global-scope herd rounds.
        self.nodes: Dict[Any, Dict[str, Any]] = {}
        self.scope_zones: Dict[str, Any] = {}
        self.trace_deliveries = False

    def distance(self, a: int, b: int) -> float:
        return self._sim.node_distance(a, b)


def attach_herd_oracles(sim: "HerdSimulation",
                        oracles: Optional[tuple] = None
                        ) -> SessionOracleSuite:
    """Subscribe the engine-independent oracle subset to a herd trace."""
    # Every member's "agent" is the simulation: its config, which all
    # members share, is all the attached oracles read of one.
    return SessionOracleSuite.attach(
        HerdNetworkFacade(sim), agents=dict.fromkeys(sim.member_index, sim),
        oracles=list(oracles or HERD_ORACLES))
