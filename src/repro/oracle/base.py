"""Oracle infrastructure: violations, reports, and the session suite.

An :class:`Oracle` is a stateful checker that watches a live run through
the :class:`repro.sim.trace.Trace` stream and records
:class:`Violation` rows when the protocol breaks one of the paper's
behavioral invariants. :class:`SessionOracleSuite` bundles the checkers,
subscribes them to a network's trace, and renders a structured
:class:`ViolationReport` with trace excerpts.

The checkers validate *behavior against the spec*, never against the
implementation's own bookkeeping: e.g. the hold-down oracle recomputes
the 3·d window from the config and true distances rather than trusting
the agent's ``_holddown`` table, so an agent that silently stops
enforcing the window is caught, not believed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.sim.trace import KINDS, Trace, TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network

#: Numerical slack for boundary comparisons (timer draws land exactly on
#: interval endpoints; float arithmetic must not turn that into noise).
EPSILON = 1e-9


def check_mode_enabled() -> bool:
    """True when ``--check`` / ``SRM_CHECK=1`` turned on online checking.

    An environment variable rather than a module flag so runner worker
    processes inherit the mode; the typed accessor lives in
    :mod:`repro.env` with the rest of the knob registry.
    """
    from repro import env

    return env.check_enabled()


@dataclass
class Violation:
    """One observed invariant break."""

    oracle: str            # checker name, e.g. "repair-holddown"
    time: float
    node: Any
    message: str
    name: Optional[str] = None   # ADU name (stringified), when relevant
    excerpt: List[str] = field(default_factory=list)

    def format(self) -> str:
        head = (f"[{self.oracle}] t={self.time:.4f} node={self.node}"
                + (f" name={self.name}" if self.name else "")
                + f": {self.message}")
        if not self.excerpt:
            return head
        body = "\n".join(f"    | {line}" for line in self.excerpt)
        return f"{head}\n  trace excerpt:\n{body}"

    def to_dict(self) -> Dict[str, Any]:
        """A picklable / JSON-able rendering (runner workers return these)."""
        return {"oracle": self.oracle, "time": self.time,
                "node": self.node if isinstance(self.node, (int, str))
                else str(self.node),
                "message": self.message, "name": self.name,
                "excerpt": list(self.excerpt)}


@dataclass
class ViolationReport:
    """All violations from one run, ready for printing."""

    violations: List[Violation]
    context: str = ""

    def __bool__(self) -> bool:
        return bool(self.violations)

    def format(self) -> str:
        if not self.violations:
            return f"oracle: no violations{self._suffix()}"
        lines = [f"oracle: {len(self.violations)} violation(s)"
                 f"{self._suffix()}"]
        lines.extend(violation.format() for violation in self.violations)
        return "\n".join(lines)

    def _suffix(self) -> str:
        return f" ({self.context})" if self.context else ""


class OracleViolationError(AssertionError):
    """Raised by check mode when a run breaks a protocol invariant."""

    def __init__(self, report: ViolationReport) -> None:
        super().__init__(report.format())
        self.report = report


def _masked(row: TraceRecord) -> str:
    """``str(row)`` with its kind's volatile detail keys starred.

    The keys :func:`repro.lint.races.canonical_stream` masks (packet
    uids come from a process-wide counter), so a report reads the same
    on every run, whatever else the process ran first.
    """
    spec = KINDS.get(row.kind)
    volatile = spec.volatile if spec is not None else frozenset()
    return str(TraceRecord(row.time, row.node, row.kind, {
        key: "*" if key in volatile else value
        for key, value in row.detail.items()}))


class Oracle:
    """Base class: consume trace records, accumulate violations."""

    name = "oracle"

    def __init__(self, suite: "SessionOracleSuite") -> None:
        self.suite = suite
        self.violations: List[Violation] = []

    def on_record(self, record: TraceRecord) -> None:
        """Called for every trace record, in emission order."""

    def finish(self) -> None:
        """End-of-run checks (quiescence reached)."""

    def reset(self) -> None:
        """Forget accumulated state and violations (new round/run).

        Subclasses with per-run state override and call ``super()``.
        """
        self.violations.clear()

    def violate(self, record_time: float, node: Any, message: str,
                name: Any = None, excerpt_window: float = 6.0) -> None:
        excerpt = []
        trace = self.suite.trace
        if trace is not None:
            name_str = str(name) if name is not None else None

            def relevant(row: TraceRecord) -> bool:
                detail_name = row.detail.get("name")
                if name_str is None or detail_name is None:
                    return True
                return str(detail_name) == name_str

            excerpt = [_masked(row) for row in
                       trace.excerpt(record_time, window=excerpt_window,
                                     predicate=relevant)]
        self.violations.append(Violation(
            oracle=self.name, time=record_time, node=node, message=message,
            name=str(name) if name is not None else None, excerpt=excerpt))


class SessionOracleSuite:
    """All checkers wired to one network's trace stream.

    ``agents`` (node id -> SrmAgent) enables the checks that need
    protocol state: eventual delivery, consistency, and config-derived
    timer windows. Without it the suite runs in *passive* mode — every
    trace-only invariant is still checked, configs are discovered lazily
    from the agents attached to the network's nodes.
    """

    def __init__(self, network: "Network",
                 agents: Optional[Dict[Any, Any]] = None,
                 assert_delivery_members: Optional[List[Any]] = None,
                 oracles: Optional[List[type]] = None) -> None:
        from repro.oracle.checkers import default_oracles, passive_oracles

        self.network = network
        self.trace: Trace = network.trace
        self.agents = agents
        self.assert_delivery_members = assert_delivery_members
        classes = oracles if oracles is not None else (
            default_oracles() if agents is not None else passive_oracles())
        self.oracles: List[Oracle] = [cls(self) for cls in classes]
        self._attached = False
        self._shared_nodes: set = set()

    # ------------------------------------------------------------------

    @classmethod
    def attach(cls, network: "Network",
               agents: Optional[Dict[Any, Any]] = None,
               assert_delivery_members: Optional[List[Any]] = None,
               enable_trace: bool = True,
               oracles: Optional[List[type]] = None) -> "SessionOracleSuite":
        """Create a suite, subscribe it, and turn on delivery tracing.

        ``enable_trace`` makes the trace keep every row, so the suite
        hears them all and excerpts and the metrics gate read them.
        Without it the suite is passive: it makes no kind wanted, and
        checks the rows the trace builds anyway while it keeps them all.
        """
        suite = cls(network, agents=agents,
                    assert_delivery_members=assert_delivery_members,
                    oracles=oracles)
        if enable_trace:
            network.trace.keep = None
        network.trace_deliveries = True
        network.trace.subscribe(suite._on_record)
        suite._attached = True
        return suite

    def detach(self) -> None:
        """Unsubscribe, and cut every checker's ``suite`` back-pointer.

        Suite and checkers are then no reference cycle holding the
        checked run, so it is freed without the cyclic collector.
        Violations already found stay readable; the checkers cannot run
        again. Idempotent.
        """
        if self._attached:
            self.trace.unsubscribe(self._on_record)
            self._attached = False
            for oracle in self.oracles:
                oracle.suite = None  # type: ignore[assignment]

    # ------------------------------------------------------------------

    def _on_record(self, record: TraceRecord) -> None:
        # The checkers reason across kinds (a repair needs its scheduled
        # timer), so a stream without the kinds nobody wanted would read
        # as violations: only a trace that keeps every row is checked.
        if self.trace.keep is not None:
            return
        for oracle in self.oracles:
            oracle.on_record(record)

    def agent_for(self, node: Any) -> Optional[Any]:
        """The SrmAgent at ``node``, or None (lazy passive-mode lookup)."""
        if self.agents is not None:
            agent = self.agents.get(node)
            if agent is not None:
                return agent
        net_node = self.network.nodes.get(node)
        if net_node is None:
            return None
        for agent in net_node.agents:
            if hasattr(agent, "config") and hasattr(agent, "distances"):
                return agent
        return None

    def config_for(self, node: Any) -> Optional[Any]:
        agent = self.agent_for(node)
        return None if agent is None else agent.config

    def shared_node(self, node: Any) -> bool:
        """True when several SRM sessions co-reside on one node.

        Layered-multicast setups attach one agent per layer to the same
        node, and the layers' ADU names collide (same source id, page
        and sequence numbers). Per-(node, name) state then interleaves
        across sessions, so the stateful oracles skip such nodes. The
        answer is sticky: once a node has hosted two sessions, records
        from it stay ambiguous even after one leaves.
        """
        if node in self._shared_nodes:
            return True
        net_node = self.network.nodes.get(node)
        if net_node is None:
            return False
        count = 0
        for agent in net_node.agents:
            if hasattr(agent, "config") and hasattr(agent, "distances"):
                count += 1
        if count > 1:
            self._shared_nodes.add(node)
            return True
        return False

    def distance(self, a: Any, b: Any) -> Optional[float]:
        """True one-way delay between nodes, or None when unroutable."""
        try:
            return self.network.distance(a, b)
        except KeyError:
            return None

    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Start a fresh round: clear all checker state and violations.

        Experiment rounds clear the trace and reset agent recovery state;
        the checkers must forget along with them.
        """
        for oracle in self.oracles:
            oracle.reset()

    @property
    def violations(self) -> List[Violation]:
        rows: List[Violation] = []
        for oracle in self.oracles:
            rows.extend(oracle.violations)
        rows.sort(key=lambda violation: (violation.time, violation.oracle))
        return rows

    def report(self, context: str = "") -> ViolationReport:
        return ViolationReport(self.violations, context=context)

    def verify(self, context: str = "",
               raise_on_violation: bool = True) -> ViolationReport:
        """Run end-of-run checks and collect everything found so far.

        Safe to call repeatedly (e.g. once per experiment round): finish
        checks are recomputed against current state, not accumulated
        twice.
        """
        for oracle in self.oracles:
            oracle.finish()
        report = self.report(context=context)
        if raise_on_violation and report:
            raise OracleViolationError(report)
        return report
