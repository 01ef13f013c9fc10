"""Streaming metrics collection from the trace stream.

:class:`MetricsCollector` subscribes to a :class:`repro.sim.trace.Trace`
— the same hook the protocol oracles use — and aggregates the run online
into per-loss-event counters, RTT-ratio histograms, timer activity and
control-bandwidth tallies, folding in the :mod:`repro.sim.perf` kernel
counter deltas at snapshot time. No full-trace rescan: a figure sweep
gets its :class:`~repro.metrics.bundle.RunMetrics` for the price of a
dict update per observed record.

The collector must agree with the offline passes in
:mod:`repro.metrics.events` record-for-record; :meth:`verify` recomputes
everything from the recorded trace and raises
:class:`MetricsConsistencyError` on any disagreement. Check mode
(``--check`` / ``SRM_CHECK=1``) runs that comparison after every round.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.metrics.bundle import RunMetrics
from repro.metrics.events import analyze_loss_event
from repro.sim.trace import Trace, TraceRecord

#: Kinds that feed the per-loss-event aggregation.
EVENT_KINDS = frozenset({
    "send_request", "send_repair", "send_repair_second_step",
    "loss_detected", "data_recovered", "first_request_event",
})

#: Kinds counted as protocol timer activity (sets, fires, backoffs,
#: suppressions, hold-downs).
TIMER_KINDS = frozenset({
    "request_timer_set", "send_request", "request_backoff",
    "request_abandoned", "request_dup_ignored",
    "request_ignored_holddown", "request_while_repair_pending",
    "repair_scheduled", "send_repair", "repair_cancelled",
    "dup_request_observed", "dup_repair_observed",
})

#: Kinds that put a control packet on the wire.
CONTROL_KINDS = frozenset({
    "send_request", "send_repair", "send_repair_second_step",
    "send_page_request", "send_page_reply", "send_session",
})

#: Everything the collector subscribes to.
OBSERVED_KINDS = EVENT_KINDS | TIMER_KINDS | CONTROL_KINDS


class MetricsConsistencyError(AssertionError):
    """Streaming aggregation disagreed with the offline trace pass."""


class _EventAggregate:
    """Streaming counterpart of :class:`repro.metrics.events.LossEventReport`."""

    __slots__ = ("requests", "repairs", "second_step_repairs",
                 "losses_detected", "recoveries", "request_waits")

    def __init__(self) -> None:
        self.requests = 0
        self.repairs = 0
        self.second_step_repairs = 0
        self.losses_detected = 0
        #: node -> (ratio, recovery time); mirrors MemberTiming.
        self.recoveries: Dict[Any, Tuple[float, float]] = {}
        self.request_waits: Dict[Any, float] = {}

    def last_member_ratio(self) -> Optional[float]:
        if not self.recoveries:
            return None
        last = max(self.recoveries.items(),
                   key=lambda item: (item[1][1], item[0]))
        return last[1][0]


class MetricsCollector:
    """Aggregates one round of trace records into a RunMetrics bundle."""

    def __init__(self, control_packet_size: int = 60,
                 experiment: str = "") -> None:
        self.control_packet_size = control_packet_size
        self.experiment = experiment
        self._trace: Optional[Trace] = None
        self.begin_round()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self, trace: Trace) -> "MetricsCollector":
        """Subscribe to ``trace`` (only the kinds this collector reads)."""
        self._trace = trace
        trace.subscribe(self.on_record, kinds=OBSERVED_KINDS)
        return self

    def detach(self) -> None:
        if self._trace is not None:
            self._trace.unsubscribe(self.on_record)
            self._trace = None

    def begin_round(self) -> None:
        """Forget the previous round and re-baseline the kernel counters."""
        self._events: Dict[Any, _EventAggregate] = {}
        self._timers: Dict[str, int] = {}
        self._control: Dict[Any, int] = {}
        self._perf_before = _perf_snapshot()

    # ------------------------------------------------------------------
    # Streaming path
    # ------------------------------------------------------------------

    def on_record(self, row: TraceRecord) -> None:
        kind = row.kind
        if kind in TIMER_KINDS:
            self._timers[kind] = self._timers.get(kind, 0) + 1
        if kind in CONTROL_KINDS:
            self._control[row.node] = self._control.get(row.node, 0) + 1
        if kind not in EVENT_KINDS:
            return
        name = row.detail.get("name")
        if name is None:
            return
        event = self._events.get(name)
        if event is None:
            event = self._events[name] = _EventAggregate()
        if kind == "send_request":
            event.requests += 1
        elif kind == "send_repair":
            event.repairs += 1
        elif kind == "send_repair_second_step":
            event.second_step_repairs += 1
        elif kind == "loss_detected":
            event.losses_detected += 1
        elif kind == "data_recovered":
            event.recoveries[row.node] = (row.detail["ratio"], row.time)
        elif kind == "first_request_event":
            event.request_waits[row.node] = row.detail["ratio"]

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------

    def snapshot(self, experiment: Optional[str] = None, rounds: int = 1,
                 meta: Optional[Dict[str, Any]] = None) -> RunMetrics:
        """Freeze the current round into a bundle (collection continues)."""
        bundle = RunMetrics(
            experiment=experiment if experiment is not None
            else self.experiment,
            rounds=rounds)
        for name in sorted(self._events, key=str):
            event = self._events[name]
            dup_requests = max(0, event.requests - 1)
            dup_repairs = max(0, event.repairs - 1)
            bundle.loss_events += 1
            bundle.requests += event.requests
            bundle.repairs += event.repairs
            bundle.second_step_repairs += event.second_step_repairs
            bundle.duplicate_requests += dup_requests
            bundle.duplicate_repairs += dup_repairs
            bundle.losses_detected += event.losses_detected
            bundle.recoveries += len(event.recoveries)
            bundle.recovery_ratios.extend(
                ratio for ratio, _ in event.recoveries.values())
            bundle.request_ratios.extend(event.request_waits.values())
            last = event.last_member_ratio()
            if last is not None:
                bundle.last_member_ratios.append(last)
            bundle.events.append({
                "name": str(name),
                "requests": event.requests,
                "repairs": event.repairs,
                "second_step_repairs": event.second_step_repairs,
                "duplicate_requests": dup_requests,
                "duplicate_repairs": dup_repairs,
                "losses_detected": event.losses_detected,
                "recoveries": len(event.recoveries),
                "last_member_ratio": last,
            })
        bundle.timers = dict(sorted(self._timers.items()))
        bundle.control_packets = {
            str(node): count
            for node, count in sorted(self._control.items(), key=str)}
        bundle.control_bytes = \
            sum(self._control.values()) * self.control_packet_size
        bundle.kernel = _perf_delta(self._perf_before, _perf_snapshot())
        if meta:
            bundle.meta.update(meta)
        return bundle

    # ------------------------------------------------------------------
    # Consistency checking (trace <-> metrics)
    # ------------------------------------------------------------------

    def verify(self, trace: Trace) -> None:
        """Recompute everything offline from ``trace`` and compare.

        Raises :class:`MetricsConsistencyError` when the streaming
        aggregation and the offline pass disagree — the metrics layer's
        own oracle, run after every round under ``SRM_CHECK=1``.
        """
        offline_names = {row.detail["name"] for row in trace.records
                         if row.kind in EVENT_KINDS
                         and row.detail.get("name") is not None}
        if offline_names != set(self._events):
            raise MetricsConsistencyError(
                f"metrics collector saw events {sorted(map(str, self._events))}"
                f" but the trace holds {sorted(map(str, offline_names))}")
        # Sorted so a multi-event mismatch always raises on the same
        # event regardless of set hash order.
        for name in sorted(offline_names, key=str):
            report = analyze_loss_event(trace, name)
            event = self._events[name]
            observed = (event.requests, event.repairs,
                        event.second_step_repairs, event.losses_detected,
                        {node: ratio
                         for node, (ratio, _) in event.recoveries.items()},
                        dict(event.request_waits))
            expected = (report.requests, report.repairs,
                        report.second_step_repairs, report.losses_detected,
                        {node: timing.ratio
                         for node, timing in report.recoveries.items()},
                        {node: timing.ratio
                         for node, timing in report.request_waits.items()})
            if observed != expected:
                raise MetricsConsistencyError(
                    f"event {name}: streaming {observed} != offline "
                    f"{expected}")
        timers: Dict[str, int] = {}
        control: Dict[Any, int] = {}
        for row in trace.records:
            if row.kind in TIMER_KINDS:
                timers[row.kind] = timers.get(row.kind, 0) + 1
            if row.kind in CONTROL_KINDS:
                control[row.node] = control.get(row.node, 0) + 1
        if timers != self._timers:
            raise MetricsConsistencyError(
                f"timer counters diverged: streaming {self._timers} != "
                f"offline {timers}")
        if control != self._control:
            raise MetricsConsistencyError(
                f"control counters diverged: streaming {self._control} != "
                f"offline {control}")


def collect_from_trace(trace: Trace, control_packet_size: int = 60,
                       experiment: str = "", rounds: int = 1) -> RunMetrics:
    """Offline convenience: one bundle from an already-recorded trace."""
    collector = MetricsCollector(control_packet_size=control_packet_size,
                                 experiment=experiment)
    for row in trace.records:
        if row.kind in OBSERVED_KINDS:
            collector.on_record(row)
    return collector.snapshot(rounds=rounds)


# ----------------------------------------------------------------------
# Kernel counter deltas
# ----------------------------------------------------------------------


def _perf_snapshot() -> Dict[str, Any]:
    from repro.sim import perf

    return perf.counters().as_dict()


def _perf_delta(before: Dict[str, Any],
                after: Dict[str, Any]) -> Dict[str, Any]:
    """Counter movement between two snapshots of the process-wide set."""
    delta: Dict[str, Any] = {}
    for key, value in after.items():
        if key == "packets_by_kind":
            continue
        delta[key] = value - before.get(key, 0)
    by_kind_before = before.get("packets_by_kind", {})
    delta["packets_by_kind"] = {
        kind: count - by_kind_before.get(kind, 0)
        for kind, count in after.get("packets_by_kind", {}).items()
        if count - by_kind_before.get(kind, 0)}
    return delta
