"""Streaming metrics collection from the trace stream.

:class:`MetricsCollector` subscribes to a :class:`repro.sim.trace.Trace`
— the same hook the protocol oracles use — and aggregates the run online
into per-loss-event reports, RTT-ratio histograms, timer activity and
control-bandwidth tallies, folding in the :mod:`repro.sim.perf` kernel
counter deltas at snapshot time. No full-trace rescan, and no callback
for a row it would only count: the per-loss-event and control kinds are
delivered to :meth:`MetricsCollector.on_record`, timer activity is read
as the movement of ``Trace.kind_totals`` since :meth:`begin_round`.
Which kind plays which role is the ``roles`` column of the kind table
in :mod:`repro.sim.trace`; the sets below are read off it.

The collector must agree with the offline passes in
:mod:`repro.metrics.events` record-for-record; :meth:`verify` recomputes
everything from the recorded trace and raises
:class:`MetricsConsistencyError` on any disagreement. Check mode
(``--check`` / ``SRM_CHECK=1``) runs that comparison after every round.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Optional

from repro.core.names import AduName
from repro.metrics.bundle import RunMetrics
from repro.metrics.events import (
    LossEventReport,
    MemberTiming,
    analyze_loss_event,
)
from repro.sim.trace import (DATA_RECOVERED, LOSS_DETECTED, SEND_REPAIR,
                             SEND_REPAIR_SECOND_STEP, SEND_REQUEST, Trace,
                             TraceRecord, kinds_with)

#: Kinds that feed the per-loss-event aggregation.
EVENT_KINDS = kinds_with("event")
#: Kinds counted as protocol timer activity (sets, fires, backoffs,
#: suppressions, hold-downs). Never delivered one by one: only their
#: per-kind totals are read.
TIMER_KINDS = kinds_with("timer")
#: Kinds that put a control packet on the wire.
CONTROL_KINDS = kinds_with("control")
#: The kinds :meth:`MetricsCollector.on_record` is called for.
SUBSCRIBED_KINDS = EVENT_KINDS | CONTROL_KINDS


class MetricsConsistencyError(AssertionError):
    """Streaming aggregation disagreed with the offline trace pass."""


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
        """Start a round on ``trace``, leaving any trace attached before.

        Only :data:`SUBSCRIBED_KINDS` reach :meth:`on_record`.
        """
        self.detach()
        self._trace = trace
        trace.subscribe(self.on_record, kinds=SUBSCRIBED_KINDS)
        self.begin_round()
        return self

    def detach(self) -> None:
        if self._trace is not None:
            self._trace.unsubscribe(self.on_record)
            self._trace = None

    def begin_round(self) -> None:
        """Forget the previous round and re-baseline every counter."""
        self._events: Dict[AduName, LossEventReport] = {}
        self._control: Dict[Any, int] = defaultdict(int)
        # Totals are monotonic, so the baseline survives a trace.clear()
        # on either side of this call.
        self._totals_before: Dict[str, int] = \
            dict(self._trace.kind_totals) if self._trace is not None else {}
        self._perf_before = _perf_snapshot()

    # ------------------------------------------------------------------
    # Streaming path
    # ------------------------------------------------------------------

    def on_record(self, row: TraceRecord) -> None:
        kind = row.kind
        if kind in CONTROL_KINDS:
            self._control[row.node] += 1
        if kind not in EVENT_KINDS:
            return
        detail = row.detail
        # Subscripts under try, not .get(): in a suppression round this
        # runs ~600 times and the miss branches about once.
        try:
            name = detail["name"]
        except KeyError:
            return
        if name is None:
            return
        try:
            report = self._events[name]
        except KeyError:
            report = self._events[name] = LossEventReport(name=name)
        if kind == SEND_REQUEST:
            report.requests += 1
        elif kind == SEND_REPAIR:
            report.repairs += 1
        elif kind == SEND_REPAIR_SECOND_STEP:
            report.second_step_repairs += 1
        elif kind == LOSS_DETECTED:
            report.losses_detected += 1
        else:
            timing = MemberTiming(
                member=row.node, delay=detail["delay"], rtt=detail["rtt"],
                ratio=detail["ratio"], at=row.time,
                via=detail.get("via", ""))
            if kind == DATA_RECOVERED:
                report.recoveries[row.node] = timing
            else:  # first_request_event
                report.request_waits[row.node] = timing

    def report(self, name: AduName) -> LossEventReport:
        """This round's report for one ADU name (empty if never seen).

        Equal, field for field, to ``analyze_loss_event`` over the rows
        recorded since :meth:`begin_round`. The object is the live
        aggregate: it keeps counting until the next ``begin_round()``
        and is left alone after it.
        """
        report = self._events.get(name)
        return report if report is not None else LossEventReport(name=name)

    def _timer_activity(self) -> Dict[str, int]:
        """Rows of each timer kind recorded since :meth:`begin_round`."""
        if self._trace is None:
            return {}
        totals = self._trace.kind_totals
        before = self._totals_before
        activity: Dict[str, int] = {}
        for kind in sorted(TIMER_KINDS):
            moved = totals.get(kind, 0) - before.get(kind, 0)
            if moved:
                activity[kind] = moved
        return activity

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
            bundle.loss_events += 1
            bundle.requests += event.requests
            bundle.repairs += event.repairs
            bundle.second_step_repairs += event.second_step_repairs
            bundle.duplicate_requests += event.duplicate_requests
            bundle.duplicate_repairs += event.duplicate_repairs
            bundle.losses_detected += event.losses_detected
            bundle.recoveries += len(event.recoveries)
            bundle.recovery_ratios.extend(
                [timing.ratio for timing in event.recoveries.values()])
            bundle.request_ratios.extend(
                [timing.ratio for timing in event.request_waits.values()])
            last = event.last_member_recovery_ratio()
            if last is not None:
                bundle.last_member_ratios.append(last)
            bundle.events.append({
                "name": str(name),
                "requests": event.requests,
                "repairs": event.repairs,
                "second_step_repairs": event.second_step_repairs,
                "duplicate_requests": event.duplicate_requests,
                "duplicate_repairs": event.duplicate_repairs,
                "losses_detected": event.losses_detected,
                "recoveries": len(event.recoveries),
                "last_member_ratio": last,
            })
        bundle.timers = self._timer_activity()
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
            offline = analyze_loss_event(trace, name)
            streamed = self.report(name)
            if streamed != offline:
                raise MetricsConsistencyError(
                    f"event {name}: streaming {streamed} != offline "
                    f"{offline}")
        timers: Dict[str, int] = {}
        control: Dict[Any, int] = {}
        for row in trace.records:
            if row.kind in TIMER_KINDS:
                timers[row.kind] = timers.get(row.kind, 0) + 1
            if row.kind in CONTROL_KINDS:
                control[row.node] = control.get(row.node, 0) + 1
        streamed_timers = self._timer_activity()
        if timers != streamed_timers:
            raise MetricsConsistencyError(
                f"timer counters diverged: streaming {streamed_timers} != "
                f"offline {timers}")
        if control != self._control:
            raise MetricsConsistencyError(
                f"control counters diverged: streaming {self._control} != "
                f"offline {control}")


def collect_from_trace(trace: Trace, control_packet_size: int = 60,
                       experiment: str = "", rounds: int = 1) -> RunMetrics:
    """Offline convenience: one bundle from an already-recorded trace.

    Replays the rows through a scratch trace, so the bundle is built by
    the very path a live run takes.
    """
    replay = Trace()
    collector = MetricsCollector(control_packet_size=control_packet_size,
                                 experiment=experiment).attach(replay)
    for row in trace.records:
        replay.record(row.time, row.node, row.kind, row.detail)
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
