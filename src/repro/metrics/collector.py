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

Every engine's round reports and bundle must agree with the offline
passes in :mod:`repro.metrics.events` over the recorded rows;
:func:`check_against_trace` is that one gate, and raises
:class:`MetricsConsistencyError` naming every field that disagrees.
Check mode (``--check`` / ``SRM_CHECK=1``) runs it after every agent and
herd round and after each half of a live soak.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

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

    def reports(self) -> List[LossEventReport]:
        """This round's report for every ADU name seen, by name."""
        return [self._events[name] for name in sorted(self._events, key=str)]

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


def check_against_trace(trace: Trace, reports: Iterable[LossEventReport],
                        bundle: RunMetrics, control_packet_size: int,
                        counts_only: bool = False,
                        context: str = "") -> None:
    """Check mode's one gate: hold an engine's results to its rows.

    Each report must equal ``analyze_loss_event`` over ``trace`` for its
    name (counts alone when ``counts_only``: the herd's reports above
    its size threshold carry no per-member timings), and ``bundle`` must
    equal :func:`collect_from_trace` over the same rows, field for
    field. The bundle's labels (``experiment``, ``rounds``) are read off
    it; ``kernel`` is the run's own counter delta and is not compared.
    Raises :class:`MetricsConsistencyError` naming every diverged field.
    Like the oracles, it checks only a trace that keeps every row.
    """
    if trace.keep is not None:
        return
    pairs: List[Tuple[str, Any, Any]] = []
    for report in reports:
        offline = analyze_loss_event(trace, report.name)
        if counts_only:
            offline.recoveries.clear()
            offline.request_waits.clear()
        pairs.append((f"report {report.name}", report, offline))
    replayed = collect_from_trace(
        trace, control_packet_size=control_packet_size,
        experiment=bundle.experiment, rounds=bundle.rounds)
    replayed.kernel = bundle.kernel
    pairs.append(("bundle", bundle, replayed))
    diverged = [f"{label}: {spec.name}"
                for label, built, rows in pairs
                for spec in dataclasses.fields(built)
                if getattr(built, spec.name) != getattr(rows, spec.name)]
    if diverged:
        where = f"{context}: " if context else ""
        raise MetricsConsistencyError(
            f"{where}{'; '.join(diverged)} disagree with the trace's rows")


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
