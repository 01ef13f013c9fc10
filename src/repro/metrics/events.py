"""Per-loss-event trace analysis: the paper's core quantities.

The evaluation measures, per loss event: the number of requests and
repairs multicast (duplicates are anything beyond one of each), the loss
recovery delay of each affected member — "the time from when the member
first detects the loss until the member first receives a repair",
expressed as a multiple of that member's RTT to the original source — and
the request delay — "the delay from when the request timer is set until a
request was either sent by that member or received from another member".

Simulation rounds do not call :func:`analyze_loss_event`: they take the
:class:`LossEventReport` that
:class:`repro.metrics.collector.MetricsCollector` has streamed into
(``collector.report(name)``, no full-trace rescan). The scan here is the
oracle that report must equal field for field — the consistency check
run under ``SRM_CHECK=1`` enforces exactly that — and the way to analyse
a trace nobody was subscribed to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.core.names import AduName
from repro.sim.trace import (DATA_RECOVERED, FIRST_REQUEST_EVENT,
                             LOSS_DETECTED, SEND_REPAIR,
                             SEND_REPAIR_SECOND_STEP, SEND_REQUEST, Trace)


@dataclass
class MemberTiming:
    """Delay bookkeeping for one member in one loss event."""

    member: int
    delay: float
    rtt: float
    ratio: float
    at: float
    via: str = ""


#: The last recovery: latest ``at``, ties to the highest member id.
_AT_THEN_MEMBER = attrgetter("at", "member")


@dataclass
class LossEventReport:
    """Everything the figures need about one recovery event."""

    name: AduName
    requests: int = 0
    repairs: int = 0
    second_step_repairs: int = 0
    losses_detected: int = 0
    recoveries: Dict[int, MemberTiming] = field(default_factory=dict)
    request_waits: Dict[int, MemberTiming] = field(default_factory=dict)

    @property
    def duplicate_requests(self) -> int:
        return max(0, self.requests - 1)

    @property
    def duplicate_repairs(self) -> int:
        return max(0, self.repairs - 1)

    @property
    def all_recovered(self) -> bool:
        return self.losses_detected > 0 and \
            len(self.recoveries) >= self.losses_detected

    def last_member_recovery_ratio(self) -> Optional[float]:
        """Delay/RTT of the member whose recovery finished last (Fig. 3c).

        The member with the largest *absolute* recovery time is selected,
        and its delay is reported in units of its own RTT to the source.
        """
        if not self.recoveries:
            return None
        last = max(self.recoveries.values(), key=_AT_THEN_MEMBER)
        return last.ratio

    def max_recovery_ratio(self) -> Optional[float]:
        if not self.recoveries:
            return None
        return max(t.ratio for t in self.recoveries.values())

    def mean_recovery_ratio(self) -> Optional[float]:
        if not self.recoveries:
            return None
        ratios = [t.ratio for t in self.recoveries.values()]
        return sum(ratios) / len(ratios)

    def request_wait_of(self, member: int) -> Optional[MemberTiming]:
        return self.request_waits.get(member)


def analyze_loss_event(trace: Trace, name: AduName) -> LossEventReport:
    """Scan a trace for everything concerning one ADU name."""
    report = LossEventReport(name=name)
    for row in trace.records:
        if row.detail.get("name") != name:
            continue
        if row.kind == SEND_REQUEST:
            report.requests += 1
        elif row.kind == SEND_REPAIR:
            report.repairs += 1
        elif row.kind == SEND_REPAIR_SECOND_STEP:
            report.second_step_repairs += 1
        elif row.kind == LOSS_DETECTED:
            report.losses_detected += 1
        elif row.kind == DATA_RECOVERED:
            report.recoveries[row.node] = MemberTiming(
                member=row.node, delay=row.detail["delay"],
                rtt=row.detail["rtt"], ratio=row.detail["ratio"],
                at=row.time, via=row.detail.get("via", ""))
        elif row.kind == FIRST_REQUEST_EVENT:
            report.request_waits[row.node] = MemberTiming(
                member=row.node, delay=row.detail["delay"],
                rtt=row.detail["rtt"], ratio=row.detail["ratio"],
                at=row.time, via=row.detail.get("via", ""))
    return report


def quantiles(values: List[float]) -> Tuple[float, float, float]:
    """(lower quartile, median, upper quartile) with linear interpolation.

    The paper's figures mark the median and the upper/lower quartiles of
    twenty simulations per point; this mirrors that presentation.
    """
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    return (percentile_sorted(ordered, 0.25),
            percentile_sorted(ordered, 0.5),
            percentile_sorted(ordered, 0.75))


def percentile(values: List[float], q: float) -> float:
    """The q-quantile (0 <= q <= 1) with linear interpolation."""
    if not values:
        raise ValueError("no values")
    return percentile_sorted(sorted(values), q)


def percentile_sorted(ordered: List[float], q: float) -> float:
    """:func:`percentile` over an already-sorted list (no copy)."""
    if not ordered:
        raise ValueError("no values")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def mean(values: List[float]) -> float:
    if not values:
        raise ValueError("no values")
    return sum(values) / len(values)
