"""Unit tests for trace analysis and statistics."""

import pytest

from repro.core.names import AduName, DEFAULT_PAGE
from repro.metrics.events import (
    LossEventReport,
    MemberTiming,
    analyze_loss_event,
    mean,
    quantiles,
)
from repro.sim.trace import Trace

NAME = AduName(1, DEFAULT_PAGE, 1)
OTHER = AduName(1, DEFAULT_PAGE, 2)


def synthetic_trace():
    trace = Trace()
    trace.record(1.0, 5, "loss_detected", name=NAME)
    trace.record(1.5, 6, "loss_detected", name=NAME)
    trace.record(2.0, 5, "send_request", name=NAME, round=1)
    trace.record(2.1, 6, "send_request", name=NAME, round=1)
    trace.record(2.0, 5, "first_request_event", name=NAME, delay=1.0,
                 rtt=4.0, ratio=0.25, via="sent")
    trace.record(3.0, 4, "send_repair", name=NAME, two_step=False)
    trace.record(3.5, 9, "send_repair_second_step", name=NAME, ttl=4)
    trace.record(4.0, 5, "data_recovered", name=NAME, delay=3.0, rtt=4.0,
                 ratio=0.75, via="repair")
    trace.record(5.0, 6, "data_recovered", name=NAME, delay=3.5, rtt=2.0,
                 ratio=1.75, via="repair")
    # Noise about a different name must be ignored.
    trace.record(9.0, 7, "send_request", name=OTHER)
    trace.record(9.0, 7, "data_recovered", name=OTHER, delay=1, rtt=1,
                 ratio=1.0, via="repair")
    return trace


def test_analyze_counts_by_name():
    report = analyze_loss_event(synthetic_trace(), NAME)
    assert report.requests == 2
    assert report.repairs == 1
    assert report.second_step_repairs == 1
    assert report.losses_detected == 2
    assert report.duplicate_requests == 1
    assert report.duplicate_repairs == 0


def test_analyze_recoveries_and_last_member():
    report = analyze_loss_event(synthetic_trace(), NAME)
    assert set(report.recoveries) == {5, 6}
    assert report.recoveries[5].ratio == 0.25 * 3  # 0.75
    # Member 6 recovered last (t=5.0): its ratio is reported.
    assert report.last_member_recovery_ratio() == 1.75
    assert report.max_recovery_ratio() == 1.75
    assert report.mean_recovery_ratio() == pytest.approx((0.75 + 1.75) / 2)
    assert report.all_recovered


def test_analyze_request_waits():
    report = analyze_loss_event(synthetic_trace(), NAME)
    timing = report.request_wait_of(5)
    assert timing is not None
    assert timing.via == "sent"
    assert report.request_wait_of(42) is None


def test_empty_report_properties():
    report = LossEventReport(name=NAME)
    assert report.duplicate_requests == 0
    assert report.duplicate_repairs == 0
    assert report.last_member_recovery_ratio() is None
    assert report.max_recovery_ratio() is None
    assert report.mean_recovery_ratio() is None
    assert not report.all_recovered


def test_quantiles_median_and_quartiles():
    q1, med, q3 = quantiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert med == 3.0
    assert q1 == 2.0
    assert q3 == 4.0


def test_quantiles_interpolation():
    q1, med, q3 = quantiles([0.0, 10.0])
    assert med == 5.0
    assert q1 == 2.5
    assert q3 == 7.5


def test_quantiles_single_value():
    assert quantiles([7.0]) == (7.0, 7.0, 7.0)


def test_quantiles_unsorted_input():
    _, med, _ = quantiles([9.0, 1.0, 5.0])
    assert med == 5.0


def test_quantiles_empty_raises():
    with pytest.raises(ValueError):
        quantiles([])


def test_mean():
    assert mean([1.0, 2.0, 3.0]) == 2.0
    with pytest.raises(ValueError):
        mean([])
