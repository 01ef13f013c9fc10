"""The repro.metrics observability layer.

Covers the streaming collector's agreement with the offline
per-loss-event analysis, check mode's one gate
(:func:`repro.metrics.collector.check_against_trace`) on every engine,
golden headline snapshots for the figure3/figure8 seeds, JSON bundle
round-trips, and the regression comparison used by ``repro compare``.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import WireFormatError
from repro.core.names import AduName, DEFAULT_PAGE
from repro.experiments.common import (
    ExperimentSpec,
    choose_scenario,
    run_experiment,
)
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure8 import run_figure8
from repro.metrics import (
    BUNDLE_SCHEMA,
    MetricsCollector,
    MetricsConsistencyError,
    RunMetrics,
    analyze_loss_event,
    check_against_trace,
    collect_from_trace,
    compare_bundles,
    load_bundle,
    save_bundle,
)
from repro.metrics.bundle import BUNDLE
from repro.metrics.collector import (
    CONTROL_KINDS,
    EVENT_KINDS,
    TIMER_KINDS,
)
from repro.sim.trace import Trace

from conftest import examples


# ----------------------------------------------------------------------
# Collector vs offline analysis
# ----------------------------------------------------------------------


def _scenario(seed: int):
    from repro.sim.rng import RandomSource
    from repro.topology.btree import balanced_tree

    return choose_scenario(balanced_tree(60, 4), session_size=12,
                           rng=RandomSource(seed))


def _run_one(seed: int = 2):
    return run_experiment(ExperimentSpec(scenario=_scenario(seed),
                                         rounds=3, seed=seed,
                                         experiment="unit"))


def test_streaming_collector_matches_offline_outcomes():
    """The collector's counts must agree with RoundOutcome's, which are
    computed independently by the offline analyze_loss_event path."""
    result = _run_one()
    bundle = result.metrics
    assert bundle.rounds == len(result.outcomes)
    assert bundle.requests == sum(o.requests for o in result.outcomes)
    assert bundle.repairs == sum(o.repairs for o in result.outcomes)
    assert bundle.duplicate_requests == \
        sum(o.duplicate_requests for o in result.outcomes)
    assert bundle.duplicate_repairs == \
        sum(o.duplicate_repairs for o in result.outcomes)
    offline_last = sorted(o.last_member_ratio for o in result.outcomes
                          if o.last_member_ratio is not None)
    assert sorted(bundle.last_member_ratios) == \
        pytest.approx(offline_last)


def test_collect_from_trace_reconstructs_streaming_bundle():
    """Offline reconstruction from a trace equals the streaming pass."""
    from repro.experiments.common import LossRecoverySimulation

    simulation = LossRecoverySimulation(_scenario(5), seed=5)
    simulation.network.trace.keep = None   # the timer rows too
    simulation.run_round()
    streaming = simulation.last_round_metrics
    offline = collect_from_trace(
        simulation.network.trace,
        control_packet_size=simulation.config.control_packet_size)
    assert offline.requests == streaming.requests
    assert offline.repairs == streaming.repairs
    assert offline.timers == streaming.timers
    assert offline.control_packets == streaming.control_packets
    assert offline.recovery_ratios == \
        pytest.approx(streaming.recovery_ratios)


def test_consistency_check_runs_under_check_mode(monkeypatch):
    """SRM_CHECK=1 verifies the streaming bundle against the trace every
    round; a healthy run must pass without raising."""
    monkeypatch.setenv("SRM_CHECK", "1")
    result = _run_one(seed=9)
    assert result.metrics is not None
    assert result.metrics.rounds == 3


def test_attach_again_or_elsewhere_counts_each_row_once():
    """attach() used to stack subscriptions: a second call (or a move to
    another trace) delivered every row twice."""
    name = AduName(1, DEFAULT_PAGE, 1)
    first, second = Trace(), Trace()
    collector = MetricsCollector().attach(first)
    collector.attach(first)
    first.record(1.0, 5, "send_request", name=name)
    assert collector.report(name).requests == 1
    assert collector.snapshot().control_packets == {"5": 1}

    collector.attach(second)
    first.record(2.0, 5, "send_request", name=name)   # left behind
    second.record(2.0, 6, "send_request", name=name)
    second.record(2.5, 6, "request_backoff", name=name)
    bundle = collector.snapshot()
    assert bundle.requests == 1
    assert bundle.control_packets == {"6": 1}
    assert bundle.timers == {"request_backoff": 1, "send_request": 1}


def test_verify_compares_the_streamed_report_with_the_offline_scan():
    name = AduName(1, DEFAULT_PAGE, 1)
    trace = Trace(keep=None)
    collector = MetricsCollector().attach(trace)
    trace.record(1.0, 5, "loss_detected", name=name)
    trace.record(2.0, 5, "data_recovered", name=name, delay=1.0, rtt=2.0,
                 ratio=0.5, via="repair")
    check_against_trace(trace, collector.reports(), collector.snapshot(),
                        collector.control_packet_size)
    # One field of one member's timing is enough to fail the round.
    collector.report(name).recoveries[5].via = "elsewhere"
    with pytest.raises(MetricsConsistencyError,
                       match=r"report 1:0.0:1: recoveries disagree"):
        check_against_trace(trace, collector.reports(),
                            collector.snapshot(),
                            collector.control_packet_size)


# The gate has teeth on every engine: each holds a result it built
# itself (streamed, or read off the herd's arrays) to the rows, so one
# field nudged after the engine built it must fail the round.


def test_the_gate_fails_an_agent_round_with_one_ratio_off(monkeypatch):
    from repro.experiments.common import LossRecoverySimulation

    monkeypatch.setenv("SRM_CHECK", "1")
    simulation = LossRecoverySimulation(_scenario(5), seed=5)
    simulation.run_round()
    assert simulation.last_round_metrics.recovery_ratios
    collector = simulation.collector
    snapshot = collector.snapshot

    def nudged(**kwargs):
        bundle = snapshot(**kwargs)
        bundle.recovery_ratios[-1] += 1e-6
        return bundle

    monkeypatch.setattr(collector, "snapshot", nudged)
    with pytest.raises(MetricsConsistencyError,
                       match=r"^round 2: bundle: recovery_ratios disagree"):
        simulation.run_round()


def _nudge_timing(report):
    timing = next(iter(report.recoveries.values()))
    timing.ratio += 1e-6


def _nudge_count(report):
    report.requests += 1


@pytest.mark.parametrize("size, nudge, diverged", [
    (16, _nudge_timing, "recoveries"),
    (16, _nudge_count, "requests"),
    (600, _nudge_count, "requests"),
], ids=["timing-full-trace", "count-full-trace", "count-above-threshold"])
def test_the_gate_fails_a_herd_round_with_one_report_field_off(
        monkeypatch, size, nudge, diverged):
    from repro.core.config import SrmConfig
    from repro.experiments.scaling import star_scaling_scenario
    from repro.herd import HerdSimulation
    from repro.herd.engine import FULL_TRACE_THRESHOLD

    monkeypatch.setenv("SRM_CHECK", "1")
    simulation = HerdSimulation(star_scaling_scenario(size),
                                config=SrmConfig(c2=size / 10.0), seed=0)
    assert simulation.full_trace == (size <= FULL_TRACE_THRESHOLD)
    report = simulation._report

    def nudged(name):
        built = report(name)
        nudge(built)
        return built

    monkeypatch.setattr(simulation, "_report", nudged)
    with pytest.raises(MetricsConsistencyError,
                       match=rf"^round 1: report \S+: {diverged}"):
        simulation.run_round()


@pytest.mark.parametrize("half", ["live", "sim"])
def test_the_gate_fails_a_soak_bundle_with_one_field_off(monkeypatch, half):
    from repro.live import soak

    class Nudged(MetricsCollector):
        def snapshot(self, *args, **kwargs):
            bundle = super().snapshot(*args, **kwargs)
            bundle.control_bytes += 1
            return bundle

    # collect_from_trace builds its bundle with the unpatched class.
    monkeypatch.setattr(soak, "MetricsCollector", Nudged)
    spec = soak.SoakSpec(packets=8, rate=80.0, drain=0.5, check=True)
    run = soak.run_live_soak if half == "live" else soak.run_matched_sim
    with pytest.raises(MetricsConsistencyError,
                       match=rf"^{half} soak: bundle: control_bytes"):
        run(spec)


# Property: whatever is interleaved with the rows -- clear(), a new
# round, listeners coming and going from inside a callback -- the
# streamed report and bundle equal the offline pass over the rows
# recorded since begin_round().

_POOL = [AduName(1, DEFAULT_PAGE, seq) for seq in (1, 2, 3)]
_KINDS = sorted(EVENT_KINDS | TIMER_KINDS | CONTROL_KINDS) \
    + ["recv_data", "deliver"]    # two kinds no bundle reads
_row = st.tuples(
    st.just("row"), st.sampled_from(_KINDS),
    st.sampled_from(_POOL + [None]),      # None: a row without a name
    st.integers(0, 3),                     # node
    st.floats(0.0, 8.0, allow_nan=False),  # delay
    st.sampled_from(["repair", "sent", None]))
_op = st.one_of(_row, _row, _row, st.sampled_from(
    [("clear",), ("begin",), ("churn",)]))


@settings(max_examples=examples(60))
@given(ops=st.lists(_op, max_size=60))
def test_streamed_report_and_bundle_equal_the_offline_pass(ops):
    trace = Trace()
    collector = MetricsCollector(control_packet_size=40).attach(trace)
    since_begin = Trace()   # what the offline oracle gets to see
    every_row = []
    tails = []              # (rows recorded before it joined, heard)

    def churn():
        """A listener that leaves and recruits from inside its callback,
        followed by one that must not notice."""
        heard = []

        def once(row):
            trace.unsubscribe(once)
            trace.subscribe(lambda later: None, kinds=[row.kind])

        trace.subscribe(once)
        trace.subscribe(heard.append)
        tails.append((len(every_row), heard))

    for clock, op in enumerate(ops):
        if op[0] == "row":
            _, kind, name, node, delay, via = op
            detail = {"delay": delay, "rtt": 2.0, "ratio": delay / 2.0}
            if name is not None:
                detail["name"] = name
            if via is not None:
                detail["via"] = via
            trace.record(float(clock), node, kind, detail)
            every_row.append(trace.records[-1])
            since_begin.records.append(trace.records[-1])
        elif op[0] == "clear":
            trace.clear()
        elif op[0] == "begin":
            collector.begin_round()
            since_begin.clear()
        else:
            churn()

    for start, heard in tails:
        assert heard == every_row[start:]
    for name in _POOL:
        assert collector.report(name) == \
            analyze_loss_event(since_begin, name)
    streamed = collector.snapshot().to_dict()
    offline = collect_from_trace(since_begin,
                                 control_packet_size=40).to_dict()
    del streamed["kernel"], offline["kernel"]
    assert streamed == offline
    # collect_from_trace replays through a collector; count by hand too.
    kinds = TallyCounter(row.kind for row in since_begin.records)
    assert streamed["timers"] == {
        kind: kinds[kind] for kind in sorted(TIMER_KINDS) if kinds[kind]}
    assert streamed["control_bytes"] == 40 * sum(
        kinds[kind] for kind in CONTROL_KINDS)


# ----------------------------------------------------------------------
# Golden headline snapshots (reduced-scale figure3/figure8 seeds)
# ----------------------------------------------------------------------

FIGURE3_HEADLINE = {
    "control_bytes_per_member": 78.46153846153847,
    "duplicate_repairs_mean": 0.0,
    "duplicate_requests_mean": 0.125,
    "last_member_ratio_max": 2.5619801467002024,
    "last_member_ratio_p50": 1.7606185159519707,
    "last_member_ratio_p90": 2.354473168026529,
    "loss_events": 8.0,
    "recovery_ratio_max": 3.5361686338888463,
    "recovery_ratio_p50": 1.3253169071726416,
    "recovery_ratio_p90": 2.6305086967384192,
    "repairs_mean": 1.0,
    "request_ratio_max": 1.9647084284203995,
    "request_ratio_p50": 0.8389130957626548,
    "request_ratio_p90": 1.8397574464174287,
    "requests_mean": 1.125,
}

FIGURE8_HEADLINE = {
    "control_bytes_per_member": 255.0,
    "duplicate_repairs_mean": 0.16666666666666666,
    "duplicate_requests_mean": 0.6666666666666666,
    "last_member_ratio_max": 1.2173176232546883,
    "last_member_ratio_p50": 0.4052856874505085,
    "last_member_ratio_p90": 0.9690036193461787,
    "loss_events": 6.0,
    "recovery_ratio_max": 9.738540986037503,
    "recovery_ratio_p50": 0.5930078137169964,
    "recovery_ratio_p90": 1.6230901643395839,
    "repairs_mean": 1.1666666666666667,
    "request_ratio_max": 7.682228801471659,
    "request_ratio_p50": 0.2132518637044445,
    "request_ratio_p90": 1.0856753231946144,
    "requests_mean": 1.6666666666666667,
}


def _assert_headline(actual: dict, expected: dict) -> None:
    assert set(actual) == set(expected)
    for key, value in expected.items():
        assert actual[key] == pytest.approx(value, rel=1e-12), key


def test_figure3_metrics_headline_golden():
    result = run_figure3(sizes=(10, 20), sims=4, seed=3)
    _assert_headline(result.metrics.headline(), FIGURE3_HEADLINE)


def test_figure8_metrics_headline_golden():
    result = run_figure8(c2_values=(0, 20), hops_values=(1,), sims=3,
                         num_nodes=120, session_size=20, seed=8)
    _assert_headline(result.metrics.headline(), FIGURE8_HEADLINE)


# ----------------------------------------------------------------------
# Bundle persistence and comparison
# ----------------------------------------------------------------------


def test_bundle_json_round_trip(tmp_path):
    bundle = _run_one(seed=3).metrics
    path = save_bundle(bundle, tmp_path / "bundle.json")
    loaded = load_bundle(path)
    assert loaded.to_dict() == bundle.to_dict()
    assert loaded.to_dict()["schema"] == BUNDLE_SCHEMA
    assert loaded.headline() == pytest.approx(bundle.headline())


@pytest.mark.parametrize("key, value, error", [
    ("requests", "many", "^requests: expected an integer"),
    ("recovery_ratios", 7, "^recovery_ratios: expected a list"),
    ("timers", {"send_request": 1.5}, "^timers: expected an integer"),
    ("requets", 3, "unknown field.*requets"),
    ("schema", "run-metrics/v0", "^schema: unsupported"),
    ("headline", [], "^headline: expected a JSON object"),
])
def test_bundle_decoding_is_closed(key, value, error):
    """Every key is required with its exact type, and no other is
    accepted; ``from_dict`` used to take any value for a known key and
    drop an unknown one."""
    payload = dict(_run_one(seed=3).metrics.to_dict(), **{key: value})
    with pytest.raises(WireFormatError, match=error):
        BUNDLE.decode(payload)
    del payload[key]
    if key != "requets":
        with pytest.raises(WireFormatError, match="missing required"):
            BUNDLE.decode(payload)


def test_bundle_decoding_recomputes_derived_keys_and_keeps_kernel_open():
    bundle = _run_one(seed=3).metrics
    payload = json.loads(json.dumps(bundle.to_dict()))
    payload["headline"] = {"requests_mean": 1e9}
    payload["summaries"] = {}
    payload["kernel"]["heap_peak"] = 7  # a counter PerfCounters dropped
    decoded = BUNDLE.decode(payload)
    assert decoded.headline() == bundle.headline()
    assert BUNDLE.encode(decoded)["headline"] == bundle.headline()
    assert decoded.kernel["heap_peak"] == 7


def test_bundle_merge_is_associative_over_counts():
    first = _run_one(seed=3).metrics
    second = _run_one(seed=4).metrics
    merged = RunMetrics.merged([first, second], experiment="unit")
    assert merged.rounds == first.rounds + second.rounds
    assert merged.requests == first.requests + second.requests
    assert merged.loss_events == first.loss_events + second.loss_events
    assert sorted(merged.recovery_ratios) == sorted(
        first.recovery_ratios + second.recovery_ratios)


def test_bundle_merge_sums_every_kernel_counter():
    """Merging used to sum a hard-coded key list that predated the
    calendar/delivery counters, silently dropping them from every
    sweep-level bundle; now every integer ``PerfCounters.as_dict()``
    key is summed."""
    from repro.sim import perf

    first = _run_one(seed=3).metrics
    second = _run_one(seed=4).metrics
    merged = RunMetrics.merged([first, second], experiment="unit")
    counters = [key for key, value in perf.PerfCounters().as_dict().items()
                if isinstance(value, int)]
    assert {"bucket_resizes", "bucket_scan_len",
            "batched_deliveries"} <= set(counters)
    assert first.kernel["bucket_scan_len"] > 0
    for key in counters:
        assert merged.kernel[key] == first.kernel[key] + second.kernel[key]
    assert merged.kernel["packets_by_kind"]["srm-request"] == (
        first.kernel["packets_by_kind"]["srm-request"]
        + second.kernel["packets_by_kind"]["srm-request"])


def test_compare_flags_only_regressions_beyond_threshold():
    baseline = _run_one(seed=3).metrics
    same = compare_bundles(baseline, baseline, threshold=0.10)
    assert same.ok and not same.regressions

    worse = replace(baseline, recovery_ratios=[
        r * 1.5 for r in baseline.recovery_ratios])
    report = compare_bundles(baseline, worse, threshold=0.10)
    assert not report.ok
    regressed = {delta.key for delta in report.regressions}
    assert "recovery_ratio_p50" in regressed
    assert "requests_mean" not in regressed
    assert "REGRESSION" in report.format()

    # A 1.5x blow-up passes under a loose-enough threshold.
    loose = compare_bundles(baseline, worse, threshold=10.0)
    assert loose.ok


def test_compare_treats_new_nan_or_missing_as_regression():
    baseline = _run_one(seed=3).metrics
    broken = replace(baseline, recovery_ratios=[])
    report = compare_bundles(baseline, broken, threshold=0.10)
    assert not report.ok
