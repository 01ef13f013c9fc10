"""Tests for the protocol-invariant oracles (repro.oracle).

Two angles: clean runs must verify with zero violations, and each
checker must catch a synthetic break of the invariant it guards. The
synthetic breaks are emitted straight into the trace stream, so each
test exercises exactly one rule.
"""

from __future__ import annotations

import pytest

from repro.core.names import AduName, DEFAULT_PAGE
from repro.net.link import NthPacketDropFilter
from repro.oracle import (
    OracleViolationError,
    RepairHolddownOracle,
    RequestTimerOracle,
    SchedulerMonotonicityOracle,
    SessionOracleSuite,
    SuppressionOracle,
    TraceSchemaOracle,
    Violation,
    ViolationReport,
    check_mode_enabled,
)
from repro.oracle.checkers import DeliveryConsistencyOracle
from repro.sim.rng import RandomSource
from repro.sim.trace import SEND_REQUEST
from repro.topology import chain
from repro.topology.random_tree import random_labeled_tree

from conftest import at, build_srm_session

NAME = AduName(0, DEFAULT_PAGE, 1)


def oracle_names(suite):
    return sorted({violation.oracle for violation in suite.violations})


def single_oracle_suite(network, oracle_class):
    """A suite running exactly one checker, subscribed to the trace."""
    suite = SessionOracleSuite(network, oracles=[oracle_class])
    network.trace.keep = None
    network.trace.subscribe(suite._on_record)
    return suite


def two_node_network():
    spec = chain(2)
    network = spec.build()
    return network


# ----------------------------------------------------------------------
# Check-mode switch
# ----------------------------------------------------------------------

def test_check_mode_env_parsing(monkeypatch):
    monkeypatch.delenv("SRM_CHECK", raising=False)
    assert not check_mode_enabled()
    monkeypatch.setenv("SRM_CHECK", "0")
    assert not check_mode_enabled()
    monkeypatch.setenv("SRM_CHECK", "")
    assert not check_mode_enabled()
    monkeypatch.setenv("SRM_CHECK", "1")
    assert check_mode_enabled()


# ----------------------------------------------------------------------
# Clean runs verify clean
# ----------------------------------------------------------------------

def run_recovery_session(seed=3, adaptive=False):
    rng = RandomSource(seed)
    spec = random_labeled_tree(14, rng)
    members = sorted(rng.sample(range(14), 9))
    config = None
    if adaptive:
        from repro.core.config import SrmConfig
        config = SrmConfig(adaptive=True)
    network, agents, _ = build_srm_session(spec, members, seed=seed,
                                           config=config)
    suite = SessionOracleSuite.attach(network, agents=agents,
                                      assert_delivery_members=members)
    source = rng.choice(members)
    network.add_drop_filter(*rng.choice(spec.edges), NthPacketDropFilter(
        lambda p: p.kind == "srm-data" and p.origin == source))
    for i in range(3):
        network.scheduler.schedule(
            float(i), lambda i=i: agents[source].send_data(f"p{i}"))
    network.run(max_events=2_000_000)
    return suite


def test_clean_loss_recovery_run_verifies_clean():
    suite = run_recovery_session()
    report = suite.verify(context="clean run")
    assert not report
    assert "no violations" in report.format()


def test_clean_adaptive_run_verifies_clean():
    report = run_recovery_session(seed=5, adaptive=True).verify()
    assert not report


def test_verify_is_repeatable():
    """finish() recomputes; calling verify twice must not double-count."""
    suite = run_recovery_session(seed=9)
    assert not suite.verify()
    assert not suite.verify()


# ----------------------------------------------------------------------
# Trace schema
# ----------------------------------------------------------------------

REQUEST_ROW = {"name": NAME, "round": 1, "ttl": 255}


@pytest.mark.parametrize("kind,detail", [
    ("send_reqeust", REQUEST_ROW),
    (SEND_REQUEST, {"name": NAME, "round": 1}),
    (SEND_REQUEST, {**REQUEST_ROW, "hops": 2}),
    (SEND_REQUEST, {"name": NAME, "rounds": 1, "ttl": 255}),
], ids=["undeclared-kind", "missing-key", "extra-key", "misspelt-key"])
@pytest.mark.plants_violation
def test_schema_oracle_rejects_rows_off_the_kind_table(kind, detail):
    network = two_node_network()
    suite = single_oracle_suite(network, TraceSchemaOracle)
    network.trace.record(0.0, 0, SEND_REQUEST, dict(REQUEST_ROW))
    assert suite.violations == []
    network.trace.record(0.0, 0, kind, dict(detail))
    with pytest.raises(OracleViolationError, match=r"\[trace-schema\]"):
        suite.verify()
    assert len(suite.violations) == 1


# ----------------------------------------------------------------------
# Scheduler sanity
# ----------------------------------------------------------------------

@pytest.mark.plants_violation
def test_scheduler_oracle_rejects_time_skew():
    network = two_node_network()
    suite = single_oracle_suite(network, SchedulerMonotonicityOracle)
    # The scheduler clock reads 0.0; a record stamped in the future is
    # a bookkeeping bug.
    network.trace.record(5.0, 0, "send_data", name=NAME)
    assert oracle_names(suite) == ["scheduler-sanity"]


@pytest.mark.plants_violation
def test_scheduler_oracle_rejects_backwards_time():
    network = two_node_network()
    suite = single_oracle_suite(network, SchedulerMonotonicityOracle)
    network.trace.record(0.0, 0, "a")
    network.scheduler.schedule(1.0, lambda: None)
    network.run()  # clock now at 1.0
    network.trace.record(1.0, 0, "b")
    network.trace.record(0.5, 0, "c")  # runs backwards
    assert any("backwards" in violation.message
               for violation in suite.violations)


# ----------------------------------------------------------------------
# Request timers
# ----------------------------------------------------------------------

@pytest.mark.plants_violation
def test_request_oracle_rejects_backoff_jump():
    network = two_node_network()
    suite = single_oracle_suite(network, RequestTimerOracle)
    name = AduName(1, DEFAULT_PAGE, 1)
    network.trace.record(0.0, 0, "loss_detected", name=name)
    network.trace.record(0.0, 0, "request_timer_set", name=name,
                         delay=4.0, backoff=0, ignore_until=None)
    # Backoff 2 next: the count must advance by exactly one.
    network.trace.record(0.0, 0, "request_timer_set", name=name,
                         delay=16.0, backoff=2, ignore_until=None)
    assert oracle_names(suite) == ["request-timer"]
    assert "jumped" in suite.violations[0].message


@pytest.mark.plants_violation
def test_request_oracle_rejects_timer_without_loss_detection():
    network = two_node_network()
    suite = single_oracle_suite(network, RequestTimerOracle)
    network.trace.record(0.0, 0, "request_timer_set",
                         name=AduName(1, DEFAULT_PAGE, 1),
                         delay=4.0, backoff=0, ignore_until=None)
    assert any("without a loss detection" in violation.message
               for violation in suite.violations)


@pytest.mark.plants_violation
def test_request_oracle_rejects_delay_outside_interval():
    network = two_node_network()
    suite = single_oracle_suite(network, RequestTimerOracle)
    # Attach a real agent so the oracle can see C1/C2 and the distance.
    from repro.core.agent import SrmAgent
    from repro.core.config import SrmConfig
    agent = SrmAgent(SrmConfig(), RandomSource(0))
    network.attach(0, agent)
    group = network.groups.allocate()
    agent.join_group(group)
    name = AduName(1, DEFAULT_PAGE, 1)  # source is node 1, distance 1
    network.trace.record(0.0, 0, "loss_detected", name=name)
    # C1=C2=2, d=1, backoff 0: delay must lie in [2, 4]. 9.0 is illegal.
    network.trace.record(0.0, 0, "request_timer_set", name=name,
                         delay=9.0, backoff=0, ignore_until=None)
    assert any("outside" in violation.message
               for violation in suite.violations)


@pytest.mark.plants_violation
def test_request_oracle_rejects_unjustified_dup_ignore():
    network = two_node_network()
    suite = single_oracle_suite(network, RequestTimerOracle)
    network.trace.record(0.0, 0, "request_dup_ignored",
                         name=AduName(1, DEFAULT_PAGE, 1))
    assert any("no ignore-backoff window" in violation.message
               for violation in suite.violations)


# ----------------------------------------------------------------------
# Repair hold-down
# ----------------------------------------------------------------------

@pytest.mark.plants_violation
def test_holddown_oracle_rejects_duplicate_repair_in_window():
    network = two_node_network()
    suite = single_oracle_suite(network, RepairHolddownOracle)
    name = AduName(1, DEFAULT_PAGE, 1)  # anchor = source node 1, d = 1
    network.trace.record(0.0, 0, "send_repair", name=name, answering=None)
    # Window runs to 3*d = 3.0; a second repair at 1.0 violates it.
    network.trace.record(1.0, 0, "send_repair", name=name, answering=None)
    assert oracle_names(suite) == ["repair-holddown"]
    assert "hold-down window" in suite.violations[0].message


@pytest.mark.plants_violation
def test_holddown_oracle_allows_repair_after_window():
    network = two_node_network()
    suite = single_oracle_suite(network, RepairHolddownOracle)
    name = AduName(1, DEFAULT_PAGE, 1)
    network.trace.record(0.0, 0, "send_repair", name=name, answering=None)
    network.trace.record(3.5, 0, "send_repair", name=name, answering=None)
    assert suite.violations == []


@pytest.mark.plants_violation
def test_holddown_oracle_rejects_phantom_holddown_claim():
    network = two_node_network()
    suite = single_oracle_suite(network, RepairHolddownOracle)
    network.trace.record(0.0, 0, "request_ignored_holddown",
                         name=AduName(1, DEFAULT_PAGE, 1))
    assert any("no hold-down window is in effect" in violation.message
               for violation in suite.violations)


@pytest.mark.plants_violation
def test_recovery_reset_clears_holddown_state():
    network = two_node_network()
    suite = single_oracle_suite(network, RepairHolddownOracle)
    name = AduName(1, DEFAULT_PAGE, 1)
    network.trace.record(0.0, 0, "send_repair", name=name, answering=None)
    network.trace.record(0.5, 0, "recovery_reset")
    network.trace.record(1.0, 0, "send_repair", name=name, answering=None)
    assert suite.violations == []


# ----------------------------------------------------------------------
# Suppression / repair timers
# ----------------------------------------------------------------------

@pytest.mark.plants_violation
def test_suppression_oracle_rejects_double_schedule():
    network = two_node_network()
    suite = single_oracle_suite(network, SuppressionOracle)
    name = AduName(1, DEFAULT_PAGE, 1)
    network.trace.record(0.0, 0, "repair_scheduled", name=name, requester=1)
    network.trace.record(0.1, 0, "repair_scheduled", name=name, requester=1)
    assert any("already pending" in violation.message
               for violation in suite.violations)


@pytest.mark.plants_violation
def test_suppression_oracle_rejects_repair_without_timer():
    network = two_node_network()
    suite = single_oracle_suite(network, SuppressionOracle)
    network.trace.record(0.0, 0, "send_repair",
                         name=AduName(1, DEFAULT_PAGE, 1), answering=None)
    assert any("without a scheduled repair timer" in violation.message
               for violation in suite.violations)


@pytest.mark.plants_violation
def test_suppression_oracle_rejects_unjustified_cancellation():
    network = two_node_network()
    suite = single_oracle_suite(network, SuppressionOracle)
    name = AduName(1, DEFAULT_PAGE, 1)
    network.trace.record(0.0, 0, "repair_scheduled", name=name, requester=1)
    # Cancelled with no repair heard at this instant: illegal suppression.
    network.trace.record(0.5, 0, "repair_cancelled", name=name)
    assert any("without a repair heard" in violation.message
               for violation in suite.violations)


# ----------------------------------------------------------------------
# Delivery / consistency
# ----------------------------------------------------------------------

class _StubStore:
    def __init__(self, holdings):
        self.holdings = dict(holdings)

    def have(self, name):
        return name in self.holdings

    def get(self, name):
        return self.holdings[name]


class _StubAgent:
    def __init__(self, holdings, pending=()):
        self.store = _StubStore(holdings)
        self.group = object()
        self._pending = set(pending)

    def pending_requests(self):
        return self._pending


def consistency_suite(network, agents):
    suite = SessionOracleSuite(network, agents=agents,
                               oracles=[DeliveryConsistencyOracle])
    network.trace.keep = None
    network.trace.subscribe(suite._on_record)
    return suite


def test_delivery_oracle_flags_missing_data():
    network = two_node_network()
    agents = {0: _StubAgent({NAME: "x"}), 1: _StubAgent({})}
    suite = consistency_suite(network, agents)
    network.trace.record(0.0, 0, "send_data", name=NAME)
    with pytest.raises(OracleViolationError) as excinfo:
        suite.verify()
    assert "never received" in str(excinfo.value)


@pytest.mark.plants_violation
def test_delivery_oracle_accepts_pending_and_abandoned():
    network = two_node_network()
    name2 = AduName(0, DEFAULT_PAGE, 2)
    agents = {0: _StubAgent({NAME: "x", name2: "y"}),
              1: _StubAgent({}, pending={NAME})}
    suite = consistency_suite(network, agents)
    network.trace.record(0.0, 0, "send_data", name=NAME)
    network.trace.record(0.0, 0, "send_data", name=name2)
    network.trace.record(1.0, 1, "request_abandoned", name=name2)
    assert not suite.verify()


def test_delivery_oracle_flags_inconsistent_copies():
    network = two_node_network()
    agents = {0: _StubAgent({NAME: "x"}), 1: _StubAgent({NAME: "DIFFERENT"})}
    suite = consistency_suite(network, agents)
    network.trace.record(0.0, 0, "send_data", name=NAME)
    report = suite.verify(raise_on_violation=False)
    assert any("consistency" in violation.message
               for violation in report.violations)


# ----------------------------------------------------------------------
# Reporting plumbing
# ----------------------------------------------------------------------

def test_violation_report_includes_trace_excerpt():
    suite = run_recovery_session(seed=11)
    # Manufacture a violation through the public path so the excerpt
    # machinery runs against the real trace.
    oracle = suite.oracles[0]
    record = suite.trace.records[len(suite.trace.records) // 2]
    oracle.violate(record.time, record.node, "synthetic failure")
    report = suite.report(context="excerpt test")
    text = report.format()
    assert "synthetic failure" in text
    assert "trace excerpt" in text
    assert "excerpt test" in text
    row = report.violations[0].to_dict()
    assert row["message"] == "synthetic failure"
    assert isinstance(row["excerpt"], list)


@pytest.mark.plants_violation
def test_suite_reset_clears_violations_and_state():
    network = two_node_network()
    suite = single_oracle_suite(network, RepairHolddownOracle)
    name = AduName(1, DEFAULT_PAGE, 1)
    network.trace.record(0.0, 0, "send_repair", name=name, answering=None)
    network.trace.record(1.0, 0, "send_repair", name=name, answering=None)
    assert suite.violations
    suite.reset()
    assert suite.violations == []
    # State is gone too: a repair right away is legal again.
    network.trace.record(1.5, 0, "send_repair", name=name, answering=None)
    assert suite.violations == []


def test_violation_error_carries_report():
    report = ViolationReport([Violation("x", 1.0, 0, "boom")], context="ctx")
    error = OracleViolationError(report)
    assert error.report is report
    assert "boom" in str(error)


# ----------------------------------------------------------------------
# Regression: leaving mid-recovery must not fire dangling timers
# ----------------------------------------------------------------------

def test_leave_group_mid_recovery_is_safe():
    """A member that leaves while its request timer is pending used to
    crash when the timer fired with no group ('no route to None');
    leave_group now resets recovery state first. The oracles confirm the
    remaining members still behave legally."""
    spec = chain(4)
    network, agents, _ = build_srm_session(spec, [0, 1, 2, 3], seed=21)
    members = [0, 1, 2]
    suite = SessionOracleSuite.attach(network, agents=agents,
                                      assert_delivery_members=members)
    network.add_drop_filter(2, 3, NthPacketDropFilter(
        lambda p: p.kind == "srm-data" and p.origin == 0))
    network.scheduler.schedule(0.0, lambda: agents[0].send_data("a"))
    network.scheduler.schedule(1.0, lambda: agents[0].send_data("b"))
    # Node 3 detects its loss at t=4 (trigger arrives after 3 hops) and
    # schedules a request timer at least 2*d=6 out; leaving at t=4.5
    # leaves that timer dangling.
    at(network, 4.5, agents[3].leave_group)
    network.run(max_events=2_000_000)
    assert network.trace.count("loss_detected", name=AduName(0, DEFAULT_PAGE, 1)) >= 1
    assert not suite.verify(raise_on_violation=False)
    for member in members:
        assert agents[member].store.have(AduName(0, DEFAULT_PAGE, 1))
