"""The protocol oracles watch the herd engine too.

``SRM_CHECK=1`` attaches the engine-independent oracle subset
(:data:`repro.herd.HERD_ORACLES`) to every herd round: scheduler-time
monotonicity and the request-timer interval/backoff/ignore-window
checker. Beyond "a clean round passes", the regression half of this file
proves the oracles have *teeth* against the vectorized code: a no-backoff
bug (the classic NACK-implosion regression the paper's exponential
backoff exists to prevent), planted by :func:`no_backoff` from outside
the engine, must be caught and reported.
"""

from __future__ import annotations

import pytest

from repro.core import timer_math
from repro.core.config import SrmConfig
from repro.experiments.common import ExperimentSpec, run_experiment
from repro.experiments.figure5 import star_scenario
from repro.experiments.scaling import star_scaling_scenario
from repro.fleet.wire import result_to_json
from repro.herd import HERD_ORACLES, HerdSimulation, attach_herd_oracles
from repro.herd import engine as herd_engine
from repro.oracle.base import OracleViolationError
from repro.oracle.checkers import (RequestTimerOracle,
                                   SchedulerMonotonicityOracle)


def test_clean_round_passes_under_check_mode(monkeypatch):
    monkeypatch.setenv("SRM_CHECK", "1")
    sim = HerdSimulation(star_scenario(16), seed=0)
    assert sim.oracle is not None
    # The oracles read individual timer rows: check mode keeps them all.
    assert sim.trace.keep is None
    outcome = sim.run_round()
    assert outcome.recovered


def test_check_mode_overrides_aggregate_request(monkeypatch):
    # Above FULL_TRACE_THRESHOLD too, check mode keeps every row and
    # holds the array-built bundle and report to them.
    monkeypatch.setenv("SRM_CHECK", "1")
    sim = HerdSimulation(star_scaling_scenario(600),
                         config=SrmConfig(c2=60.0), seed=0)
    assert not sim.full_trace
    assert sim.trace.keep is None
    assert sim.run_round().recovered
    assert len(sim.trace) > 600


def test_check_mode_leaves_a_herd_result_unchanged(monkeypatch):
    spec = ExperimentSpec(scenario=star_scaling_scenario(600),
                          config=SrmConfig(c2=60.0), seed=1, engine="herd")
    monkeypatch.delenv("SRM_CHECK", raising=False)
    unchecked = result_to_json(run_experiment(spec))
    monkeypatch.setenv("SRM_CHECK", "1")
    assert result_to_json(run_experiment(spec)) == unchecked


def no_backoff(monkeypatch):
    """Plant the canary bug: the herd's request timers ignore the
    backoff count, so a backed-off timer is drawn from the first
    round's interval."""
    timer = timer_math.request_timer
    bounds_vec = timer_math.request_delay_bounds_vec
    monkeypatch.setattr(
        herd_engine.timer_math, "request_timer",
        lambda distance, c1, c2, factor, count, u, now, ignore: timer(
            distance, c1, c2, factor, 0, u, now, ignore))
    monkeypatch.setattr(
        herd_engine.timer_math, "request_delay_bounds_vec",
        lambda distances, c1, c2, counts, factor: bounds_vec(
            distances, c1, c2, 0 * counts, factor))


def test_injected_no_backoff_bug_is_caught(monkeypatch):
    # The canary: without exponential backoff every backed-off timer
    # lands in the undoubled interval, which the request-timer oracle
    # flags as outside the bounds its backoff count sets.
    monkeypatch.setenv("SRM_CHECK", "1")
    no_backoff(monkeypatch)
    sim = HerdSimulation(star_scenario(16), seed=3)
    with pytest.raises(OracleViolationError):
        sim.run_round()


def test_injected_bug_invisible_without_check_mode(monkeypatch):
    # Sanity on the gate itself: with checking off the buggy round runs
    # to completion — the violation is caught by the oracle, not by an
    # engine-internal assertion.
    monkeypatch.delenv("SRM_CHECK", raising=False)
    no_backoff(monkeypatch)
    sim = HerdSimulation(star_scenario(16), seed=3)
    assert sim.oracle is None
    sim.run_round()


def test_manual_attachment_without_env(monkeypatch):
    monkeypatch.delenv("SRM_CHECK", raising=False)
    sim = HerdSimulation(star_scenario(12), seed=1)
    suite = attach_herd_oracles(sim)
    sim.run_round()
    suite.verify(context="manual herd round")


def test_herd_oracle_subset_is_the_engine_independent_pair():
    # The other checkers consume per-packet delivery rows the herd's
    # aggregate delivery model deliberately never emits; the
    # differential suite covers those properties by pinning herd rounds
    # to agent rounds. Growing this tuple is fine; shrinking it is not.
    assert SchedulerMonotonicityOracle in HERD_ORACLES
    assert RequestTimerOracle in HERD_ORACLES
