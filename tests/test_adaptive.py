"""Tests for the adaptive timer algorithm (Section VII-A)."""

import pytest

from repro.core.adaptive import AdaptiveTimers
from repro.core.config import AdaptiveBounds, SrmConfig
from repro.experiments.common import LossRecoverySimulation, Scenario
from repro.topology.btree import balanced_tree
from repro.topology.star import star


def controller(group_size=100, **config_overrides):
    config = SrmConfig(adaptive=True, **config_overrides)
    return AdaptiveTimers(config, group_size)


# ----------------------------------------------------------------------
# Controller unit tests
# ----------------------------------------------------------------------

def test_initial_parameters_match_fixed_settings():
    ctl = controller(group_size=1000)
    assert ctl.params.c1 == 2.0
    assert ctl.params.c2 == 2.0
    assert ctl.params.d1 == pytest.approx(3.0)
    assert ctl.params.d2 == pytest.approx(3.0)


def test_high_duplicates_widen_request_interval():
    ctl = controller()
    ctl.request_period_start()
    for _ in range(25):
        for _ in range(4):  # four duplicates per period
            ctl.record_duplicate_request(we_sent=False,
                                         requester_distance=0,
                                         our_distance=1)
        ctl.request_period_start()
    # ave_dup_req climbed above the target of 1; C2 grew by +0.5 steps.
    assert ctl.request.ave_dup > 1.0
    assert ctl.params.c2 > 2.0


def test_low_duplicates_high_delay_shrink_interval():
    ctl = controller()
    ctl.request_period_start()
    for _ in range(30):  # push the delay EWMA above the 1-RTT target
        ctl.record_request_sent()
        ctl.record_request_delay(5.0)
    before = ctl.params.c2
    ctl.request_period_start()
    assert ctl.request.ave_delay > 1.0
    assert ctl.params.c2 < before


def test_c2_decrease_requires_small_duplicates():
    ctl = controller()
    # Prime ave_dup to sit between 0.5 and 1 (no increase, no decrease).
    for _ in range(60):
        ctl.record_duplicate_request(we_sent=False, requester_distance=0,
                                     our_distance=1)
        ctl.request_period_start()
    ctl.record_request_delay(5.0)
    state = ctl.request
    assert state.ave_dup > 0.5
    c2 = ctl.params.c2
    ctl.request_period_start()
    assert ctl.params.c2 >= c2 - 1e-9 or state.ave_dup > 1.0


#: Figs. 9-10's decrease band: (ave_dup as a fraction of the duplicate
#: target, is ave_delay above its target, does C2/D2 shrink). The
#: interval shrinks only when the delay is high *and* duplicates are
#: below half the target -- including between a quarter and a half.
DECREASE_BAND = [
    (0.0, True, True),
    (0.3, True, True),
    (0.49, True, True),
    (0.51, True, False),
    (0.9, True, False),
    (0.3, False, False),
]


@pytest.mark.parametrize("side, param", [("request", "c2"),
                                         ("repair", "d2")])
@pytest.mark.parametrize("dup_fraction, delay_high, shrinks", DECREASE_BAND)
def test_interval_shrinks_only_below_half_the_duplicate_target(
        side, param, dup_fraction, delay_high, shrinks):
    ctl = controller(group_size=1000)
    cfg = ctl.config
    state = getattr(ctl, side)
    state.ave_dup = dup_fraction * cfg.ave_dups_target
    state.ave_delay = cfg.ave_delay_target * (5.0 if delay_high else 0.5)
    before = getattr(ctl.params, param)
    # The first period closes empty, so the averages set above stand.
    getattr(ctl, f"{side}_period_start")()
    expected = before - cfg.c2_decrease if shrinks else before
    assert getattr(ctl.params, param) == pytest.approx(expected)


def test_parameters_respect_bounds():
    bounds = AdaptiveBounds(c1_min=0.5, c1_max=2.0, c2_min=1.0, c2_max=4.0)
    ctl = controller(adaptive_bounds=bounds)
    for _ in range(50):
        ctl.record_duplicate_request(we_sent=False, requester_distance=0,
                                     our_distance=1)
        ctl.record_duplicate_request(we_sent=False, requester_distance=0,
                                     our_distance=1)
        ctl.request_period_start()
    assert ctl.params.c2 == 4.0
    assert ctl.params.c1 == 2.0
    for _ in range(200):
        ctl.record_request_sent()
        ctl.record_request_delay(10.0)
        ctl.request_period_start()
    assert ctl.params.c1 >= 0.5
    assert ctl.params.c2 >= 1.0


def test_sending_request_lowers_c1():
    """Deterministic-suppression mechanism 1: reduce C1 after sending."""
    ctl = controller()
    before = ctl.params.c1
    ctl.record_request_sent()
    assert ctl.params.c1 == pytest.approx(before - 0.05)


def test_far_duplicate_lowers_c1_only_for_senders():
    """Mechanism 2: a member that sent the request and then hears a
    duplicate from a member >1.5x farther moves earlier."""
    ctl = controller()
    before = ctl.params.c1
    ctl.record_duplicate_request(we_sent=True, requester_distance=10.0,
                                 our_distance=2.0)
    assert ctl.params.c1 == pytest.approx(before - 0.05)
    # A non-sender does not react.
    ctl2 = controller()
    before2 = ctl2.params.c1
    ctl2.record_duplicate_request(we_sent=False, requester_distance=10.0,
                                  our_distance=2.0)
    assert ctl2.params.c1 == before2
    # A near duplicate does not trigger it either.
    ctl3 = controller()
    before3 = ctl3.params.c1
    ctl3.record_duplicate_request(we_sent=True, requester_distance=2.5,
                                  our_distance=2.0)
    assert ctl3.params.c1 == before3


def test_repair_side_mirrors_request_side():
    ctl = controller(group_size=1000)
    ctl.repair_period_start()
    for _ in range(25):
        for _ in range(4):
            ctl.record_duplicate_repair(we_sent=False, replier_distance=0,
                                        our_distance=1)
        ctl.repair_period_start()
    assert ctl.params.d2 > 3.0


def test_d1_capped_at_initial_value():
    """D1 may only shrink (habitual repliers) and drift back; inflating
    it would delay every repair and provoke re-requests."""
    ctl = controller(group_size=1000)
    for _ in range(50):
        ctl.record_duplicate_repair(we_sent=False, replier_distance=0,
                                    our_distance=1)
        ctl.repair_period_start()
    assert ctl.params.d1 <= 3.0 + 1e-9


def test_sending_repair_lowers_d1():
    ctl = controller(group_size=1000)
    before = ctl.params.d1
    ctl.record_repair_sent()
    assert ctl.params.d1 == pytest.approx(before - 0.05)


def test_ewma_weight_controls_smoothing():
    ctl = controller(ewma_weight=0.5)
    ctl.request_period_start()
    ctl.record_duplicate_request(we_sent=False, requester_distance=0,
                                 our_distance=1)
    ctl.record_duplicate_request(we_sent=False, requester_distance=0,
                                 our_distance=1)
    ctl.request_period_start()
    assert ctl.request.ave_dup == pytest.approx(1.0)  # 0.5 * 2


def test_first_period_does_not_fold_empty_sample():
    ctl = controller()
    ctl.request_period_start()  # nothing happened yet
    assert ctl.request.ave_dup == 0.0


# ----------------------------------------------------------------------
# Integration: duplicates actually fall over rounds
# ----------------------------------------------------------------------

def test_adaptive_reduces_star_request_implosion():
    """A star with many simultaneous detectors: fixed C2=2 gives a burst
    of duplicate requests every round; the adaptive algorithm widens C2
    until the burst collapses."""
    spec = star(40)
    members = list(range(1, 41))
    scenario = Scenario(spec=spec, members=members, source=1,
                        drop_edge=(1, 0))
    fixed = LossRecoverySimulation(scenario, config=SrmConfig(), seed=3)
    fixed_requests = [fixed.run_round().requests for _ in range(30)]
    adaptive = LossRecoverySimulation(scenario,
                                      config=SrmConfig(adaptive=True),
                                      seed=3)
    adaptive_requests = [adaptive.run_round().requests for _ in range(30)]
    assert sum(fixed_requests[-10:]) / 10 > 5
    assert sum(adaptive_requests[-10:]) / 10 < \
        sum(fixed_requests[-10:]) / 10 / 2


def test_adaptive_reduces_sparse_tree_repair_duplicates():
    spec = balanced_tree(200, 4)
    members = [0, 3, 17, 33, 64, 90, 120, 150, 180, 199]
    scenario = Scenario(spec=spec, members=members, source=0,
                        drop_edge=(48, 195))
    # Find a real drop edge on the source tree that cuts >= 1 member.
    from repro.experiments.common import candidate_drop_edges
    network = spec.build()
    edges = candidate_drop_edges(network, 0, members)
    scenario = Scenario(spec=spec, members=members, source=0,
                        drop_edge=edges[-1])
    fixed = LossRecoverySimulation(scenario, config=SrmConfig(), seed=5)
    fixed_repairs = [fixed.run_round().repairs for _ in range(40)]
    adaptive = LossRecoverySimulation(scenario,
                                      config=SrmConfig(adaptive=True),
                                      seed=5)
    adaptive_repairs = [adaptive.run_round().repairs for _ in range(40)]
    assert sum(adaptive_repairs[-10:]) <= sum(fixed_repairs[-10:])


def test_adaptive_recovery_still_complete():
    spec = star(20)
    scenario = Scenario(spec=spec, members=list(range(1, 21)), source=1,
                        drop_edge=(1, 0))
    simulation = LossRecoverySimulation(scenario,
                                        config=SrmConfig(adaptive=True),
                                        seed=1)
    for _ in range(20):
        outcome = simulation.run_round()
        assert outcome.recovered
