"""Production scheduler vs the naive reference, and calendar-queue regressions.

``EventScheduler`` promises the (time, seq) contract that
``tests/reference_scheduler.py`` spells out in one list and a ``min``:
any sequence of schedule / cancel / batch / timer operations (an
owner's arm, move, revive, cancel and release of its event) executes
identically on both. These tests drive that promise three ways
— a hypothesis property over random op sequences, a seed x topology
replay of full SRM sessions with the reference injected through
``scheduler=``, and targeted regressions for the perf-counter plumbing
the benchmarks rely on. (The file keeps its two-backend-era name, so
test names stay stable.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SrmConfig
from repro.core.names import AduName, DEFAULT_PAGE
from repro.experiments.common import LossRecoverySimulation
from repro.experiments.figure4 import figure4_scenarios
from repro.net.link import NthPacketDropFilter
from repro.sim import perf
from repro.sim.rng import RandomSource
from repro.sim.scheduler import (EventScheduler, SimulationError,
                                 create_scheduler)
from repro.topology.chain import chain
from repro.topology.random_tree import random_labeled_tree
from repro.topology.star import star

from conftest import build_srm_session, examples
from reference_scheduler import ReferenceScheduler

# ----------------------------------------------------------------------
# Property: any op sequence executes identically on production and
# reference
# ----------------------------------------------------------------------

# Delays drawn from a small grid *and* the continuum: the grid forces
# exact same-instant ties (the production tie-batch drain), the
# continuum exercises bucket-width adaptation.
_delay = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=5.0,
              allow_nan=False, allow_infinity=False))

_op = st.tuples(st.integers(0, 9), _delay)


def _drive(sched, ops):
    """Interpret an op list against a scheduler; return the event log."""
    log = []
    handles = []
    timers = []

    def fire(tag):
        log.append(("fire", round(sched.now, 9), tag))

    for i, (op, value) in enumerate(ops):
        if op <= 2:
            handles.append(sched.schedule(value, fire, i))
        elif op == 3:
            sched.schedule_at(sched.now + value, fire, -i)
        elif op == 4 and handles:
            handles[int(value * 977.0) % len(handles)].cancel()
        elif op == 5:
            batch = sched.schedule_many(
                [value, value * 0.5, value],
                lambda i=i: fire(f"m{i}"))
            handles.extend(batch)
        elif op == 6:
            # An owner arms a protocol timer: the event is the timer.
            timers.append(sched.schedule(value, fire, f"t{i}"))
        elif op == 7 and timers:
            # ... and moves (or revives), cancels or releases it,
            # rebinding the handle a move returns.
            k = int(value * 977.0) % len(timers)
            choice = int(value * 31.0) % 4
            if choice == 0:
                timers[k] = sched.reschedule_event(timers[k], value)
            elif choice == 1:
                timers[k] = sched.reschedule_event(timers[k], value * 0.5)
            elif choice == 2:
                timers[k].cancel()
            else:
                timers.pop(k).release()
        elif op == 8:
            sched.run(until=sched.now + value)
            log.append(("ran", round(sched.now, 9), sched.pending()))
        else:
            sched.step()
            peek = sched.peek_time()
            log.append(("peek", round(sched.now, 9),
                        None if peek is None else round(peek, 9)))
    sched.run(until=sched.now + 30.0)
    log.append(("end", round(sched.now, 9), sched.pending()))
    return log


@settings(max_examples=examples(40))
@given(ops=st.lists(_op, min_size=1, max_size=80))
def test_backends_execute_any_op_sequence_identically(ops):
    assert _drive(EventScheduler(), ops) == _drive(ReferenceScheduler(), ops)


@settings(max_examples=examples(20))
@given(ops=st.lists(_op, min_size=1, max_size=60))
def test_backends_agree_on_lifecycle_counters(ops):
    # In particular the in-place ``reschedule_event`` move counts exactly
    # like the reference's cancel + schedule fallback.
    counts = []
    for make in (EventScheduler, ReferenceScheduler):
        perf.GLOBAL.reset()
        _drive(make(), ops)
        counts.append(perf.GLOBAL.as_dict())
    for key in ("events_scheduled", "events_executed", "events_cancelled"):
        assert counts[0][key] == counts[1][key], key


def test_schedule_many_rejecting_a_delay_matches_reference():
    # A negative delay mid-list raises with the earlier entries armed,
    # counted and numbered, as one schedule() call per delay leaves them.
    runs = []
    for make in (EventScheduler, ReferenceScheduler):
        sched = make()
        log = []
        with pytest.raises(SimulationError):
            sched.schedule_many([1.0, 2.0, -1.0],
                                lambda sched=sched: log.append(sched.now))
        sched.schedule(1.0, log.append, "after")
        pending = sched.pending()
        runs.append((pending, sched.run(), log))
    assert runs[0] == runs[1] == (3, 3, [1.0, "after", 2.0])


# ----------------------------------------------------------------------
# Replay: full SRM sessions are identical on production and reference
# ----------------------------------------------------------------------

def _session_trace(make, delivery, seed, spec_name, monkeypatch):
    # Packet uids flow into trace details and come from a process-global
    # counter; restart it so both runs see identical ids.
    import itertools

    from repro.net import packet as packet_module
    monkeypatch.setattr(packet_module, "_packet_uids", itertools.count(1))
    rng = RandomSource(seed)
    if spec_name == "chain":
        spec = chain(6)
    elif spec_name == "star":
        spec = star(6)
    else:
        spec = random_labeled_tree(8, rng)
    members = list(range(spec.num_nodes))
    network, agents, _ = build_srm_session(
        spec, members, seed=seed, delivery=delivery, scheduler=make())
    assert type(network.scheduler) is make
    source = members[0]
    drop_link = rng.choice(spec.edges)
    network.add_drop_filter(*drop_link, NthPacketDropFilter(
        lambda p: p.kind == "srm-data" and p.origin == source, n=1))
    for i in range(4):
        network.scheduler.schedule(
            float(i), lambda i=i: agents[source].send_data(f"p{i}"))
    network.run(max_events=500_000)
    for member in members:
        assert agents[member].store.have(AduName(source, DEFAULT_PAGE, 4))
        # Releases every context's event (armed, moved, cancelled or
        # fired above) on whichever scheduler the run used.
        agents[member].reset_recovery_state()
    assert network.scheduler.pending() == 0
    return [(r.time, r.node, r.kind, repr(r.detail))
            for r in network.trace]


@pytest.mark.parametrize("spec_name", ["chain", "star", "tree"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_seed_matrix_replay_is_identical_across_backends(
        seed, spec_name, monkeypatch):
    for delivery in ("direct", "hop"):
        production, reference = (
            _session_trace(make, delivery, seed, spec_name, monkeypatch)
            for make in (EventScheduler, ReferenceScheduler))
        assert production == reference
        assert len(production) > 0


def test_a_recovery_round_runs_and_closes_on_the_reference(monkeypatch):
    """A figure-4 round on the reference scheduler has the production
    scheduler's outcome, and ``close`` clears either one the same way:
    a dropped event reads not pending, and the clock and counters stay."""
    monkeypatch.delenv("SRM_CHECK", raising=False)
    scenario = figure4_scenarios(sizes=(20,), sims=1, seed=4)[0]
    runs = []
    for make in (EventScheduler, ReferenceScheduler):
        sim = LossRecoverySimulation(scenario, SrmConfig(), seed=3,
                                     scheduler=make())
        outcome = sim.run_round()
        scheduler = sim.network.scheduler
        late = scheduler.schedule(1.0, sim.source_agent.send_data, "late")
        clock = (scheduler.now, scheduler.events_processed)
        sim.close()
        assert not late.pending and scheduler.pending() == 0
        assert (scheduler.now, scheduler.events_processed) == clock
        runs.append((outcome, clock))
    assert runs[0] == runs[1]
    assert runs[0][0].recovered


# ----------------------------------------------------------------------
# Perf-counter regressions the benchmarks rely on
# ----------------------------------------------------------------------

def test_batched_deliveries_counter_counts_merged_events():
    perf.GLOBAL.reset()
    network, agents, _ = build_srm_session(star(8), range(1, 9))
    network.scheduler.schedule(0.0, lambda: agents[1].send_data("x"))
    network.run(max_events=100_000)
    # The 7 leaf receivers sit at equal distance: their deliveries merge
    # into batched events, each saving all-but-one scheduler event.
    assert perf.GLOBAL.batched_deliveries > 0


def test_calendar_counters_move_under_churn():
    perf.GLOBAL.reset()
    sched = create_scheduler()  # the zero-arg factory the ledger imports
    assert type(sched) is EventScheduler
    rng = RandomSource(3)
    for i in range(5000):
        sched.schedule(rng.uniform(0.0, 50.0), lambda: None)
    sched.run()
    assert perf.GLOBAL.bucket_resizes > 0
    assert perf.GLOBAL.bucket_scan_len > 0
