"""Tests for the scenario fuzzer (repro.oracle.fuzz) and its CLI.

The pinned seeds below are part of the acceptance contract: campaign
seed 7 is clean on main, and case index 10 of that campaign is known to
catch the planted no-holddown bug (the catalog mutant of that name,
planted here with ``monkeypatch``). If the generator changes, re-derive
the pinned indexes.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.core.agent import SrmAgent
from repro.oracle.fuzz import (
    CASE_SEED_STRIDE,
    _member_zone,
    build_spec,
    case_seed,
    format_fuzz_report,
    generate_case,
    run_fuzz,
    run_fuzz_case,
    shrink_case,
)
from repro.net.routing import RootedIndex
from repro.runner import ExperimentRunner

#: Campaign (seed=7) case index known to trip the planted bug.
CAUGHT_INDEX = 10
CAUGHT_SEED = case_seed(7, CAUGHT_INDEX)


def serial_runner():
    return ExperimentRunner(jobs=1)


# ----------------------------------------------------------------------
# Case generation
# ----------------------------------------------------------------------

def test_case_generation_is_deterministic_and_pure_data():
    for index in range(8):
        seed = case_seed(3, index)
        case = generate_case(seed)
        assert case == generate_case(seed)
        # Pure JSON data: survives a round-trip unchanged, so cases can
        # be shipped to worker processes and printed in reports.
        assert json.loads(json.dumps(case)) == case
        assert case["case_seed"] == seed
        assert case["source"] in case["members"]
        assert all(m < case["nodes"] for m in case["members"])
        assert case["packets"] > len(case["data_drops"])


def test_member_zone_matches_per_member_tree_definition():
    """The zone is read off the shared rooted index on tree topologies,
    with no tree built per run; pin it to the definition it replaced (a
    full source tree per member)."""
    kinds = set()
    for index in range(30):
        case = generate_case(case_seed(11, index))
        kinds.add(case["topology"])
        members = case["members"]
        reference = build_spec(case).build()
        covered = set()
        for member in members:
            tree = reference.source_tree(member)
            for other in members:
                covered.update(tree.path(other))
        network = build_spec(case).build()
        assert _member_zone(network, members) == sorted(covered)
        if case["topology"] != "mesh":
            # Read off the shared rooted index, which keeps no tree.
            assert isinstance(network._routes, RootedIndex)
            assert network._routes is reference._routes
    assert "mesh" in kinds and len(kinds) >= 3


def test_case_seed_spacing_makes_each_case_standalone():
    """Running a 1-round campaign at a failing case's seed regenerates
    exactly that case (the reproduce instruction in reports)."""
    campaign_case = generate_case(case_seed(7, 4))
    standalone = generate_case(case_seed(campaign_case["case_seed"], 0))
    assert standalone == campaign_case
    assert case_seed(7, 4) == 7 + 4 * CASE_SEED_STRIDE


# ----------------------------------------------------------------------
# Case execution
# ----------------------------------------------------------------------

def test_clean_campaign_has_no_failures():
    outcome = run_fuzz(rounds=10, seed=7, runner=serial_runner())
    assert outcome["failures"] == []
    assert "0 violations" in format_fuzz_report(outcome)


def test_crash_is_reported_not_raised():
    case = generate_case(case_seed(7, 0))
    case["topology"] = "not-a-topology"
    result = run_fuzz_case(case=case)
    assert result["error"] is not None
    assert "not-a-topology" in result["error"]
    assert result["violations"] == []


# ----------------------------------------------------------------------
# The acceptance scenario: a planted bug is caught, shrunk, reported
# ----------------------------------------------------------------------

@pytest.fixture
def no_holddown(monkeypatch):
    """Plant the ``no-holddown`` mutant: answering a request starts no
    hold-down window. A fork-started ``--jobs 2`` pool inherits it."""
    monkeypatch.setattr(SrmAgent, "_set_holddown",
                        lambda self, name, first_requester: None)


@pytest.mark.plants_violation
def test_injected_holddown_bug_is_caught(no_holddown):
    result = run_fuzz_case(case=generate_case(CAUGHT_SEED))
    assert result["error"] is None
    oracles = {violation["oracle"] for violation in result["violations"]}
    assert "repair-holddown" in oracles


@pytest.mark.plants_violation
def test_injected_bug_shrinks_to_smaller_case(no_holddown):
    case = generate_case(CAUGHT_SEED)
    minimized = shrink_case(case, "repair-holddown")
    # Strictly simpler on at least the horizon (greedy shrinking always
    # tries to cut the run right past the violation)...
    assert minimized["horizon"] is not None
    # ...and never more complex anywhere.
    assert len(minimized["members"]) <= len(case["members"])
    assert len(minimized["data_drops"]) <= len(case["data_drops"])
    assert len(minimized["churn"]) <= len(case["churn"])
    assert minimized["packets"] <= case["packets"]
    assert minimized["nodes"] <= case["nodes"]
    # The minimized case still reproduces the violation.
    result = run_fuzz_case(case=minimized)
    assert any(violation["oracle"] == "repair-holddown"
               for violation in result["violations"])


@pytest.mark.plants_violation
def test_campaign_reports_failure_with_reproducing_seed(no_holddown):
    outcome = run_fuzz(rounds=CAUGHT_INDEX + 1, seed=7,
                       runner=serial_runner())
    assert outcome["failures"]
    failure = next(f for f in outcome["failures"]
                   if f["index"] == CAUGHT_INDEX)
    assert failure["case_seed"] == CAUGHT_SEED
    assert failure["minimized"] is not None
    report = format_fuzz_report(outcome)
    assert f"--rounds 1 --seed {CAUGHT_SEED}" in report
    assert "repair-holddown" in report
    assert "minimized case:" in report


@pytest.mark.plants_violation
def test_failure_report_reads_the_same_at_any_job_count(no_holddown):
    """Packet uids come from a process-wide counter, so the report masks
    them (``packet=*``): it must not depend on the job count or on what
    the process ran before."""
    reports = [format_fuzz_report(run_fuzz(
        rounds=CAUGHT_INDEX + 1, seed=7, runner=ExperimentRunner(jobs=jobs),
        shrink=False)) for jobs in (1, 2, 1)]
    assert reports[0] == reports[1] == reports[2]
    assert "packet=*" in reports[0]
    assert "packet=1" not in reports[0]


def test_parallel_campaign_matches_serial():
    serial = run_fuzz(rounds=6, seed=11, runner=serial_runner(),
                      shrink=False)
    parallel = run_fuzz(rounds=6, seed=11,
                        runner=ExperimentRunner(jobs=2), shrink=False)
    assert serial == parallel


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_fuzz_clean_exits_zero(capsys):
    assert cli_main(["fuzz", "--rounds", "3", "--seed", "7"]) == 0
    assert "0 violations" in capsys.readouterr().out


@pytest.mark.plants_violation
def test_cli_fuzz_injected_bug_exits_nonzero(no_holddown, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["fuzz", "--rounds", str(CAUGHT_INDEX + 1), "--seed", "7",
                  "--no-shrink"])
    assert excinfo.value.code == 1
    assert "repair-holddown" in capsys.readouterr().out


def test_cli_fuzz_has_no_inject_option(capsys):
    """Planted bugs live in the mutant catalog, not behind a flag."""
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["fuzz", "--inject", "no-holddown"])
    assert excinfo.value.code == 2
    assert "--inject" in capsys.readouterr().err


def test_cli_check_flag_sets_check_mode(monkeypatch, capsys):
    import os

    # setenv (not delenv) so monkeypatch restores the pre-test state
    # even though the CLI itself mutates os.environ.
    monkeypatch.setenv("SRM_CHECK", "")
    assert cli_main(["robustness", "--rounds", "1", "--check"]) == 0
    assert os.environ.get("SRM_CHECK") == "1"
    capsys.readouterr()
