"""``repro fidelity``: the paper-vs-measured table (repro.experiments.fidelity).

One reduced-scale run of the whole table feeds most tests: every gating
claim holds, the printed table is the committed golden, and a parallel
run prints the same bytes. The exit-code contract (a falsified ``claim``
fails the command and names the row; a ``deviation`` never does) is
checked on a one-experiment table so it costs milliseconds.
"""

from __future__ import annotations

import io
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import fidelity
from repro.runner import ExperimentRunner

GOLDEN = Path(__file__).resolve().parents[1] / "results" / "fidelity.txt"


@pytest.fixture(scope="module")
def verdicts():
    return fidelity.run_fidelity(ExperimentRunner(), log=io.StringIO())


def test_every_claim_holds_at_reduced_scale(verdicts):
    assert fidelity.failed_claims(verdicts) == []
    assert len(verdicts) == sum(len(experiment.rows)
                                for experiment in fidelity.EXPERIMENTS)


def test_output_is_the_committed_golden(verdicts):
    assert fidelity.format_table(verdicts) + "\n" == GOLDEN.read_text()


def test_parallel_run_prints_the_same_table(verdicts):
    parallel = fidelity.run_fidelity(ExperimentRunner(jobs=2),
                                     log=io.StringIO())
    assert fidelity.format_table(parallel) == fidelity.format_table(verdicts)


def test_row_ids_are_unique_and_every_row_has_both_scales():
    ids = [row.id for experiment in fidelity.EXPERIMENTS
           for row in experiment.rows]
    assert len(ids) == len(set(ids))
    for experiment in fidelity.EXPERIMENTS:
        assert experiment.rows
        assert experiment.reduced and experiment.full
        assert set(experiment.reduced) == set(experiment.full)
        assert all(row.status in ("claim", "deviation")
                   for row in experiment.rows)


def _only(monkeypatch, row_id: str, **changes):
    """Shrink the table to the one row ``row_id``, with ``changes``."""
    experiment = next(e for e in fidelity.EXPERIMENTS
                      if any(row.id == row_id for row in e.rows))
    row = next(row for row in experiment.rows if row.id == row_id)
    monkeypatch.setattr(fidelity, "EXPERIMENTS", (
        replace(experiment, rows=(replace(row, **changes),)),))


def test_falsified_claim_fails_the_command_and_is_named(monkeypatch, capsys):
    _only(monkeypatch, "sec4a.one-request", ok=lambda measured: False)
    assert main(["fidelity", "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert "sec4a.one-request" in out.splitlines()[-1]
    assert "| NO" in out


def test_deviation_row_never_changes_the_exit_code(monkeypatch, capsys):
    _only(monkeypatch, "sec4a.one-request", ok=lambda measured: False,
          status="deviation")
    assert main(["fidelity", "--no-cache"]) == 0
    assert "NO (deviation)" in capsys.readouterr().out
    _only(monkeypatch, "sec4a.one-request")
    assert main(["fidelity", "--no-cache"]) == 0
