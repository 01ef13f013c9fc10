"""The FIGURES registry adds no behaviour of its own.

For every entry, ``Figure.run`` on an explicit serial runner prints what
a direct call of the figure's ``run_*`` function prints at the same seed
and (small) scale, and ``reportable`` says exactly whether the printed
parts carry a metrics bundle. (tests/test_cli.py holds the registry to
the goldens and to the three command lines that read it.)
"""

from __future__ import annotations

import importlib

import pytest

from repro.cli import REPORTABLE
from repro.experiments.figure12_13 import (find_adversarial_scenario,
                                           run_rounds_experiment)
from repro.experiments.figures import FIGURES, SCALE_FLAGS
from repro.metrics.bundle import RunMetrics
from repro.runner import ExperimentRunner

SMALL = {"sims": 1, "runs": 1, "rounds": 2}


def _direct(name, seed, **scale):
    """The same tables without the registry."""
    if name in ("figure12", "figure13"):
        return [run_rounds_experiment(
            find_adversarial_scenario(), adaptive=(name == "figure13"),
            seed=seed, **scale)]
    module = importlib.import_module(f"repro.experiments.{name}")
    run = getattr(module, f"run_{name}")
    if name == "figure15":
        return [run(mode="two-step", seed=seed, **scale),
                run(mode="one-step", seed=seed, **scale)]
    return [run(seed=seed, **scale)]


def test_scale_flags_are_the_union_in_first_seen_order():
    assert SCALE_FLAGS == ("sims", "runs", "rounds")
    assert set(SMALL) == set(SCALE_FLAGS)


@pytest.mark.parametrize("name", list(FIGURES))
def test_registry_run_prints_what_a_direct_call_prints(name):
    figure = FIGURES[name]
    scale = {flag: SMALL[flag] for flag in figure.scale}
    parts = figure.run(runner=ExperimentRunner(jobs=1), seed=figure.seed,
                       **scale)
    direct = _direct(name, figure.seed, **scale)
    assert [part.format_table() for part in parts] \
        == [part.format_table() for part in direct]
    # `reportable` (and cli.REPORTABLE, derived from it) is a fact about
    # the parts, not a second list to keep in step.
    carries = [isinstance(part.metrics, RunMetrics) for part in parts]
    assert all(carries) or not any(carries)
    assert figure.reportable == all(carries)
    assert (name in REPORTABLE) == figure.reportable
