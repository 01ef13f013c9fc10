"""Experiment drivers: a ``run_*`` function per figure of the paper's
evaluation, returning a result object with (a) raw per-simulation rows
and (b) a ``format_table()`` rendering the series the paper plots.
:data:`repro.experiments.figures.FIGURES` says once what each figure
command is (run function, seed, scale flags) for the CLI, the fleet and
:mod:`repro.experiments.fidelity`, which runs them and checks the shapes
the paper claims, one table row per claim.

The unified execution API: describe a run as an
:class:`~repro.experiments.common.ExperimentSpec`, execute it with
:func:`~repro.experiments.common.run_experiment`, and get back a
:class:`~repro.experiments.common.RunResult` carrying the per-round
outcomes plus a :class:`~repro.metrics.bundle.RunMetrics` bundle. The
figure drivers are spec lists on :func:`~repro.experiments.common.run_sweep`.
"""

from repro.experiments.common import (
    ExperimentSpec,
    LossRecoverySimulation,
    RoundOutcome,
    RunResult,
    Scenario,
    candidate_drop_edges,
    choose_scenario,
    run_experiment,
    run_rounds,
    run_single_round,
)

__all__ = [
    "ExperimentSpec",
    "LossRecoverySimulation",
    "RoundOutcome",
    "RunResult",
    "Scenario",
    "candidate_drop_edges",
    "choose_scenario",
    "run_experiment",
    "run_rounds",
    "run_single_round",
]
