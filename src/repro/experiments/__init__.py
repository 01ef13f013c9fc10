"""Experiment drivers: one module per figure of the paper's evaluation.

Every module exposes a ``run_*`` function returning a result object with
(a) raw per-simulation rows and (b) a ``format_table()`` rendering the
same series the paper plots. :mod:`repro.experiments.fidelity` runs
them and checks the shapes the paper claims, one table row per claim.

The unified execution API: describe a run as an
:class:`~repro.experiments.common.ExperimentSpec`, execute it with
:func:`~repro.experiments.common.run_experiment`, and get back a
:class:`~repro.experiments.common.RunResult` carrying the per-round
outcomes plus a :class:`~repro.metrics.bundle.RunMetrics` bundle. The
figure drivers are thin declarative sweeps over specs.
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
