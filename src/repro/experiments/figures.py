"""What a figure is, once: the registry the command line reads.

Each :class:`Figure` names one ``repro figureN`` command: the function
that runs its sweep, its default seed, and the scale flags it reads with
their command-line defaults. ``repro <figure>``, ``repro report
<figure>`` and ``repro fleet submit --figure <figure>`` all take their
flags, defaults and seed from here, so the three run the same sweep;
``tests/test_cli.py`` holds the registry, the ``results/*.txt`` goldens
and those command lines to each other.

This module imports the figure modules, never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import run_figure7
from repro.experiments.figure8 import run_figure8
from repro.experiments.figure12_13 import run_figure12, run_figure13
from repro.experiments.figure14 import run_figure14
from repro.experiments.figure15 import run_figure15


@dataclass(frozen=True)
class Figure:
    """One figure command."""

    name: str
    #: ``run(runner=, seed=, **scale)`` -> the result objects to print,
    #: in order, one ``format_table()`` each.
    run: Callable[..., Tuple[Any, ...]]
    seed: int
    #: The scale flags the figure reads -> their CLI defaults, in
    #: ``--help`` order. (The ``run_*`` functions' own defaults are the
    #: paper's scale; these are what ``repro <figure>`` and its golden
    #: use.)
    scale: Dict[str, int]
    #: Whether the parts carry a RunMetrics bundle ``repro report`` can
    #: render (Fig. 15 is analytic: none).
    reportable: bool = True


def _one_table(run: Callable[..., Any]) -> Callable[..., Tuple[Any, ...]]:
    return lambda **arguments: (run(**arguments),)


def _figure15(**arguments: Any) -> Tuple[Any, ...]:
    """Two-step repairs, then the one-step variant they improve on."""
    return (run_figure15(mode="two-step", **arguments),
            run_figure15(mode="one-step", **arguments))


FIGURES: Dict[str, Figure] = {figure.name: figure for figure in (
    Figure("figure3", _one_table(run_figure3), 3, {"sims": 20}),
    Figure("figure4", _one_table(run_figure4), 4, {"sims": 20}),
    Figure("figure5", _one_table(run_figure5), 5, {"sims": 20}),
    Figure("figure6", _one_table(run_figure6), 6, {"sims": 20}),
    Figure("figure7", _one_table(run_figure7), 7, {"sims": 20}),
    Figure("figure8", _one_table(run_figure8), 8, {"sims": 20}),
    Figure("figure12", _one_table(run_figure12), 12,
           {"runs": 3, "rounds": 60}),
    Figure("figure13", _one_table(run_figure13), 13,
           {"runs": 3, "rounds": 60}),
    Figure("figure14", _one_table(run_figure14), 4,
           {"sims": 20, "rounds": 40}),
    Figure("figure15", _figure15, 15, {"sims": 20}, reportable=False),
)}

#: Every scale flag some figure reads, in first-seen order.
SCALE_FLAGS: Tuple[str, ...] = tuple(dict.fromkeys(
    flag for figure in FIGURES.values() for flag in figure.scale))
