"""Command-line entry point: regenerate any experiment from a shell.

Usage::

    python -m repro list
    python -m repro figure3 [--sims 20] [--seed 3]
    python -m repro figure4 --jobs 8 --manifest results/fig4.jsonl
    python -m repro figure13 [--runs 3] [--rounds 60]
    python -m repro robustness [--rounds 5]
    python -m repro congestion
    python -m repro fidelity [--full] [--jobs 4]
    python -m repro fuzz --rounds 100 --seed 7 --jobs 4
    python -m repro report figure3 --sims 4 --save metrics.json
    python -m repro report metrics.json
    python -m repro compare baseline.json candidate.json --threshold 0.1
    python -m repro live wb --members 3 --loss 0.05
    python -m repro live soak --packets 80 --loss 0.1 --check

Each figure command prints the series the paper plots, and is one
entry of :data:`repro.experiments.figures.FIGURES` (run function, seed,
the scale flags it reads and their defaults) that ``repro report`` and
``repro fleet submit`` read too; a flag a command does not read
(``repro figure3 --rounds 7``) is a usage error. ``repro
fidelity`` re-runs the experiments behind every claim of the paper's
evaluation (reduced scale, or the paper's with ``--full``), prints one
``figure | claim | paper | measured | ok`` row per claim, and exits 1
when a gating claim fails (``results/fidelity.txt``, EXPERIMENTS.md).

``repro live`` runs the same SRM core in real time on the asyncio
engine (:mod:`repro.live`): ``wb`` spawns one OS process per whiteboard
member over UDP loopback and checks byte-identical convergence, and
``soak`` cross-validates live metrics bundles against a matched
simulator run (``--tolerance`` is accepted as an alias of
``--threshold`` on ``repro compare`` for the same gate).

``--check`` (available on every command) attaches the protocol oracles
of :mod:`repro.oracle` to each simulation: every run is validated online
against the paper's invariants, and any break aborts the command with a
structured violation report and trace excerpts. ``repro fuzz`` hunts for
violations in random scenarios and shrinks failures to minimized,
seed-reproducible cases; see ``docs/oracles.md``.

The figure sweeps execute on :class:`repro.runner.ExperimentRunner`:
``--jobs N`` fans independent rounds out to N worker processes,
results land in a content-addressed cache under ``results/.cache`` (so
an identical re-run is nearly free; disable with ``--no-cache``), and
``--manifest PATH`` appends a JSONL row per task for observability.
Parallel and serial runs print byte-identical tables: results are merged
in task order, never completion order.

``--metrics PATH`` persists the run's merged
:class:`~repro.metrics.bundle.RunMetrics` bundle as JSON; ``repro
report`` renders a bundle (or runs a figure and reports it), and
``repro compare`` gates a candidate bundle against a baseline with a
threshold-based regression exit code (see ``docs/metrics.md``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional

from repro import env
from repro.experiments.figures import FIGURES, SCALE_FLAGS, Figure
from repro.fleet import cli as fleet_cli
from repro.lint import cli as lint_cli
from repro.live import cli as live_cli

# ----------------------------------------------------------------------
# Shared option groups.
#
# Each command function is decorated with the option installers its
# subparser needs; build_parser() applies them. A command installs only
# the flags it reads, so a flag it would ignore is a usage error.
# ----------------------------------------------------------------------

FIGURE_FLAG_HELP = {"seed": "random seed",
                    "sims": "simulations per point",
                    "runs": "independent runs of the round sequence",
                    "rounds": "loss-recovery rounds per run"}


def with_options(*installers: Callable) -> Callable:
    """Attach argparse option installers to a command function."""
    def decorate(fn: Callable) -> Callable:
        fn.option_installers = installers
        return fn
    return decorate


def figure_options(seed: Optional[int],
                   scale: Mapping[str, Optional[int]]) -> Callable:
    """--seed plus a figure's scale flags, with its defaults."""
    def install(sub: argparse.ArgumentParser) -> None:
        for flag, default in {"seed": seed, **scale}.items():
            shown = "the figure's own" if default is None else default
            sub.add_argument(f"--{flag}", type=int, default=default,
                             help=f"{FIGURE_FLAG_HELP[flag]} "
                                  f"(default: {shown})")
    return install


#: ``report`` and ``fleet submit`` learn their figure only after parsing:
#: every scale flag, with None defaults that :func:`parse_args` fills in.
any_figure_options = figure_options(None, dict.fromkeys(SCALE_FLAGS))


def common_options(sub: argparse.ArgumentParser) -> None:
    """--profile/--check, for every experiment command."""
    sub.add_argument("--profile", action="store_true",
                     help="print kernel perf counters and events/sec "
                          "to stderr after the run (serial runs "
                          "report complete numbers; workers keep "
                          "their own counters)")
    sub.add_argument("--check", action="store_true",
                     help="attach the protocol oracles to every "
                          "simulation; abort with a violation "
                          "report on any invariant break")


def runner_options(sub: argparse.ArgumentParser) -> None:
    """--jobs/--no-cache/--cache-dir/--manifest/--metrics (runner knobs)."""
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the sweep "
                          "(1 = in-process serial)")
    sub.add_argument("--no-cache", action="store_true",
                     help="skip the on-disk result cache")
    sub.add_argument("--cache-dir", default=env.cache_dir(),
                     help="result cache location (default: %(default)s)")
    sub.add_argument("--manifest", default=None, metavar="PATH",
                     help="append a JSONL run manifest here")
    sub.add_argument("--metrics", default=None, metavar="PATH",
                     help="write the run's merged metrics bundle "
                          "(JSON) here")


def report_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("target",
                     help="a figure command to run and report on, or the "
                          "path of a saved metrics bundle (JSON)")
    sub.add_argument("--save", default=None, metavar="PATH",
                     help="also save the metrics bundle (JSON) here")


def compare_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("baseline", help="baseline metrics bundle (JSON)")
    sub.add_argument("candidate", help="candidate metrics bundle (JSON)")
    sub.add_argument("--threshold", "--tolerance", type=float,
                     default=None, dest="threshold",
                     help="relative regression tolerance per gated "
                          "metric (default: 0.10)")


def fuzz_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--rounds", type=int, default=50,
                     help="number of random scenarios (default: "
                          "%(default)s)")
    sub.add_argument("--seed", type=int, default=7,
                     help="campaign seed; case N runs with seed "
                          "seed + N * %d, so any failing case is "
                          "reproducible via --rounds 1 --seed "
                          "<case_seed> (default: %%(default)s)"
                          % 1_000_003)
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes (1 = in-process serial)")
    sub.add_argument("--no-shrink", action="store_true",
                     help="report failures as generated, skip "
                          "minimization")
    sub.add_argument("--shrink-limit", type=int, default=3,
                     help="minimize at most this many failing cases")
    sub.add_argument("--manifest", default=None, metavar="PATH",
                     help="append a JSONL run manifest here")


def scaling_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--sizes", default=None, metavar="N[,N...]",
                     help="comma-separated session sizes (default: "
                          "100,1000,10000,100000)")
    sub.add_argument("--smoke", action="store_true",
                     help="CI subset: drop the 10^5 point")
    sub.add_argument("--rounds", type=int, default=3,
                     help="loss-recovery rounds per point "
                          "(default: %(default)s)")
    sub.add_argument("--kinds", default="star,tree",
                     help="topology kinds to sweep (default: %(default)s)")
    sub.add_argument("--seed", type=int, default=0,
                     help="random seed (default: %(default)s)")
    sub.add_argument("--check", action="store_true",
                     help="attach the protocol oracles (keeps every "
                          "row and checks each round's metrics against "
                          "them; the table is unchanged, the 10^5 points "
                          "get slow)")
    sub.add_argument("--metrics", default=None, metavar="PATH",
                     help="write the sweep's merged metrics bundle "
                          "(JSON) here")


def fidelity_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--full", action="store_true",
                     help="run every experiment at the paper's scale "
                          "(default: the reduced, shape-preserving scale)")


def _make_runner(args):
    """Build the ExperimentRunner a figure command was asked for."""
    from repro.runner import ExperimentRunner, ResultCache

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return ExperimentRunner(jobs=args.jobs, cache=cache,
                            manifest_path=args.manifest,
                            metrics_path=getattr(args, "metrics", None))


# ----------------------------------------------------------------------
# Commands. The figure commands are built from the FIGURES registry;
# the rest are hand-written.
# ----------------------------------------------------------------------


def _figure_command(figure: Figure) -> Callable:
    @with_options(figure_options(figure.seed, figure.scale),
                  common_options, runner_options)
    def command(args, runner=None) -> tuple:
        """Run the figure at the parsed seed and scale; print and return
        its tables. (``fleet submit`` passes its own runner.)"""
        if runner is None:
            runner = _make_runner(args)
        parts = figure.run(runner=runner, seed=args.seed,
                           **{flag: getattr(args, flag)
                              for flag in figure.scale})
        print("\n\n".join(part.format_table() for part in parts))
        return parts
    return command


def robustness_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--rounds", type=int, default=5,
                     help="loss-recovery rounds per scenario family "
                          "(default: %(default)s)")
    sub.add_argument("--seed", type=int, default=55,
                     help="random seed (default: %(default)s)")


@with_options(robustness_options, common_options)
def _robustness(args):
    from repro.experiments.robustness import format_table, run_robustness
    print(format_table(run_robustness(rounds=args.rounds,
                                      seed=args.seed)))


@with_options(common_options)
def _congestion(args):
    from repro.experiments import congestion
    congestion.main()


@with_options(common_options, runner_options, fidelity_options)
def _fidelity(args):
    """The paper's claims vs measured, one checked table."""
    from repro.experiments import fidelity

    verdicts = fidelity.run_fidelity(_make_runner(args), full=args.full)
    print(fidelity.format_table(verdicts, full=args.full))
    return 1 if fidelity.failed_claims(verdicts) else 0


@with_options(fuzz_options)
def _fuzz(args):
    from repro.oracle.fuzz import format_fuzz_report, run_fuzz
    from repro.runner import ExperimentRunner

    runner = ExperimentRunner(jobs=args.jobs, manifest_path=args.manifest)
    outcome = run_fuzz(rounds=args.rounds, seed=args.seed, runner=runner,
                       shrink=not args.no_shrink,
                       shrink_limit=args.shrink_limit)
    print(format_fuzz_report(outcome))
    if outcome["failures"]:
        raise SystemExit(1)


@with_options(report_options, any_figure_options, common_options,
              runner_options)
def _report(args):
    from repro.metrics import format_metrics_report, load_bundle, save_bundle

    target = args.target
    if Path(target).is_file():
        print(format_metrics_report(load_bundle(target), source=target))
        return 0
    if target not in REPORTABLE:
        known = ", ".join(sorted(REPORTABLE))
        print(f"report: {target!r} is neither a metrics bundle file nor "
              f"a reportable figure (one of: {known})", file=sys.stderr)
        return 2
    (result,) = COMMANDS[target](args)
    print()
    print(format_metrics_report(result.metrics))
    if args.save:
        path = save_bundle(result.metrics, args.save)
        print(f"saved metrics bundle to {path}", file=sys.stderr)
    return 0


@with_options(scaling_options)
def _scaling(args):
    """Mega-session sweep on the vectorized herd engine."""
    from repro.experiments.scaling import (DEFAULT_SIZES, SMOKE_SIZES,
                                           run_scaling)

    if args.sizes is not None:
        sizes = tuple(int(part) for part in args.sizes.split(","))
    else:
        sizes = SMOKE_SIZES if args.smoke else DEFAULT_SIZES
    kinds = tuple(part.strip() for part in args.kinds.split(",") if part)
    result = run_scaling(sizes=sizes, rounds=args.rounds, seed=args.seed,
                         kinds=kinds)
    print(result.format_table())
    if args.metrics:
        from repro.metrics import save_bundle
        path = save_bundle(result.metrics, args.metrics)
        print(f"saved metrics bundle to {path}", file=sys.stderr)
    return result


@with_options(compare_options)
def _compare(args):
    from repro.metrics import DEFAULT_THRESHOLD, compare_bundles, load_bundle

    threshold = args.threshold if args.threshold is not None \
        else DEFAULT_THRESHOLD
    report = compare_bundles(load_bundle(args.baseline),
                             load_bundle(args.candidate),
                             threshold=threshold)
    print(report.format())
    return 0 if report.ok else 2


COMMANDS: Dict[str, Callable] = {
    **{name: _figure_command(figure) for name, figure in FIGURES.items()},
    "scaling": _scaling,
    "robustness": _robustness,
    "congestion": _congestion,
    "fidelity": _fidelity,
    "fuzz": _fuzz,
    "report": _report,
    "compare": _compare,
    # Own modules: SRM static analysis (docs/static-analysis.md), the
    # real-time engine (docs/live.md), the fleet service (docs/fleet.md).
    "lint": with_options(lint_cli.install_options)(
        lint_cli.run_lint_command),
    "live": with_options(live_cli.install_options)(
        live_cli.run_live_command),
    "fleet": with_options(fleet_cli.install_options)(
        fleet_cli.run_fleet_command),
}

#: Figure commands ``repro report`` can run and render.
REPORTABLE = frozenset(name for name, figure in FIGURES.items()
                       if figure.reportable)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the SRM paper's experiments.")
    subparsers = parser.add_subparsers(dest="command")
    subparsers.add_parser("list", help="list available experiments")
    for name, fn in COMMANDS.items():
        sub = subparsers.add_parser(name, help=f"run {name}")
        for installer in getattr(fn, "option_installers", ()):
            installer(sub)
    return parser


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """Parse a command line; an omitted --seed or scale flag becomes
    that of the figure being run, so ``repro figure3``, ``repro report
    figure3`` and ``repro fleet submit --figure figure3`` run the same
    sweep. The last two accept every figure's scale flags; one the named
    figure does not read is the usage error it is on ``repro figure3``.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    name = args.command
    if name == "report":
        name = args.target
    elif name == "fleet":
        name = args.figure
    figure = FIGURES.get(name)
    if figure is None:
        return args
    for flag in SCALE_FLAGS:
        if flag not in figure.scale and \
                getattr(args, flag, None) is not None:
            parser.error(f"unrecognized arguments: --{flag} "
                         f"({name} does not read it)")
    if args.seed is None:
        args.seed = figure.seed
    for flag, default in figure.scale.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
    return args


def main(argv: Optional[List[str]] = None) -> int:
    from repro.codec import WireFormatError
    from repro.oracle.base import OracleViolationError

    args = parse_args(argv)
    if args.command in (None, "list"):
        print("available experiments:")
        for name in COMMANDS:
            print(f"  {name}")
        return 0
    if getattr(args, "check", False):
        # The environment variable (not a module flag) switches the mode
        # on: runner (and fleet) worker processes inherit it, so
        # parallel sweeps are checked too.
        env.set_check(True)
    profile = getattr(args, "profile", False)
    if profile:
        from repro.sim import perf
        perf.reset()
    try:
        if profile:
            from repro.sim import perf
            with perf.measure() as timing:
                outcome = COMMANDS[args.command](args)
            # stderr, so profiled stdout stays byte-identical to a
            # plain run (and golden-output comparisons keep working).
            print(perf.counters().format_report(timing.wall_s),
                  file=sys.stderr)
        else:
            outcome = COMMANDS[args.command](args)
    except OracleViolationError as exc:
        # A protocol invariant broke under --check: show the structured
        # report (with trace excerpts) and fail the command.
        print(exc.report.format(), file=sys.stderr)
        return 1
    except WireFormatError as exc:
        # A file the command read is not what it claims to be (``repro
        # report`` / ``compare`` on a bundle): one line naming the file
        # and the bad key. Exit 2 stays "regression".
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into e.g. `head`; exit quietly like other CLIs.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    # report/compare return their own exit codes; figure commands return
    # result objects (or None), which map to success.
    return outcome if isinstance(outcome, int) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
