"""The ``repro lint`` command.

Exit codes:

* ``0`` — clean (after suppressions and baseline waiving)
* ``1`` — violations (or an external tool failed, or a race finding,
  or stale baseline entries under ``--fail-stale-baseline``)
* ``2`` — usage / configuration error, including a ``--update-baseline``
  that would *grow* the baseline (the ratchet refuses) and a
  ``--update-wire-lock`` for a changed surface without a schema bump
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.baseline import (BaselineError, load_baseline,
                                 save_baseline)
from repro.lint.engine import LintEngine
from repro.lint.external import run_mypy, run_ruff
from repro.lint.rules import all_rules

DEFAULT_BASELINE = "lint-baseline.json"
DEFAULT_PATHS = ("src", "tests")
FORMATS = ("text", "json", "github")


def install_options(sub: argparse.ArgumentParser) -> None:
    """Argparse options for the lint command (used by repro.cli)."""
    sub.add_argument("paths", nargs="*", default=None,
                     help="files or directories to lint "
                          "(default: src tests)")
    sub.add_argument("--baseline", default=DEFAULT_BASELINE,
                     metavar="PATH",
                     help="baseline file (default: %(default)s)")
    sub.add_argument("--no-baseline", action="store_true",
                     help="report baselined violations too")
    sub.add_argument("--update-baseline", action="store_true",
                     help="shrink the baseline to match reality; "
                          "refuses to grow it")
    sub.add_argument("--fail-stale-baseline", action="store_true",
                     help="fail when baseline entries have zero hits "
                          "(dead debt; run --update-baseline)")
    sub.add_argument("--select", default=None, metavar="CODES",
                     help="comma-separated rule codes to run "
                          "(default: all)")
    sub.add_argument("--format", default="text", choices=FORMATS,
                     dest="output_format",
                     help="report format (github emits ::error "
                          "annotations for CI)")
    sub.add_argument("--list-rules", action="store_true",
                     help="print every rule code and exit")
    sub.add_argument("--mypy", action="store_true",
                     help="also run mypy (skipped if not installed)")
    sub.add_argument("--ruff", action="store_true",
                     help="also run ruff check (skipped if not "
                          "installed)")
    sub.add_argument("--external", action="store_true",
                     help="shorthand for --mypy --ruff")
    # -- dynamic tie-order race detector (repro.lint.races) ------------
    sub.add_argument("--races", action="store_true",
                     help="replay scenarios under permuted same-instant "
                          "drain orders and diff the traces")
    sub.add_argument("--race-permutations", type=int, default=None,
                     metavar="N",
                     help="drain-order permutations per scenario "
                          "(default: 8; includes the contract order)")
    sub.add_argument("--race-scenarios", default=None, metavar="NAMES",
                     help="comma-separated scenario names "
                          "(default: all; see repro.lint.races)")
    sub.add_argument("--inject", default=None, metavar="BUG",
                     help="race-detector canary: replay with this bug "
                          "injected (must be caught); implies --races")
    # -- wire-schema drift checker (repro.lint.wiredrift) --------------
    sub.add_argument("--wire-drift", action="store_true",
                     help="cross-check repro.fleet.wire codecs against "
                          "the spec dataclasses, knob registry and "
                          "wire-schema.lock (SRM009)")
    sub.add_argument("--wire-lock", default=None, metavar="PATH",
                     help="wire schema lock file (default: "
                          "wire-schema.lock next to the baseline)")
    sub.add_argument("--update-wire-lock", action="store_true",
                     help="re-pin wire-schema.lock; refuses unless the "
                          "schema tag was bumped")


def _run_races(args: argparse.Namespace) -> int:
    from repro.lint.races import DEFAULT_PERMUTATIONS, check_races

    scenarios = None
    if args.race_scenarios:
        scenarios = [name.strip() for name in args.race_scenarios.split(",")
                     if name.strip()]
    permutations = args.race_permutations or DEFAULT_PERMUTATIONS
    try:
        report = check_races(scenarios=scenarios,
                             permutations=permutations,
                             inject=args.inject)
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    print(report.format())
    return 0 if report.ok else 1


def _wire_lock_path(args: argparse.Namespace) -> Path:
    if args.wire_lock:
        return Path(args.wire_lock)
    return Path(args.baseline).resolve().parent / "wire-schema.lock"


def run_lint_command(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name:<28} {rule.summary}")
        return 0

    if args.races or args.inject:
        return _run_races(args)

    if args.update_wire_lock:
        from repro.lint.wiredrift import update_lock
        code, message = update_lock(_wire_lock_path(args))
        print(message, file=sys.stderr if code else sys.stdout)
        return code

    try:
        baseline = load_baseline(args.baseline) \
            if not args.no_baseline else None
    except BaselineError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    select = None
    if args.select:
        select = [code.strip().upper() for code in args.select.split(",")
                  if code.strip()]
    # Baseline keys must be stable across launch directories, so paths
    # are keyed relative to the baseline file's directory (the repo
    # root, normally). Without a baseline the cwd anchor is kept.
    root = Path(args.baseline).resolve().parent \
        if not args.no_baseline else None
    try:
        engine = LintEngine(baseline=baseline, select=select, root=root)
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    paths = args.paths or list(DEFAULT_PATHS)
    report = engine.run(paths)

    if args.wire_drift:
        from repro.lint.wiredrift import check_wire_drift
        report.violations.extend(
            check_wire_drift(lock_path=_wire_lock_path(args)))

    if args.update_baseline:
        if baseline is None:
            print("lint: --update-baseline conflicts with --no-baseline",
                  file=sys.stderr)
            return 2
        shrunk = baseline.shrunk(report.observed)
        grown = baseline.would_grow(shrunk)
        if grown:  # defensive: shrunk() cannot grow, but keep the gate
            print("lint: refusing to grow the baseline:", file=sys.stderr)
            for line in grown:
                print(f"  {line}", file=sys.stderr)
            return 2
        if report.violations:
            print("lint: new violations present; fix or suppress them "
                  "before updating the baseline (the ratchet never "
                  "absorbs new debt):", file=sys.stderr)
            print(report.format(), file=sys.stderr)
            return 2
        removed = baseline.total() - shrunk.total()
        save_baseline(shrunk, args.baseline)
        print(f"baseline updated: {removed} waived violation(s) "
              f"removed, {shrunk.total()} remain")
        return 0

    if args.output_format == "json":
        print(report.format_json())
    elif args.output_format == "github":
        print(report.format_github())
    else:
        print(report.format())

    exit_code = 0 if report.ok else 1
    if args.fail_stale_baseline and report.stale:
        for path, code in report.stale:
            print(f"stale baseline entry: {path}: {code} "
                  f"(zero hits; run --update-baseline)", file=sys.stderr)
        exit_code = max(exit_code, 1)
    if args.external or args.mypy:
        result = run_mypy()
        print(result.format())
        if not result.ok:
            exit_code = max(exit_code, 1)
    if args.external or args.ruff:
        result = run_ruff()
        print(result.format())
        if not result.ok:
            exit_code = max(exit_code, 1)
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="SRM-specific static analysis "
                    "(docs/static-analysis.md)")
    install_options(parser)
    return run_lint_command(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
