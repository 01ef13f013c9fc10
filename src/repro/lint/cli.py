"""The ``repro lint`` command.

Exit codes:

* ``0`` — clean (after inline suppressions)
* ``1`` — violations (or a race finding)
* ``2`` — usage / configuration error, including a
  ``--update-wire-lock`` for a changed surface without a schema bump or
  against a lock file it cannot read
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.engine import LintEngine
from repro.lint.rules import all_rules

DEFAULT_PATHS = ("src", "tests")
FORMATS = ("text", "json", "github")


def install_options(sub: argparse.ArgumentParser) -> None:
    """Argparse options for the lint command (used by repro.cli)."""
    sub.add_argument("paths", nargs="*", default=None,
                     help="files or directories to lint "
                          "(default: src tests)")
    sub.add_argument("--select", default=None, metavar="CODES",
                     help="comma-separated rule codes to run "
                          "(default: all)")
    sub.add_argument("--format", default="text", choices=FORMATS,
                     dest="output_format",
                     help="report format (github emits ::error "
                          "annotations for CI)")
    sub.add_argument("--list-rules", action="store_true",
                     help="print every rule code and exit")
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
    # -- wire-schema drift checker (repro.lint.wiredrift) --------------
    sub.add_argument("--wire-drift", action="store_true",
                     help="check SRM_* literals against the knob "
                          "registry and the repro.fleet.wire schema "
                          "table against wire-schema.lock (SRM009)")
    sub.add_argument("--wire-lock", default=None, metavar="PATH",
                     help="wire schema lock file (default: "
                          "wire-schema.lock at the repo root)")
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
                             permutations=permutations)
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    print(report.format())
    return 0 if report.ok else 1


def run_lint_command(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name:<28} {rule.summary}")
        return 0

    if args.races:
        return _run_races(args)

    # None: wire-schema.lock at the repo root (repro.lint.wiredrift).
    wire_lock = Path(args.wire_lock) if args.wire_lock else None
    if args.update_wire_lock:
        from repro.lint.wiredrift import update_lock
        code, message = update_lock(wire_lock)
        print(message, file=sys.stderr if code else sys.stdout)
        return code

    select = None
    if args.select:
        select = [code.strip().upper() for code in args.select.split(",")
                  if code.strip()]
    try:
        engine = LintEngine(select=select)
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    paths = args.paths or list(DEFAULT_PATHS)
    report = engine.run(paths)

    if args.wire_drift:
        from repro.lint.wiredrift import check_wire_drift
        report.violations.extend(check_wire_drift(lock_path=wire_lock))

    if args.output_format == "json":
        print(report.format_json())
    elif args.output_format == "github":
        print(report.format_github())
    else:
        print(report.format())

    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="SRM-specific static analysis "
                    "(docs/static-analysis.md)")
    install_options(parser)
    return run_lint_command(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
