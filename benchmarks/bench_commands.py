"""Whole-command timings: the golden commands, change vs a baseline tree.

Usage::

    python benchmarks/bench_commands.py
    python benchmarks/bench_commands.py --commands figure14,figure8 \
        --runs 5 --baseline ../parent-checkout \
        --output benchmarks/BENCH_commands.json

Each command is ``python -m repro <cmd>`` with the flags CI's goldens
job gives it, minus ``--jobs``: serial, and ``--no-cache`` wherever the
command takes runner flags. Every run is a fresh interpreter with its
own empty cache directory, and its stdout must equal its tree's
``results/<cmd>.txt`` byte for byte. A side's time is the minimum wall
clock of ``--runs`` runs, interpreter start-up included. With
``--baseline`` (the root of a second checkout, e.g. a ``git clone`` of
the parent commit) the two trees alternate run by run, and which of
them goes first alternates too; ``wins`` counts the pairs the change
ran faster.

One more run per side goes under ``cProfile`` and records the exact
Python call total (builtins included, as ``pstats`` counts them) and
each module's share of own time. That is the ledger's count-pass
roll-up (``benchmarks/ledger/tracer.rollup``): layer = module under
``repro.``, a builtin charged to the module that called it, code
outside ``src/repro`` as ``other``. Call totals repeat exactly on an
unchanged tree; wall clocks do not. Both sides run this file, so the
measurement code is the same.

The JSON schema (``bench-commands/v1``)::

    {"schema": "bench-commands/v1", "created": "...", "python": "3.11.7",
     "nproc": 2, "runs": 5,
     "sides": {"change": {"commit": "..."}, "baseline": {...}},
     "commands": {"<cmd>": {
         "argv": [...],
         "change": {"wall_s": [...], "min_s": float, "golden": bool,
                    "pycalls": int, "own_share": {"<module>": float}},
         "baseline": {...},
         "min_ratio": float,   # baseline min_s / change min_s
         "wins": int}}}        # pairs where the change was faster
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Commands that drive their own serial loop take no runner flags
#: (CI's goldens job).
NO_RUNNER_FLAGS = ("robustness", "congestion", "scaling")
#: Modules listed per side, by own-time share.
TOP_MODULES = 8


def command_flags(command: str) -> List[str]:
    return [] if command in NO_RUNNER_FLAGS else ["--no-cache"]


def golden_commands(root: Path) -> List[str]:
    return sorted(path.stem for path in (root / "results").glob("*.txt"))


def commit_of(root: Path) -> str:
    head = subprocess.run(["git", "-C", str(root), "rev-parse", "--short",
                           "HEAD"], capture_output=True, text=True)
    dirty = subprocess.run(["git", "-C", str(root), "status",
                            "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True)
    commit = head.stdout.strip() or "unknown"
    return commit + ("+dirty" if dirty.stdout.strip() else "")


def run_once(root: Path, argv: List[str],
             profile_to: Optional[Path] = None) -> Dict[str, Any]:
    """One fresh-interpreter run of ``argv`` against ``root``'s source."""
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   SRM_CACHE_DIR=cache)
        if profile_to is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--profile-child", str(profile_to), "--", *argv]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=str(root), env=env,
                              capture_output=True)
        wall = time.perf_counter() - start
    golden = (root / "results" / f"{argv[0]}.txt").read_bytes()
    return {"wall_s": wall, "ok": done.returncode == 0,
            "golden": done.stdout == golden}


def profile_child(output: Path, argv: List[str]) -> int:
    """Run the CLI in this process under cProfile; write the roll-up."""
    import cProfile

    sys.path.insert(0, str(HERE / "ledger"))
    from tracer import rollup  # the ledger's count-pass roll-up

    from repro.cli import main

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        code = main(argv)
    finally:
        profiler.disable()
    src_root = str(Path(sys.modules["repro"].__file__).resolve().parents[1])
    total, layers = rollup(profiler.getstats(), src_root, str(HERE))
    own = sum(layer["own_s"] for layer in layers.values()) or 1.0
    shares = sorted(((layer["own_s"] / own, name)
                     for name, layer in layers.items()), reverse=True)
    output.write_text(json.dumps({
        "pycalls": total,
        "own_share": {name: round(share, 4)
                      for share, name in shares[:TOP_MODULES]}}))
    return code


def measure(command: str, sides: Dict[str, Path],
            runs: int) -> Dict[str, Any]:
    argv = [command, *command_flags(command)]
    entry: Dict[str, Any] = {"argv": argv}
    walls: Dict[str, List[float]] = {side: [] for side in sides}
    golden = {side: True for side in sides}
    order = list(sides)
    for run in range(runs):
        for side in (order if run % 2 == 0 else order[::-1]):
            result = run_once(sides[side], argv)
            if not result["ok"]:
                raise SystemExit(f"{side}: repro {command} failed")
            walls[side].append(round(result["wall_s"], 4))
            golden[side] = golden[side] and result["golden"]
    for side, root in sides.items():
        with tempfile.TemporaryDirectory() as scratch:
            counts = Path(scratch) / "counts.json"
            run_once(root, argv, profile_to=counts)
            profiled = json.loads(counts.read_text())
        entry[side] = {"wall_s": walls[side], "min_s": min(walls[side]),
                       "golden": golden[side], **profiled}
    if "baseline" in sides:
        entry["min_ratio"] = round(
            entry["baseline"]["min_s"] / entry["change"]["min_s"], 4)
        entry["wins"] = sum(
            change < base for change, base in zip(walls["change"],
                                                  walls["baseline"]))
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--commands", default=None,
                        help="comma-separated; default: every golden")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--baseline", type=Path, default=None,
                        help="root of a second checkout to compare with")
    parser.add_argument("--output", type=Path,
                        default=HERE / "BENCH_commands.json")
    parser.add_argument("--profile-child", type=Path, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("argv", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.profile_child is not None:
        return profile_child(args.profile_child, args.argv)
    sides = {"change": ROOT}
    if args.baseline is not None:
        sides["baseline"] = args.baseline.resolve()
    commands = (args.commands.split(",") if args.commands
                else golden_commands(ROOT))
    document: Dict[str, Any] = {
        "schema": "bench-commands/v1",
        "created": datetime.datetime.now().isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "runs": args.runs,
        "sides": {side: {"commit": commit_of(root)}
                  for side, root in sides.items()},
        "commands": {},
    }
    for command in commands:
        entry = measure(command, sides, args.runs)
        document["commands"][command] = entry
        line = f"{command:12s}"
        for side in sides:
            line += (f"  {side} {entry[side]['min_s']:7.2f} s"
                     f" {entry[side]['pycalls']:>11,} calls"
                     f"{'' if entry[side]['golden'] else ' DRIFT'}")
        if "wins" in entry:
            line += f"  x{entry['min_ratio']:.2f} ({entry['wins']}/{args.runs})"
        print(line, flush=True)
    args.output.write_text(json.dumps(document, indent=2) + "\n")
    drifted = [command for command, entry in document["commands"].items()
               if not all(entry[side]["golden"] for side in sides)]
    if drifted:
        print(f"stdout drifted from results/: {', '.join(drifted)}")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
