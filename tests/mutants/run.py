"""Run the mutant catalog and write the kill matrix.

Each catalog entry (``tests/mutants/catalog.py``) is applied to a fresh
copy of the tree in a temporary directory, never to the checkout. The
copy then runs these checks in order, and the first one that fails
kills the mutant:

1. tier-1, ``pytest -x`` (the catalog's own integrity test is left out:
   it fails on any mutated tree by design);
2. ``repro fuzz --rounds 25 --seed 7``;
3. every ``results/<cmd>.txt`` golden, regenerated and compared.

Usage::

    python tests/mutants/run.py                   # rewrite MATRIX.md
    python tests/mutants/run.py --check           # same; exit 1 on a survivor
    python tests/mutants/run.py --plant NAME DEST # DEST/src = src/ + mutant

``--plant`` copies only ``src/``; run the planted tree with
``PYTHONPATH=DEST/src``. Every mode first checks that each entry's old
text occurs exactly once, and exits 1 naming the stale entries if not.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Optional

from catalog import CATALOG, Mutant, plant

ROOT = Path(__file__).resolve().parents[2]
MATRIX = Path(__file__).resolve().parent / "MATRIX.md"
INTEGRITY_TEST = "tests/test_mutant_catalog.py"
#: A mutant that hangs a check is killed by the timeout (CI's would be).
CHECK_TIMEOUT_S = 1800
#: The three goldens whose commands drive their own serial loop.
NO_RUNNER_FLAGS = ("robustness", "congestion", "scaling")
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".mypy_cache",
    ".ruff_cache", ".cache", "out")


class Kill(NamedTuple):
    check: str
    killer: str
    seconds: float


def stale_entries() -> List[str]:
    """Entries whose old text does not occur exactly once at HEAD."""
    return [mutant.name for mutant in CATALOG
            if (ROOT / mutant.path).read_text().count(mutant.old) != 1]


def _run(cmd: List[str], cwd: Path, env: dict) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=CHECK_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(cmd, -1, "", "timeout")


def _first_failure(output: str) -> str:
    match = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return match.group(1) if match else "pytest exited non-zero"


def first_kill(tree: Path) -> Optional[Kill]:
    """The first check that fails on ``tree``, or None (a survivor)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               SRM_CACHE_DIR=str(tree / "results" / ".cache"))
    python = sys.executable
    start = time.monotonic()
    tier1 = _run([python, "-m", "pytest", "-x", "-q", "-rfE",
                  "-p", "no:cacheprovider", "--ignore", INTEGRITY_TEST],
                 tree, env)
    if tier1.returncode:
        killer = ("timeout" if tier1.returncode == -1
                  else _first_failure(tier1.stdout))
        return Kill("tier-1", killer, time.monotonic() - start)
    start = time.monotonic()
    fuzz = _run([python, "-m", "repro", "fuzz", "--rounds", "25",
                 "--seed", "7"], tree, env)
    if fuzz.returncode:
        return Kill("fuzz", "repro fuzz --rounds 25 --seed 7",
                    time.monotonic() - start)
    start = time.monotonic()
    for golden in sorted((tree / "results").glob("*.txt")):
        cmd = golden.stem
        flags = [] if cmd in NO_RUNNER_FLAGS else ["--no-cache"]
        out = _run([python, "-m", "repro", cmd, *flags], tree, env)
        if out.returncode or out.stdout != golden.read_text():
            return Kill("goldens", f"results/{cmd}.txt",
                        time.monotonic() - start)
    return None


def run_mutant(mutant: Mutant) -> Optional[Kill]:
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
        plant(mutant, tree)
        return first_kill(tree)


def format_matrix(rows: List[tuple]) -> str:
    survivors = sum(1 for _, kill in rows if kill is None)
    lines = [
        "# Mutant kill matrix",
        "",
        "Written by `python tests/mutants/run.py`; do not edit by hand.",
        "Each row is one entry of `tests/mutants/catalog.py`, planted in a",
        "copy of the tree. The checks run in order (tier-1 with `-x`,",
        "`repro fuzz --rounds 25 --seed 7`, the `results/*.txt` goldens) and",
        "the first that fails kills the mutant; `s` is that check's wall time.",
        "",
        "| mutant | file | rule | check | killed by | s |",
        "|---|---|---|---|---|---|",
    ]
    for mutant, kill in rows:
        path = mutant.path.removeprefix("src/repro/")
        if kill is None:
            lines.append(f"| {mutant.name} | {path} | {mutant.rule} "
                         f"| **survived** | | |")
        else:
            lines.append(f"| {mutant.name} | {path} | {mutant.rule} "
                         f"| {kill.check} | `{kill.killer}` "
                         f"| {kill.seconds:.1f} |")
    lines += ["", f"{len(rows)} mutants, {len(rows) - survivors} killed, "
              f"{survivors} survived."]
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tests/mutants/run.py",
        description="plant each catalog mutant in a copy of the tree and "
                    "record the first check that kills it")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any mutant survives")
    parser.add_argument("--plant", nargs=2, metavar=("NAME", "DEST"),
                        help="copy src/ to DEST/src and apply one mutant")
    args = parser.parse_args(argv)

    stale = stale_entries()
    if stale:
        print(f"stale catalog entries: {', '.join(stale)}", file=sys.stderr)
        return 1
    if args.plant:
        name, dest = args.plant
        mutant = next((m for m in CATALOG if m.name == name), None)
        if mutant is None:
            parser.error(f"no mutant named {name!r}")
        shutil.copytree(ROOT / "src", Path(dest) / "src", ignore=COPY_IGNORE)
        plant(mutant, Path(dest))
        return 0

    rows = []
    for mutant in CATALOG:
        kill = run_mutant(mutant)
        verdict = ("SURVIVED" if kill is None else
                   f"{kill.check}: {kill.killer} ({kill.seconds:.1f} s)")
        print(f"{mutant.name}: {verdict}", flush=True)
        rows.append((mutant, kill))
    MATRIX.write_text(format_matrix(rows))
    survivors = [mutant.name for mutant, kill in rows if kill is None]
    if survivors:
        print(f"survivors: {', '.join(survivors)}")
    return 1 if args.check and survivors else 0


if __name__ == "__main__":
    sys.exit(main())
