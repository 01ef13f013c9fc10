"""A/A check: do two sets of runs of the *same* tree agree within bounds?

    python3 benchmarks/ledger/aa.py --runs 5 [--vary-seed] > AA_REPORT.md

Runs every workload of ``BENCHMARK.json`` ``--runs`` times for set A and
for set B, one ``run.py`` process at a time, alternating which set goes
first. Run ``r`` of both sets uses seed ``--seed`` (or ``--seed + r`` with
``--vary-seed``, which is how the benchmark's acceptance check samples
it), so the two sets always see the same seeds -- as a parent and a
change will. Then one traced run per set and workload compares the
per-layer counts. Prints a markdown report -- per workload and end-to-end
metric: each set's median and quartiles, the spread (quartile distance /
median), the relative difference of the medians, the regression bound
(``run.REGRESSION_BOUNDS``) that difference is held to, and the contract
bound (``BENCHMARK.json``) the spreads are held to -- and lists every run
made. Exits non-zero when a difference exceeds its regression bound, a
spread exceeds its contract bound, a run fails an op, or a count that
must repeat exactly (``pycalls_per_op``, any per-layer metric with unit
``count`` or ``calls``) differs between two runs of one seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import run as ledger

EXACT_UNITS = ("count", "calls")


def one_run(spec: Dict[str, Any], workload: str, seed: int,
            trace: int) -> Tuple[Dict[str, Any], float]:
    """One benchmark process, exactly as the contract invokes it."""
    command = [sys.executable if part == "python3" else part
               for part in spec["command"]]
    command += ["--workload", workload, "--seed", str(seed), "--seconds",
                str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=str(ledger.ROOT),
                          capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise ledger.LedgerError(
            f"{' '.join(command)} exited {done.returncode}:\n"
            f"{done.stdout[-1000:]}\n{done.stderr[-1000:]}")
    return json.loads(done.stdout.splitlines()[-1]), wall


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(spec: Dict[str, Any], runs: List[Dict[str, Any]],
            traced: List[Dict[str, Any]], lines: List[str]) -> bool:
    """Append the comparison tables to ``lines``; True when all agree."""
    agreed = True
    wide: List[str] = []   # spreads above a third of their contract bound
    for workload in [w["name"] for w in spec["workloads"]]:
        lines += [f"### {workload}", "",
                  "| metric | unit | A median [q1, q3] | A spread | "
                  "B median [q1, q3] | B spread | difference | regression "
                  "bound | contract bound | |",
                  "|---|---|---|---|---|---|---|---|---|---|"]
        mine = [r for r in runs if r["workload"] == workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            cells, medians, spreads = [], [], []
            for side in "AB":
                values = [r["metrics"][name]["value"] for r in mine
                          if r["set"] == side]
                q1, median, q3 = quartiles(values)
                medians.append(median)
                spreads.append((q3 - q1) / median)
                cells += [f"{median:.6g} [{q1:.6g}, {q3:.6g}]",
                          f"{spreads[-1]:.2%}"]
            difference = abs(medians[1] - medians[0]) / medians[0]
            regression = ledger.REGRESSION_BOUNDS[name]
            ok = (difference <= regression
                  and max(spreads) <= metric["bound"])
            agreed = agreed and ok
            if max(spreads) > metric["bound"] / 3:
                wide.append(f"{workload}/{name}")
            lines.append(
                f"| `{name}` | {metric['unit']} | {cells[0]} | {cells[1]} | "
                f"{cells[2]} | {cells[3]} | {difference:.2%} | "
                f"{regression:.0%} | {metric['bound']:.0%} | "
                f"{'ok' if ok else '**EXCEEDED**'} |")
        by_seed: Dict[int, set] = {}
        for r in mine:
            by_seed.setdefault(r["seed"], set()).add(
                r["metrics"]["pycalls_per_op"]["value"])
        exact = all(len(values) == 1 for values in by_seed.values())
        failed = sum(r["failed"] for r in mine)
        lines += ["", f"`pycalls_per_op` identical across all runs of one "
                      f"seed: **{exact}** ({len(mine)} runs, "
                      f"{len(by_seed)} seed(s)); failed ops: **{failed}** of "
                      f"{sum(r['attempted'] for r in mine)}."]
        agreed = agreed and exact and failed == 0
        pair = [t for t in traced if t["workload"] == workload]
        if len(pair) == 2:
            differing = [
                name for name, entry in pair[0]["metrics"].items()
                if entry["unit"] in EXACT_UNITS
                and entry["value"] != pair[1]["metrics"][name]["value"]]
            checked = sum(1 for entry in pair[0]["metrics"].values()
                          if entry["unit"] in EXACT_UNITS)
            lines.append(
                f"Per-layer counts, traced run A vs traced run B (seed "
                f"{pair[0]['seed']}): {checked} compared, "
                + (f"**differing: {differing}**" if differing
                   else "**all identical**") + ".")
            agreed = agreed and not differing
        lines.append("")
    lines += ["Spreads above a third of their contract bound: "
              + (", ".join(wide) if wide else "none") + ".", ""]
    return agreed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true",
                        help="run r of each set uses seed --seed + r")
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ledger.ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        print(f"aa: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    load_start = os.getloadavg()
    runs: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    try:
        ledger.check_environment()
        for index in range(args.runs):
            seed = args.seed + index if args.vary_seed else args.seed
            for side in ("AB" if index % 2 == 0 else "BA"):
                for workload in workloads:
                    result, wall = one_run(spec, workload, seed, trace=0)
                    runs.append({**result, "set": side, "run": index,
                                 "workload": workload, "seed": seed,
                                 "wall_s": wall})
                    print(f"run {index} set {side} {workload} seed {seed}: "
                          f"{wall:.1f} s", file=sys.stderr)
        for side in "AB":
            for workload in workloads:
                result, wall = one_run(spec, workload, args.seed, trace=1)
                traced.append({**result, "set": side, "workload": workload,
                               "seed": args.seed, "wall_s": wall})
                print(f"traced set {side} {workload}: {wall:.1f} s",
                      file=sys.stderr)
    except ledger.LedgerError as exc:
        print(f"aa: {exc}", file=sys.stderr)
        return 2

    lines = [
        f"## A/A: {args.runs} runs per set, "
        + (f"seeds {args.seed}..{args.seed + args.runs - 1}"
           if args.vary_seed else f"seed {args.seed}"), "",
        f"Commit `{ledger.git_commit()}`, `--seconds {seconds}`, "
        f"{os.cpu_count()} CPUs, Python {platform.python_version()}, numpy "
        f"{ledger.numpy_version()}; load average "
        f"{load_start[0]:.2f} at start, {os.getloadavg()[0]:.2f} at end. "
        "Sets alternate which goes first (A,B / B,A / ...). Spread is the "
        "quartile distance over the median "
        "(`statistics.quantiles(values, n=4)`) and is held to the contract "
        "bound of `BENCHMARK.json`; difference is |median B - median A| / "
        "median A and is held to the regression bound "
        "(`run.REGRESSION_BOUNDS`).", ""]
    agreed = compare(spec, runs, traced, lines)
    names = [m["name"] for m in spec["end_to_end"]]
    lines += ["### Every run made", "",
              "| # | run | set | workload | seed | trace | wall s | "
              + " | ".join(f"`{name}`" for name in names) + " | failed |",
              "|---|---|---|---|---|---|---|"
              + "---|" * (len(names) + 1)]
    for number, r in enumerate(runs + traced):
        values = " | ".join(
            f"{r['metrics'][name]['value']:.6g}" if name in r["metrics"]
            else "" for name in names)
        lines.append(
            f"| {number} | {r.get('run', '')} | {r['set']} | {r['workload']} "
            f"| {r['seed']} | {0 if 'run' in r else 1} | {r['wall_s']:.1f} | "
            f"{values} | {r['failed']} |")
    total = sum(r["wall_s"] for r in runs + traced)
    lines += ["", f"{len(runs) + len(traced)} runs, {total:.0f} s in all; "
                  f"longest {max(r['wall_s'] for r in runs + traced):.1f} s.",
              "", f"**Verdict: {'agree' if agreed else 'DISAGREE'}**", ""]
    print("\n".join(lines))
    return 0 if agreed else 1


if __name__ == "__main__":
    sys.exit(main())
