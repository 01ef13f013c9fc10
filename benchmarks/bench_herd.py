"""Herd-vs-agent engine benchmark: members simulated per second.

A standalone script (like ``bench_kernel.py``) that runs identical
loss-recovery rounds on the agent engine and the vectorized herd engine,
then pushes the herd alone into mega-session territory the agent engine
cannot reach in benchmark time. Results land in ``BENCH_herd.json`` so
successive PRs can compare.

Usage::

    PYTHONPATH=src python benchmarks/bench_herd.py
    PYTHONPATH=src python benchmarks/bench_herd.py --quick
    PYTHONPATH=src python benchmarks/bench_herd.py \
        --compare BENCH_herd.json --output BENCH_herd.json

The JSON schema (``bench-herd/v1``)::

    {
      "schema": "bench-herd/v1",
      "python": "3.11.7",
      "created": "...",
      "quick": false,
      "repeat": 3,
      "benches": {
        "<name>": {"wall_s": float,        # best-of-repeat, one round
                    "members": int,
                    "members_per_s": float,
                    "requests": int,        # work actually done
                    "engine": "agent"|"herd",
                    "meta": {...}},
      },
      "herd_speedup": {"<scenario>": float},  # agent wall / herd wall
      "baseline": {...}, "speedup_vs_baseline": {...}
    }

Paired benches (same scenario, same seed) do byte-identical protocol
work — the equivalence suite guarantees equal request/repair counts —
so ``herd_speedup`` is a clean engines-only comparison. The herd's
trace keeps no row unless asked, so the mega points measure pure array
work.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def build_star(size: int, c2: float):
    from repro.core.config import SrmConfig
    from repro.experiments.scaling import star_scaling_scenario
    return star_scaling_scenario(size), SrmConfig(c2=c2)


def build_tree(size: int):
    from repro.core.config import SrmConfig
    from repro.experiments.scaling import tree_scaling_scenario
    return tree_scaling_scenario(size), SrmConfig()


def run_agent_round(scenario, config, seed):
    from repro.experiments.common import LossRecoverySimulation
    sim = LossRecoverySimulation(scenario, config=config, seed=seed)
    started = time.perf_counter()
    outcome = sim.run_round()
    return time.perf_counter() - started, sim, outcome


def run_herd_round(scenario, config, seed):
    from repro.herd import HerdSimulation
    sim = HerdSimulation(scenario, config=config, seed=seed)
    started = time.perf_counter()
    outcome = sim.run_round()
    return time.perf_counter() - started, sim, outcome


RUNNERS = {"agent": run_agent_round, "herd": run_herd_round}


def bench(name, engine, builder, repeat, seed=0):
    """Best-of-``repeat`` wall clock for one round (setup excluded)."""
    best = None
    requests = 0
    members = 0
    for _ in range(repeat):
        scenario, config = builder()
        wall, sim, _outcome = RUNNERS[engine](scenario, config, seed)
        requests = sim.last_round_metrics.requests
        members = scenario.session_size
        best = wall if best is None else min(best, wall)
    return {
        "wall_s": round(best, 6),
        "members": members,
        "members_per_s": round(members / best) if best else None,
        "requests": requests,
        "engine": engine,
        "meta": {"seed": seed},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="single repetition, drop the 10^5 points")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--compare", default=None, metavar="OLD.json")
    parser.add_argument("--output",
                        default=str(REPO / "benchmarks" / "BENCH_herd.json"))
    args = parser.parse_args()
    repeat = 1 if args.quick else args.repeat

    #              name                engine   builder
    plan = [
        ("star_1000_agent", "agent", lambda: build_star(1_000, 100.0)),
        ("star_1000_herd", "herd", lambda: build_star(1_000, 100.0)),
        ("tree_2000_agent", "agent", lambda: build_tree(2_000)),
        ("tree_2000_herd", "herd", lambda: build_tree(2_000)),
        ("star_10000_herd", "herd", lambda: build_star(10_000, 1_000.0)),
        ("tree_10000_herd", "herd", lambda: build_tree(10_000)),
    ]
    if not args.quick:
        plan += [
            ("star_100000_herd", "herd",
             lambda: build_star(100_000, 10_000.0)),
            ("tree_100000_herd", "herd", lambda: build_tree(100_000)),
        ]

    benches = {}
    for name, engine, builder in plan:
        benches[name] = bench(name, engine, builder, repeat)
        row = benches[name]
        print(f"{name:>20}: {row['wall_s']:8.3f}s  "
              f"{row['members_per_s']:>10,} members/s  "
              f"requests={row['requests']}")

    # Same-scenario engine speedups (paired agent/herd benches).
    herd_speedup = {}
    for name, row in benches.items():
        if row["engine"] != "agent":
            continue
        partner = name.replace("_agent", "_herd")
        if partner in benches and benches[partner]["wall_s"]:
            assert benches[partner]["requests"] == row["requests"], \
                (name, "engines did different protocol work")
            herd_speedup[name.replace("_agent", "")] = round(
                row["wall_s"] / benches[partner]["wall_s"], 2)
    for scenario, factor in herd_speedup.items():
        print(f"{scenario:>20}: herd is {factor}x the agent engine")

    payload = {
        "schema": "bench-herd/v1",
        "python": platform.python_version(),
        "created": datetime.datetime.now().isoformat(timespec="seconds"),
        "quick": args.quick,
        "repeat": repeat,
        "benches": benches,
        "herd_speedup": herd_speedup,
    }
    if args.compare and Path(args.compare).is_file():
        old = json.loads(Path(args.compare).read_text())
        payload["baseline"] = {k: old.get(k) for k in
                               ("created", "python", "benches")}
        payload["speedup_vs_baseline"] = {
            name: round(old["benches"][name]["wall_s"] / row["wall_s"], 2)
            for name, row in benches.items()
            if name in old.get("benches", {}) and row["wall_s"]}
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
