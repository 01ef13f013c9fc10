"""Quiet-time performance ledger for the agent engine (see README.md).

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed N]
        [--seconds S] [--passes K] [--trace [0|1]] [--quick] [--self-test]

Closed loop, one client, no think time: this driver starts one child
interpreter at a time (``child.py``), never two. A workload run is ``K``
timed passes over the same ``M`` seeded ops -- so op ``i`` does identical
work in every pass and its *quiet time* is the minimum over passes --
and one count pass under ``cProfile``. ``--trace`` adds a span pass and
prints the per-layer metrics. Every metric is printed by name
and unit; the last stdout line of a single-workload run is the JSON
object the benchmark contract asks for.

``--seconds`` sets the size, not a stopwatch: ``M`` is the full-size op
count scaled by ``S / 32`` (at full size a pass is ~4 s of quiet op time
at the commit that defined the benchmark). Work is fixed so that every
count repeats exactly and a faster program shows as a shorter time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: name -> full-size M. The classes are in workloads.py, which only the
#: child imports: the driver never imports the program.
FULL_OPS = {"session_fanin": 60, "recovery_sweep": 60,
            "suppression_star": 120, "hop_congestion": 60}
FULL_SECONDS = 32.0
DEFAULT_PASSES = 8
#: How far the median of a set of runs may worsen against the median of
#: the parent's runs *on the same seeds* before it is a regression; also
#: the A/A tolerance (aa.py). ``BENCHMARK.json`` carries a second, looser
#: bound per metric: the benchmark contract requires that one to exceed
#: the spread across ten *different* seeds, machine noise included.
REGRESSION_BOUNDS = {"ops_per_s": 0.10, "op_ms_p50": 0.10,
                     "pycalls_per_op": 0.02, "peak_rss_mb": 0.05,
                     "setup_s": 0.10}
#: These change the program being measured (online oracles, heap backend).
REFUSED_ENV = ("SRM_CHECK", "SRM_SCHED_BACKEND")
SPREAD_WARNING = 1.25
CHILD_TIMEOUT_S = 170


class LedgerError(RuntimeError):
    """The benchmark cannot measure (missing source, crashed child)."""


# ----------------------------------------------------------------------
# Estimators (pure functions; --self-test checks them on synthetic data)
# ----------------------------------------------------------------------


def quiet_times(passes: Sequence[Sequence[float]]) -> List[float]:
    """Per-op minimum over passes: op i does identical work in each."""
    return [min(column) for column in zip(*passes)]


def quiet_wall(timed: Sequence[Dict[str, Any]]) -> List[float]:
    """The quiet wall-clock time of every op of a run's timed passes."""
    return quiet_times([p["wall_s"] for p in timed])


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the value at rank ceil(q * n))."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when there is nothing to divide by."""
    return numerator / denominator if denominator else 0.0


def end_to_end(timed: Sequence[Dict[str, Any]], pycalls: int,
               ops: int) -> Dict[str, Tuple[float, str]]:
    quiet = quiet_wall(timed)
    return {
        "ops_per_s": (ops / sum(quiet), "1/s"),
        "op_ms_p50": (statistics.median(quiet) * 1e3, "ms"),
        "pycalls_per_op": (pycalls / ops, "calls"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in timed),
                        "MiB"),
        "setup_s": (min(p["setup_s"] for p in timed), "s"),
    }


def harness_metrics(timed: Sequence[Dict[str, Any]], ops: int,
                    span_wall: Optional[Sequence[float]]
                    ) -> Dict[str, Tuple[float, str]]:
    quiet = quiet_wall(timed)
    totals = [sum(p["wall_s"]) for p in timed]
    metrics = {
        "harness.op_ms_p90": (percentile(quiet, 0.9) * 1e3, "ms"),
        "harness.cpu_ms_per_op": (
            sum(quiet_times([p["cpu_s"] for p in timed])) * 1e3 / ops, "ms"),
        "harness.import_s": (min(p["import_s"] for p in timed), "s"),
        "harness.calib_ms": (min(p["calib_ms"] for p in timed), "ms"),
        "harness.pass_spread": (statistics.median(totals) / min(totals),
                                "ratio"),
        "harness.passes": (len(timed), "count"),
        "harness.ops": (ops, "count"),
    }
    if span_wall is not None:
        metrics["harness.trace_overhead_ratio"] = (
            sum(span_wall) / sum(quiet), "ratio")
    return metrics


def per_layer(count: Dict[str, Any], span: Dict[str, Any],
              ops: int) -> Dict[str, Tuple[float, str]]:
    """The layer metrics of one traced run (times are attribution only)."""
    layers = count["layers"]
    spans = span["spans"]
    perf, stats = count["perf"], count["stats"]

    def calls(*prefixes: str) -> float:
        return sum(v["calls"] for k, v in layers.items()
                   if k.startswith(prefixes)) / ops

    def own_ms(*prefixes: str) -> float:
        return sum(v["own_s"] for k, v in layers.items()
                   if k.startswith(prefixes)) * 1e3 / ops

    def spanned(name: str) -> float:
        return spans[name]["count_per_op"]

    handles = spanned("SessionProtocol.handle")
    sends = spanned("SessionProtocol.send_session_message")
    lookups = perf["plan_hits"] + perf["plan_misses"]
    recovery = stats["requests"] + stats["repairs"]
    metrics: Dict[str, Tuple[float, str]] = {
        "core.session.handles_per_op": (handles, "count"),
        "core.session.sends_per_op": (sends, "count"),
        "core.session.handles_per_send": (ratio(handles, sends), "ratio"),
        "sim.scheduler.events_per_op": (perf["events"] / ops, "count"),
        "sim.scheduler.scheduled_per_op": (perf["scheduled"] / ops, "count"),
        "sim.scheduler.cancelled_per_op": (perf["cancelled"] / ops, "count"),
        "sim.scheduler.cancel_ratio": (
            ratio(perf["cancelled"], perf["scheduled"]), "ratio"),
        "net.network.sends_per_op": (spanned("Network.send"), "count"),
        "net.network.batched_deliveries_per_op": (
            perf["batched_deliveries"] / ops, "count"),
        "net.network.plan_lookups_per_op": (lookups / ops, "count"),
        "net.network.plan_hit_ratio": (ratio(perf["plan_hits"], lookups),
                                       "ratio"),
        "net.routing.trees_per_op": (spanned("build_source_tree"), "count"),
        "net.link.queue_drops_per_op": (stats["queue_drops"] / ops, "count"),
        "core.agent.receives_per_op": (spanned("SrmAgent.receive"), "count"),
        "core.agent.requests_per_op": (stats["requests"] / ops, "count"),
        "core.agent.repairs_per_op": (stats["repairs"] / ops, "count"),
        "core.agent.duplicate_ratio": (ratio(stats["duplicates"], recovery),
                                       "ratio"),
        "sim.trace.records_per_op": (spanned("Trace.record"), "count"),
        "metrics.collector.records_per_op": (
            spanned("MetricsCollector.on_record"), "count"),
        "metrics.events.analyses_per_op": (spanned("analyze_loss_event"),
                                           "count"),
        "topology.builds_per_op": (spanned("TopologySpec.build"), "count"),
        "sim.timers.pycalls_per_op": (calls("sim.timers"), "calls"),
        "core.state.pycalls_per_op": (calls("core.state"), "calls"),
        "metrics.pycalls_per_op": (calls("metrics."), "calls"),
        "topology.self_ms_per_op": (own_ms("topology."), "ms"),
    }
    for layer in ("core.session", "sim.scheduler", "net.network",
                  "net.routing", "net.link", "core.agent",
                  "experiments.common"):
        metrics[f"{layer}.self_ms_per_op"] = (own_ms(layer), "ms")
        metrics[f"{layer}.pycalls_per_op"] = (calls(layer), "calls")
    for layer in ("sim.trace", "metrics.collector", "metrics.events"):
        metrics[f"{layer}.self_ms_per_op"] = (own_ms(layer), "ms")
    return metrics


def self_time_shares(layers: Dict[str, Dict[str, float]]
                     ) -> List[Tuple[str, float]]:
    """Layers by share of profiled own time, largest first."""
    total = sum(v["own_s"] for v in layers.values())
    return sorted(((k, v["own_s"] / total) for k, v in layers.items()),
                  key=lambda item: -item[1])


# ----------------------------------------------------------------------
# Running passes
# ----------------------------------------------------------------------


def check_environment() -> None:
    set_knobs = [name for name in REFUSED_ENV if os.environ.get(name)]
    if set_knobs:
        raise LedgerError(
            f"{', '.join(set_knobs)} set: it changes the program being "
            "measured; unset it")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise LedgerError(f"no program to measure: {SRC / 'repro'} missing")


def run_pass(workload: str, seed: int, ops: int, mode: str,
             hashseed: Optional[str] = None,
             trace_out: Optional[Path] = None) -> Dict[str, Any]:
    """One child interpreter, scrubbed environment, waited for."""
    env = {"PYTHONPATH": str(SRC)}
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    command = [sys.executable, str(HERE / "child.py"), "--workload",
               workload, "--seed", str(seed), "--ops", str(ops),
               "--mode", mode]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(command, env=env, cwd=str(ROOT),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise LedgerError(f"{workload} {mode} pass timed out") from exc
    if done.returncode != 0:
        raise LedgerError(f"{workload} {mode} pass exited "
                          f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def numpy_version() -> str:
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return "absent"


def ops_for(workload: str, seconds: float) -> int:
    return max(2, round(FULL_OPS[workload] * seconds / FULL_SECONDS))


def measure(workload: str, seed: int, passes: int, ops: int,
            trace: bool) -> Dict[str, Any]:
    """All passes of one workload -> the result document."""
    OUT.mkdir(exist_ok=True)
    load_start = os.getloadavg()
    # The count and span passes sit between the two halves of the timed
    # passes: the machine's slow phases last up to ~20 s, and a per-op
    # minimum only helps if some timed pass falls outside them.
    first_half = passes // 2
    timed = [run_pass(workload, seed, ops, "timed")
             for _ in range(first_half)]
    count = run_pass(workload, seed, ops, "count")
    span = None
    if trace:
        span = run_pass(workload, seed, ops, "span",
                        trace_out=OUT / f"trace_{workload}.json")
    timed += [run_pass(workload, seed, ops, "timed")
              for _ in range(passes - first_half)]
    everything = timed + [count] + ([span] if span else [])

    reference = everything[0]
    failed = 0
    for index, one in enumerate(everything):
        own = {i for i, _ in one["failures"]}
        differs = {i for i in range(ops)
                   if one["outcomes"][i] != reference["outcomes"][i]}
        failed += len(own | differs)
        if differs:
            print(f"warning: pass {index} ({one['mode']}) outcome differs "
                  f"from pass 0 on ops {sorted(differs)[:8]}")
        for op, reason in one["failures"][:3]:
            print(f"warning: pass {index} op {op} failed: {reason}")
    attempted = ops * len(everything)
    counts_exact = all(one["perf"] == reference["perf"]
                       and one["stats"] == reference["stats"]
                       for one in everything)
    if not counts_exact:
        print("warning: perf counters or simulated statistics differ "
              "between passes")

    metrics = end_to_end(timed, count["pycalls"], ops)
    metrics["failed_share"] = (failed / attempted, "ratio")
    metrics.update(harness_metrics(timed, ops,
                                   span["wall_s"] if span else None))
    if span is not None:
        metrics.update(per_layer(count, span, ops))
    spread = metrics["harness.pass_spread"][0]
    if spread > SPREAD_WARNING:
        print(f"warning: harness.pass_spread {spread:.3f} > "
              f"{SPREAD_WARNING}: the machine was busy, rerun before "
              "trusting a time")

    return {
        "schema": "ledger-result/v1",
        "workload": workload,
        "correct": failed == 0 and counts_exact,
        "attempted": attempted,
        "failed": failed,
        "counts_exact": counts_exact,
        "outcome_digest": reference["outcome_digest"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "self_time_shares": self_time_shares(count["layers"]),
        "layers": count["layers"],
        "spans": span["spans"] if span else None,
        "spans_outside_ops": span["spans_outside_ops"] if span else None,
        "quiet_op_s": quiet_wall(timed),
        "provenance": {
            "commit": git_commit(),
            "seed": seed,
            "passes": passes,
            "ops": ops,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version(),
            "scheduler_backend": reference["scheduler_backend"],
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "pass_calib_ms": [p["calib_ms"] for p in timed],
            "pass_total_s": [sum(p["wall_s"]) for p in timed],
            "pass_setup_s": [p["setup_s"] for p in timed],
        },
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

END_TO_END = ("ops_per_s", "op_ms_p50", "pycalls_per_op", "peak_rss_mb",
              "setup_s")


def contract_line(result: Dict[str, Any], trace: bool) -> str:
    """The last stdout line: end-to-end metrics, or per-layer if traced."""
    metrics = result["metrics"]
    if trace:
        chosen = {k: v for k, v in metrics.items()
                  if k not in END_TO_END and k != "failed_share"}
    else:
        chosen = {k: metrics[k] for k in END_TO_END}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": chosen})


def print_result(result: Dict[str, Any]) -> None:
    prov = result["provenance"]
    print(f"== {result['workload']}  seed={prov['seed']} "
          f"passes={prov['passes']} ops={prov['ops']} "
          f"backend={prov['scheduler_backend']} commit={prov['commit'][:12]}")
    for name, entry in result["metrics"].items():
        note = f"  (n={prov['ops']} ops)" if name == "op_ms_p50" else ""
        print(f"  {name:<40} {entry['value']:>16.6f} {entry['unit']}{note}")
    shares = ", ".join(f"{layer} {share:.0%}"
                       for layer, share in result["self_time_shares"][:5])
    print(f"  own-time shares (count pass): {shares}")
    print(f"  outcome_digest {result['outcome_digest']}")
    print(f"  failed {result['failed']} of {result['attempted']} ops; "
          f"counts exact across passes: {result['counts_exact']}")


def write_result(result: Dict[str, Any]) -> Path:
    path = OUT / (f"{result['workload']}_seed"
                  f"{result['provenance']['seed']}.json")
    path.write_text(json.dumps(result, indent=1))
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Quiet-time performance ledger (see README.md)")
    parser.add_argument("--workload", choices=sorted(FULL_OPS), default=None,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=FULL_SECONDS,
                        help="size: M = full M x seconds / 32 "
                             "(default: %(default)s, the full size)")
    parser.add_argument("--passes", type=int, default=DEFAULT_PASSES)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="add the span pass and print "
                        "the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="2 passes, M/6: a smoke run, not a measurement")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    try:
        check_environment()
        if args.self_test:
            import selftest
            return selftest.main(sys.modules[__name__])
        passes = 2 if args.quick else args.passes
        seconds = FULL_SECONDS / 6 if args.quick else args.seconds
        if passes < 1:
            raise LedgerError("--passes must be at least 1")
        names = [args.workload] if args.workload else list(FULL_OPS)
        all_correct = True
        for name in names:
            result = measure(name, args.seed, passes, ops_for(name, seconds),
                             bool(args.trace))
            print_result(result)
            print(f"  result file: {write_result(result)}")
            all_correct = all_correct and result["correct"]
            # Last line of a single-workload run; one per workload otherwise.
            print(contract_line(result, bool(args.trace)))
    except LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
