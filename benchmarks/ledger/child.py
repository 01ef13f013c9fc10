"""One pass of one workload, in a fresh interpreter started by run.py.

    python child.py --workload NAME --seed N --ops M --mode timed|count|span

A pass imports the program, builds the workload from the seed, runs one
untimed warm-up op, collects garbage, then runs ops ``0 .. M-1`` in
order. It prints one JSON object on its last stdout line.

``timed``  ``perf_counter`` and ``process_time`` around each op call,
           nothing patched, no profiler (asserted), GC left enabled.
``count``  the same ops under ``cProfile``: the Python-level call total
           and the per-layer rollup.
``span``   the same ops with :class:`tracer.SpanTracer` installed before
           the workload is built; span records of the first two ops go to
           ``--trace-out``.
"""

import time

T0 = time.perf_counter()   # the child's first line: set-up is timed from here

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

#: perf counter -> the name it is reported under.
PERF_KEYS = {
    "events_executed": "events",
    "events_scheduled": "scheduled",
    "events_cancelled": "cancelled",
    "batched_deliveries": "batched_deliveries",
    "plan_cache_hits": "plan_hits",
    "plan_cache_misses": "plan_misses",
}

CALIB_EVERY = 10


def calibrate() -> float:
    """A fixed pure-Python loop (~7 ms here): slow machine or slow program?"""
    start = time.perf_counter()
    total = 0
    for value in range(200_000):
        total += value & 7
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "count", "span"),
                        required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    import tracer
    import workloads
    from repro.sim import perf
    from repro.sim.scheduler import scheduler_backend

    import_s = time.perf_counter() - T0
    span_tracer = None
    if args.mode == "span":
        span_tracer = tracer.SpanTracer()
        span_tracer.install()
    else:
        patched = tracer.patched_boundaries()
        if patched or (args.mode == "timed"
                       and (sys.getprofile() or sys.gettrace())):
            raise RuntimeError(f"pass must run unpatched: {patched}")

    ops = args.ops
    workload = workloads.WORKLOADS[args.workload](args.seed, ops)
    workload.settle(ops, workload.op(ops))   # warm-up: fills routing/plans
    gc.collect()
    setup_s = time.perf_counter() - T0

    profiler = None
    if args.mode == "count":
        import cProfile
        profiler = cProfile.Profile()

    counters = perf.GLOBAL
    perf_totals = dict.fromkeys(PERF_KEYS.values(), 0)
    stat_totals = dict.fromkeys(workloads.STAT_KEYS, 0)
    wall, cpu, calib, outcomes, failures = [], [], [], [], []
    clock, cpu_clock = time.perf_counter, time.process_time
    for i in range(ops):
        if i % CALIB_EVERY == 0:
            calib.append(calibrate())
        before = [getattr(counters, key) for key in PERF_KEYS]
        raw = None
        error = None
        if span_tracer is not None:
            span_tracer.begin_op(i)
        elif profiler is not None:
            profiler.enable()
        c0 = cpu_clock()
        t0 = clock()
        try:
            raw = workload.op(i)
        except Exception as exc:  # counted as a failed op, run continues
            error = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        c1 = cpu_clock()
        if span_tracer is not None:
            span_tracer.end_op()
        elif profiler is not None:
            profiler.disable()
        wall.append(t1 - t0)
        cpu.append(c1 - c0)
        for (key, name), start in zip(PERF_KEYS.items(), before):
            perf_totals[name] += getattr(counters, key) - start
        settled = None
        if error is None:
            try:
                settled = workload.settle(i, raw)
            except Exception as exc:  # a bad op costs one op, not the run
                error = f"settle raised {type(exc).__name__}: {exc}"
        if settled is None:
            outcomes.append(["raised", error])
        else:
            outcome, stats, error = settled
            outcomes.append(list(outcome))
            for key in workloads.STAT_KEYS:
                stat_totals[key] += stats[key]
        if error is not None:
            failures.append([i, error])

    report = {
        "mode": args.mode,
        "import_s": import_s,
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "calib_ms": min(calib) * 1e3,
        "outcomes": outcomes,
        "outcome_digest": hashlib.sha256(
            json.dumps(outcomes).encode()).hexdigest(),
        "failures": failures,
        "perf": perf_totals,
        "stats": stat_totals,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "scheduler_backend": scheduler_backend(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }
    if profiler is not None:
        total, layers = tracer.rollup(profiler.getstats(), str(SRC),
                                      str(HERE))
        report["pycalls"] = total
        report["layers"] = layers
    if span_tracer is not None:
        span_tracer.uninstall()   # raises unless every original is back
        report["spans"] = span_tracer.summary("ops", ops)
        report["spans_outside_ops"] = {
            name: int(agg[0]) for name, agg in zip(
                span_tracer.names, span_tracer.aggregates["outside"])}
        if args.trace_out:
            document = span_tracer.trace_document({
                "workload": args.workload, "seed": args.seed, "ops": ops,
                "recorded_ops": min(ops, tracer.KEEP_OPS)})
            Path(args.trace_out).write_text(json.dumps(document))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
