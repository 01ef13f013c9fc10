"""``run.py --self-test``: the harness checks itself (about 25 s).

1. Estimator arithmetic on synthetic timings.
2. Two count passes per workload under different ``PYTHONHASHSEED``
   produce identical outcome tuples, perf counters and call totals --
   the property that lets ``pycalls_per_op`` be compared without noise.
3. The span tracer patches every boundary, the unpatched-pass guard sees
   it, and after ``uninstall`` every attribute is the original object.
4. A small traced run emits exactly the metrics ``BENCHMARK.json`` names.

``main`` takes the already-imported ``run`` module (``__main__`` when
started through ``run.py --self-test``) so there is one copy of it.
"""

from __future__ import annotations

import json
import sys
from typing import Any


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"  ok  {message}")


def estimator_arithmetic(ledger: Any) -> None:
    passes = [[3.0, 1.0, 5.0, 2.0], [2.0, 4.0, 1.0, 2.5], [9.0, 9.0, 9.0, 9.0]]
    quiet = ledger.quiet_times(passes)
    check(quiet == [2.0, 1.0, 1.0, 2.0], "quiet time is the per-op minimum")
    check(ledger.percentile(range(1, 11), 0.9) == 9
          and ledger.percentile([5.0], 0.9) == 5.0
          and ledger.percentile(range(1, 61), 0.5) == 30,
          "nearest-rank percentile")
    check(ledger.ratio(1, 0) == 0.0 and ledger.ratio(3, 4) == 0.75,
          "ratio is 0 with nothing to divide by")
    timed = [{"wall_s": walls, "cpu_s": walls, "peak_rss_mb": rss,
              "setup_s": setup, "import_s": 0.1, "calib_ms": calib}
             for walls, rss, setup, calib in zip(
                 passes, (30.0, 50.0, 40.0), (0.5, 0.3, 0.4), (7.0, 6.5, 8.0))]
    e2e = ledger.end_to_end(timed, pycalls=1000, ops=4)
    check(e2e["ops_per_s"][0] == 4 / 6.0, "ops_per_s = M / sum of quiet times")
    check(e2e["op_ms_p50"][0] == 1500.0, "op_ms_p50 = median quiet time")
    check(e2e["pycalls_per_op"][0] == 250.0, "pycalls_per_op = calls / M")
    check(e2e["peak_rss_mb"][0] == 40.0 and e2e["setup_s"][0] == 0.3,
          "peak_rss_mb is the median pass, setup_s the quietest pass")
    harness = ledger.harness_metrics(timed, 4, span_wall=[3.0, 3.0, 3.0, 3.0])
    check(harness["harness.pass_spread"][0] == 11.0 / 9.5,
          "pass_spread = median pass total / min pass total")
    check(harness["harness.trace_overhead_ratio"][0] == 2.0
          and harness["harness.calib_ms"][0] == 6.5,
          "trace overhead against quiet time; calib is the run minimum")


def hash_seed_independence(ledger: Any) -> None:
    for workload in ledger.FULL_OPS:
        ops = ledger.ops_for(workload, ledger.FULL_SECONDS / 6)
        first, second = (ledger.run_pass(workload, 1, ops, "count",
                                         hashseed=hashseed)
                         for hashseed in ("1", "4242"))
        check(first["pythonhashseed"] != second["pythonhashseed"]
              and first["outcomes"] == second["outcomes"]
              and first["perf"] == second["perf"]
              and first["pycalls"] == second["pycalls"]
              and not first["failures"],
              f"{workload}: outcomes, counters and {first['pycalls']} calls "
              "identical under two hash seeds")


def tracer_restores(ledger: Any) -> None:
    sys.path.insert(0, str(ledger.SRC))
    import tracer
    from repro.core.session import SessionProtocol
    from repro.experiments import common

    original_handle = SessionProtocol.__dict__["handle"]
    original_run = common.run_experiment
    check(tracer.patched_boundaries() == [], "a fresh process is unpatched")
    span_tracer = tracer.SpanTracer()
    span_tracer.install()
    try:
        check(len(tracer.patched_boundaries()) == len(tracer.BOUNDARIES)
              and SessionProtocol.__dict__["handle"] is not original_handle,
              "install wraps every boundary and the timed-pass guard sees it")
    finally:
        span_tracer.uninstall()
    check(SessionProtocol.__dict__["handle"] is original_handle
          and common.run_experiment is original_run
          and tracer.patched_boundaries() == [],
          "uninstall restores the original objects")


def contract_names(ledger: Any) -> None:
    spec_path = ledger.ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print("  skip  no BENCHMARK.json beside this checkout")
        return
    spec = json.loads(spec_path.read_text())
    result = ledger.measure("suppression_star", 1, passes=2, ops=2, trace=True)
    check(result["correct"] and result["spans"] is not None,
          "a traced run is correct: span and count passes simulate what "
          "the timed passes do, and the tracer restored itself")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        printed = json.loads(ledger.contract_line(result, trace))["metrics"]
        named = {m["name"]: m["unit"] for m in spec[key]}
        check({k: v["unit"] for k, v in printed.items()} == named,
              f"--trace {int(trace)} prints exactly the {len(named)} "
              f"{key} metrics BENCHMARK.json names, with their units")
    contract = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(set(contract) == set(ledger.REGRESSION_BOUNDS)
          and all(ledger.REGRESSION_BOUNDS[k] <= contract[k]
                  for k in contract),
          "every end-to-end metric has a regression bound, none looser "
          "than its contract bound")
    check(set(ledger.FULL_OPS) == {w["name"] for w in spec["workloads"]},
          "BENCHMARK.json lists the four workloads")


def main(ledger: Any) -> int:
    for step in (estimator_arithmetic, hash_seed_independence,
                 tracer_restores, contract_names):
        print(f"{step.__name__}:")
        step(ledger)
    print("self-test passed")
    return 0
