"""Figure 14: the adaptive algorithm at round 40, across the Fig. 4 sweep.

Expected shape: compared to Fig. 4's fixed-parameter results on the very
same scenarios, the round-40 adaptive duplicates are controlled (median
repairs near one, means well below the fixed case).
"""

from repro.metrics.events import mean, quantiles
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure14 import run_figure14

from conftest import scale


def test_figure14(once, bench_runner):
    sizes = (20, 40, 60, 80, 100) if scale(0, 1) else (20, 60)
    sims = scale(6, 20)
    rounds = scale(25, 40)

    def experiment():
        fixed = run_figure4(sizes=sizes, sims=sims, seed=4,
                            runner=bench_runner)
        adaptive = run_figure14(sizes=sizes, sims=sims,
                                rounds=rounds, seed=4,
                                runner=bench_runner)
        return fixed, adaptive

    fixed, adaptive = once(experiment)
    print()
    print(adaptive.format_table())

    fixed_repairs = [mean(point.series("repairs"))
                     for point in fixed.points]
    adaptive_repairs = [mean(point.series("repairs"))
                        for point in adaptive.points]
    print(f"mean repairs per size: fixed={fixed_repairs} "
          f"adaptive={adaptive_repairs}")
    # Adaptive controls duplicates across the sweep.
    assert sum(adaptive_repairs) < sum(fixed_repairs)
    for point in adaptive.points:
        _, repair_median, _ = quantiles(point.series("repairs"))
        assert repair_median <= 3.0, point.x
