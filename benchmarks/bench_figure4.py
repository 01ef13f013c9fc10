"""Figure 4: sparse sessions in a 1000-node degree-4 tree.

Expected shape: requests stay near one, but duplicate *repairs* are
"somewhat high" with fixed timer parameters — the motivation for the
adaptive algorithm benchmarked in bench_figure13/14.
"""

from repro.metrics.events import mean, quantiles
from repro.experiments.figure4 import run_figure4

from conftest import scale


def test_figure4(once, bench_runner):
    sizes = (20, 40, 60, 80, 100) if scale(0, 1) else (20, 60)
    sims = scale(8, 20)
    result = once(run_figure4, sizes=sizes, sims=sims, seed=4,
                  runner=bench_runner)

    print()
    print(result.format_table())

    repair_means = []
    for point in result.points:
        _, request_median, _ = quantiles(point.series("requests"))
        repair_means.append(mean(point.series("repairs")))
        assert request_median <= 2.0, point.x
    # Duplicate repairs clearly above the dense-session level of 1.
    assert max(repair_means) > 2.0
