"""Figure 3: random trees, dense sessions.

Expected shape: median of exactly one request and one repair per loss,
and a last-member recovery delay below ~2 RTT — competitive with TCP.
"""

from repro.metrics.events import quantiles
from repro.experiments.figure3 import run_figure3

from conftest import scale


def test_figure3(once, bench_runner):
    sizes = (10, 20, 40, 60, 80, 100) if scale(0, 1) else (10, 30, 60)
    sims = scale(8, 20)
    result = once(run_figure3, sizes=sizes, sims=sims, seed=3,
                  runner=bench_runner)

    print()
    print(result.format_table())

    for point in result.points:
        _, request_median, _ = quantiles(point.series("requests"))
        _, repair_median, _ = quantiles(point.series("repairs"))
        _, delay_median, _ = quantiles(point.series("delay_ratio"))
        assert request_median == 1.0, point.x
        assert repair_median == 1.0, point.x
        assert delay_median < 2.5, point.x
