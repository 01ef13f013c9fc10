"""Figure 15: two-step TTL local recovery in a 1000-node degree-4 tree.

Expected shape: for loss neighborhoods of at most a tenth of the
session, the two-step repair reaches a small fraction of the members
(median well under half) with a modest repair/loss-neighborhood ratio —
while one-step repairs over-reach by a large factor, "fairly inefficient
in their use of bandwidth".
"""

from repro.metrics.events import mean, quantiles
from repro.experiments.figure15 import run_figure15

from conftest import scale


def test_figure15(once, bench_runner):
    sizes = (50, 100, 150, 200, 250) if scale(0, 1) else (50, 150, 250)
    sims = scale(10, 20)
    nodes = scale(500, 1000)

    def experiment():
        two = run_figure15(sizes=sizes, sims=sims,
                           num_nodes=nodes, mode="two-step", seed=15,
                           runner=bench_runner)
        one = run_figure15(sizes=sizes, sims=sims,
                           num_nodes=nodes, mode="one-step", seed=15,
                           runner=bench_runner)
        return two, one

    two, one = once(experiment)
    print()
    print(two.format_table())
    print()
    print(one.format_table())

    for two_point, one_point in zip(two.points, one.points):
        _, two_fraction, _ = quantiles(two_point.series("fraction"))
        _, one_fraction, _ = quantiles(one_point.series("fraction"))
        assert two_fraction < 0.5, two_point.x
        assert one_fraction >= two_fraction
    # One-step over-reach: a clearly larger repair/loss ratio overall.
    two_ratio = mean([value for point in two.points
                      for value in point.series("ratio")])
    one_ratio = mean([value for point in one.points
                      for value in point.series("ratio")])
    print(f"mean repair/loss ratio: two-step={two_ratio:.1f} "
          f"one-step={one_ratio:.1f}")
    assert one_ratio > 2 * two_ratio
