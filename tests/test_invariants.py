"""Cross-cutting invariant property tests (hypothesis).

Example counts and deadlines come from the shared profiles in
``conftest`` (``SRM_HYPOTHESIS_PROFILE=ci|dev|nightly``); each test
declares only its ``ci`` baseline via ``examples(n)``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples

from repro.metrics.events import quantiles
from repro.core.transmit import TokenBucket, TransmitQueue
from repro.sim.scheduler import EventScheduler


# ----------------------------------------------------------------------
# Quantiles
# ----------------------------------------------------------------------

@settings(max_examples=examples(100))
@given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
def test_quantiles_are_ordered_and_bounded(values):
    q1, median, q3 = quantiles(values)
    assert min(values) <= q1 <= median <= q3 <= max(values)


@settings(max_examples=examples(50))
@given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
       shift=st.floats(-100, 100))
def test_quantiles_are_shift_equivariant(values, shift):
    base = quantiles(values)
    shifted = quantiles([value + shift for value in values])
    for before, after in zip(base, shifted):
        assert abs((before + shift) - after) < 1e-6


# ----------------------------------------------------------------------
# Token bucket: long-run rate conformance
# ----------------------------------------------------------------------

@settings(max_examples=examples(30))
@given(rate=st.floats(1.0, 1000.0), depth=st.floats(1.0, 5000.0),
       sizes=st.lists(st.floats(1.0, 2000.0), min_size=1, max_size=40))
def test_bucket_never_exceeds_rate_plus_burst(rate, depth, sizes):
    """Accepted volume by time T is at most depth + rate * T."""
    sched = EventScheduler()
    bucket = TokenBucket(sched, rate, depth)
    accepted = 0.0
    clock = 0.0
    for size in sizes:
        clock += 0.25
        sched.run(until=clock)
        if bucket.try_consume(size):
            # Oversized packets are charged the full bucket (they could
            # never accumulate more), so conformance is on the charged
            # volume.
            accepted += min(size, depth)
        assert accepted <= depth + rate * clock + 1e-6


@settings(max_examples=examples(30))
@given(sizes=st.lists(st.floats(1.0, 500.0), min_size=1, max_size=30),
       priorities=st.lists(st.integers(0, 2), min_size=1, max_size=30))
def test_transmit_queue_delivers_everything_exactly_once(sizes, priorities):
    sched = EventScheduler()
    queue = TransmitQueue(sched, rate=100.0, depth=200.0)
    sent = []
    count = min(len(sizes), len(priorities))
    for index in range(count):
        queue.submit(priorities[index], sizes[index],
                     lambda index=index: sent.append(index))
    sched.run(until=10_000.0)
    assert sorted(sent) == list(range(count))
    assert len(queue) == 0


@settings(max_examples=examples(30))
@given(sizes=st.lists(st.floats(1.0, 500.0), min_size=2, max_size=30))
def test_transmit_queue_respects_rate(sizes):
    """The pacer's output, after the initial burst, conforms to the
    configured rate."""
    sched = EventScheduler()
    rate, depth = 50.0, 100.0
    queue = TransmitQueue(sched, rate=rate, depth=depth)
    log = []
    volume = {"sent": 0.0}
    for index, size in enumerate(sizes):
        def send(size=size):
            volume["sent"] += min(size, depth)
            log.append((sched.now, volume["sent"]))
        queue.submit(1, size, send)
    sched.run(until=100_000.0)
    for at, sent_volume in log:
        assert sent_volume <= depth + rate * at + 1e-6
