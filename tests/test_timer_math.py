"""Property tests for the shared SRM timer arithmetic.

:mod:`repro.core.timer_math` is the one place both engines (the scalar
agent core and the vectorized herd) get their timer decisions from, and
the differential equivalence suite only holds if the two code paths are
*bit-identical*. These properties pin the contract:

* the fused forms ``request_timer`` / ``repair_timer`` equal, bit for
  bit, the piecewise model below (clamp with ``max``, compute the
  bounds, then draw), for every distance: negative, -0.0 and NaN too;
* a draw reproduces CPython's ``Random.uniform`` exactly;
* drawn delays always land inside the advertised bounds;
* backoff doubling is exact (powers of two are exact in binary64);
* the suppression predicates are monotone in time;
* every ``*_vec`` variant equals the fused forms element by element,
  down to the last bit.
"""

from __future__ import annotations

import math
import random
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timer_math import (DEGENERATE_HIGH, backoff_factors_vec,
                                   draw_timers_vec, holddown_until,
                                   repair_delay_bounds_vec, repair_timer,
                                   request_delay_bounds_vec, request_timer)

from conftest import examples

finite = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
distances = st.floats(min_value=0.0, max_value=1e6)
constants = st.floats(min_value=0.0, max_value=1e3)
times = st.floats(min_value=0.0, max_value=1e9)
#: Every distance a member may hold: zero, -0.0, a negative (clock-skewed)
#: estimate, NaN, and ordinary positive ones.
any_distance = st.one_of(st.sampled_from([0.0, -0.0, -1.0, math.nan]),
                         st.floats(-1e6, 1e6))
#: Timer constants, with the degenerate C1 = C2 = 0 case drawn often.
any_constant = st.one_of(st.just(0.0), constants)
factors = st.sampled_from([1.0, 2.0, 1.5, 3.0])
counts = st.integers(0, 8)


# ----------------------------------------------------------------------
# The piecewise model the fused forms must equal: the bounds, then the
# draw, each in its own step, as the forms were first written.
# ----------------------------------------------------------------------

def request_delay_bounds(distance, c1, c2, backoff_count=0,
                         backoff_factor=2.0):
    distance = max(distance, 0.0)
    factor = backoff_factor ** backoff_count
    return factor * c1 * distance, factor * (c1 + c2) * distance


def repair_delay_bounds(distance, d1, d2):
    distance = max(distance, 0.0)
    return d1 * distance, (d1 + d2) * distance


def draw_timer(low, high, u):
    if high <= 0.0:
        return DEGENERATE_HIGH * u
    return low + (high - low) * u


def bits(value):
    return struct.pack("<d", value)


# ----------------------------------------------------------------------
# draw_timer == Random.uniform, bit for bit
# ----------------------------------------------------------------------

@settings(max_examples=examples(200))
@given(seed=st.integers(0, 2**32 - 1), low=st.floats(0.0, 1e6),
       width=st.floats(1e-12, 1e6))
def test_draw_timer_matches_random_uniform(seed, low, width):
    high = low + width
    rng = random.Random(seed)
    u = rng.random()
    expected = random.Random(seed).uniform(low, high)
    assert draw_timer(low, high, u) == expected
    # At unit distance the fused forms' bounds are their constants.
    assert repair_timer(1.0, low, width, u) == expected
    assert request_timer(1.0, low, width, 2.0, 0, u)[0] == expected


@given(u=unit, c1=constants, c2=constants, count=counts)
def test_draw_timer_degenerate_interval(u, c1, c2, count):
    # Zero-width (or inverted) bounds fall back to a tiny uniform so
    # equidistant members still de-synchronize.
    assert draw_timer(0.0, 0.0, u) == DEGENERATE_HIGH * u
    assert draw_timer(5.0, -1.0, u) == DEGENERATE_HIGH * u
    assert request_timer(0.0, c1, c2, 2.0, count, u)[0] == \
        DEGENERATE_HIGH * u
    assert repair_timer(0.0, c1, c2, u) == DEGENERATE_HIGH * u
    assert request_timer(5.0, 0.0, 0.0, 2.0, count, u)[0] == \
        DEGENERATE_HIGH * u
    assert repair_timer(5.0, 0.0, 0.0, u) == DEGENERATE_HIGH * u


# ----------------------------------------------------------------------
# Bounds containment
# ----------------------------------------------------------------------

@settings(max_examples=examples(150))
@given(distance=distances, c1=constants, c2=constants,
       count=st.integers(0, 16), u=unit)
def test_request_draw_lands_inside_bounds(distance, c1, c2, count, u):
    low, high = request_delay_bounds(distance, c1, c2, count)
    delay = request_timer(distance, c1, c2, 2.0, count, u)[0]
    if high <= 0.0:
        assert 0.0 <= delay < DEGENERATE_HIGH
    else:
        assert low <= delay <= high


@settings(max_examples=examples(150))
@given(distance=distances, d1=constants, d2=constants, u=unit)
def test_repair_draw_lands_inside_bounds(distance, d1, d2, u):
    low, high = repair_delay_bounds(distance, d1, d2)
    delay = repair_timer(distance, d1, d2, u)
    if high <= 0.0:
        assert 0.0 <= delay < DEGENERATE_HIGH
    else:
        assert low <= delay <= high


@given(distance=st.floats(-1e6, -1e-9), c1=constants, c2=constants,
       count=counts, u=unit)
def test_negative_distance_estimates_clamp_to_zero(distance, c1, c2,
                                                   count, u):
    assert request_delay_bounds(distance, c1, c2) == (0.0, 0.0)
    assert repair_delay_bounds(distance, c1, c2) == (0.0, 0.0)
    assert request_timer(distance, c1, c2, 2.0, count, u)[0] == \
        DEGENERATE_HIGH * u
    assert repair_timer(distance, c1, c2, u) == DEGENERATE_HIGH * u


# ----------------------------------------------------------------------
# Backoff doubling
# ----------------------------------------------------------------------

@settings(max_examples=examples(150))
@given(distance=st.floats(1e-6, 1e6), c1=st.floats(1e-6, 1e3),
       c2=constants, count=st.integers(0, 15))
def test_backoff_doubles_bounds_exactly(distance, c1, c2, count):
    # Powers of two are exact in binary64, so with the default factor
    # each backoff multiplies both bounds by exactly 2.
    lows, highs = request_delay_bounds_vec(
        np.asarray([distance, distance]), c1, c2,
        np.asarray([count, count + 1]))
    assert lows[1] == 2.0 * lows[0]
    assert highs[1] == 2.0 * highs[0]


@given(count=st.integers(0, 30), factor=st.floats(1.0, 4.0))
def test_backoff_factors_vec_matches_scalar_pow(count, factor):
    counts = np.asarray([count, 0, count], dtype=np.int64)
    out = backoff_factors_vec(factor, counts)
    assert out[0] == factor ** count
    assert out[1] == factor ** 0
    assert out[2] == out[0]


# ----------------------------------------------------------------------
# Suppression-window monotonicity
# ----------------------------------------------------------------------

@given(now=times, distance=st.floats(0.0, 1e6), c1=constants,
       c2=constants, count=counts, u=unit)
def test_ignore_window_covers_half_the_new_delay(now, distance, c1, c2,
                                                 count, u):
    delay, until = request_timer(distance, c1, c2, 2.0, count, u, now, True)
    assert until == now + delay / 2.0
    # A first timer, or the heuristic off: an empty window.
    assert request_timer(distance, c1, c2, 2.0, count, u, now) == \
        (delay, float("-inf"))
    assert until >= now
    if now >= until:
        # Only possible when the half-delay rounded away entirely
        # (delay tiny relative to now's magnitude).
        assert until == now


@given(now=times, d_near=st.floats(0.0, 1e6), gap=st.floats(0.0, 1e6))
def test_holddown_is_monotone_in_distance(now, d_near, gap):
    # A farther requester always implies an equal-or-later hold-down
    # horizon (the 3*d window grows with distance).
    assert holddown_until(now, d_near + gap) >= holddown_until(now, d_near)


# ----------------------------------------------------------------------
# Vectorized == scalar, elementwise, bit for bit
# ----------------------------------------------------------------------

member_batches = st.lists(
    st.tuples(distances, st.integers(0, 16), unit), min_size=1, max_size=32)


@settings(max_examples=examples(100))
@given(batch=member_batches, c1=constants, c2=constants,
       factor=st.sampled_from([1.0, 2.0, 1.5, 3.0]))
def test_request_bounds_vec_bitwise_equals_scalar(batch, c1, c2, factor):
    dists = np.asarray([b[0] for b in batch], dtype=np.float64)
    counts = np.asarray([b[1] for b in batch], dtype=np.int64)
    lows, highs = request_delay_bounds_vec(dists, c1, c2, counts, factor)
    for i, (d, count, _) in enumerate(batch):
        low, high = request_delay_bounds(d, c1, c2, count, factor)
        assert lows[i] == low
        assert highs[i] == high


@settings(max_examples=examples(100))
@given(batch=member_batches, d1=constants, d2=constants)
def test_repair_bounds_vec_bitwise_equals_scalar(batch, d1, d2):
    dists = np.asarray([b[0] for b in batch], dtype=np.float64)
    lows, highs = repair_delay_bounds_vec(dists, d1, d2)
    for i, (d, _, _) in enumerate(batch):
        low, high = repair_delay_bounds(d, d1, d2)
        assert lows[i] == low
        assert highs[i] == high


@settings(max_examples=examples(100))
@given(batch=member_batches, c1=constants, c2=constants)
def test_draw_timers_vec_bitwise_equals_scalar(batch, c1, c2):
    dists = np.asarray([b[0] for b in batch], dtype=np.float64)
    counts = np.asarray([b[1] for b in batch], dtype=np.int64)
    us = np.asarray([b[2] for b in batch], dtype=np.float64)
    lows, highs = request_delay_bounds_vec(dists, c1, c2, counts)
    draws = draw_timers_vec(lows, highs, us)
    for i, (d, count, u) in enumerate(batch):
        assert draws[i] == request_timer(d, c1, c2, 2.0, count, u)[0]


# ----------------------------------------------------------------------
# Fused == piecewise model == vectorized, bit for bit
# ----------------------------------------------------------------------

@settings(max_examples=examples(300))
@given(distance=any_distance, c1=any_constant, c2=any_constant,
       factor=factors, count=counts, u=unit)
def test_request_timer_equals_bounds_then_draw(distance, c1, c2, factor,
                                               count, u):
    # ``if distance < 0.0`` clamps exactly as ``max(distance, 0.0)``
    # does: -0.0 and NaN pass through both unchanged.
    expected = draw_timer(*request_delay_bounds(distance, c1, c2, count,
                                                factor), u)
    assert bits(request_timer(distance, c1, c2, factor, count, u)[0]) == \
        bits(expected)
    # A backoff's ignore window does not change the draw.
    delay, _ = request_timer(distance, c1, c2, factor, count, u, 1.0, True)
    assert bits(delay) == bits(expected)


@settings(max_examples=examples(300))
@given(distance=any_distance, d1=any_constant, d2=any_constant, u=unit)
def test_repair_timer_equals_bounds_then_draw(distance, d1, d2, u):
    expected = draw_timer(*repair_delay_bounds(distance, d1, d2), u)
    assert bits(repair_timer(distance, d1, d2, u)) == bits(expected)


def same_draw(vec, scalar):
    """Bitwise equal, or both NaN (numpy and CPython may set a NaN's
    sign bit differently; a NaN distance draws NaN either way)."""
    if math.isnan(scalar):
        return math.isnan(vec)
    return bits(float(vec)) == bits(scalar)


fused_batches = st.lists(st.tuples(any_distance, counts, unit),
                         min_size=1, max_size=32)


@settings(max_examples=examples(150))
@given(batch=fused_batches, c1=any_constant, c2=any_constant,
       factor=factors)
def test_request_timer_equals_vec_forms(batch, c1, c2, factor):
    dists = np.asarray([b[0] for b in batch], dtype=np.float64)
    counts_ = np.asarray([b[1] for b in batch], dtype=np.int64)
    us = np.asarray([b[2] for b in batch], dtype=np.float64)
    draws = draw_timers_vec(
        *request_delay_bounds_vec(dists, c1, c2, counts_, factor), us)
    for i, (d, count, u) in enumerate(batch):
        assert same_draw(draws[i], request_timer(d, c1, c2, factor,
                                                 count, u)[0])


@settings(max_examples=examples(150))
@given(batch=fused_batches, d1=any_constant, d2=any_constant)
def test_repair_timer_equals_vec_forms(batch, d1, d2):
    dists = np.asarray([b[0] for b in batch], dtype=np.float64)
    us = np.asarray([b[2] for b in batch], dtype=np.float64)
    draws = draw_timers_vec(*repair_delay_bounds_vec(dists, d1, d2), us)
    for i, (d, _, u) in enumerate(batch):
        assert same_draw(draws[i], repair_timer(d, d1, d2, u))
    # The herd's batched repair draws: one shared distance, an array of
    # uniforms, elementwise as the vectorized forms draw them.
    d = batch[0][0]
    shared = repair_timer(d, d1, d2, us)
    vec = draw_timers_vec(
        *repair_delay_bounds_vec(np.full(len(us), d), d1, d2), us)
    for got, want in zip(np.broadcast_to(shared, us.shape), vec):
        assert same_draw(want, float(got))
