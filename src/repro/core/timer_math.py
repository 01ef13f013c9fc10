"""Pure SRM timer/suppression arithmetic, shared by both engines.

The scalar agent core (:mod:`repro.core.agent`) and the vectorized herd
engine (:mod:`repro.herd`) must make *bit-identical* timer decisions, or
the differential equivalence suite cannot hold counts exact. Every
formula that feeds a timer or a suppression comparison therefore lives
here, once, in the exact shape of the original agent code:

* request timers are uniform on ``[f*C1*d, f*(C1+C2)*d]`` with
  ``f = backoff_factor ** backoff_count`` and ``d`` the distance to the
  source (Section III-A / Figure 3 of the paper);
* repair timers are uniform on ``[D1*d, (D1+D2)*d]`` with ``d`` the
  distance to the requester;
* a zero-width interval (zero distance estimate, or C1 = C2 = 0)
  degenerates to a tiny uniform on ``[0, DEGENERATE_HIGH]`` so
  simultaneous members still de-synchronize;
* after a backoff, duplicate requests are ignored until halfway to the
  new expiry (footnote 1's heuristic); the window is half-open, and
  each engine compares ``now >= until`` in place, per member;
* answering a request starts a ``holddown_factor * d`` ignore window
  (Section III-B's 3*d hold-down).

The fused scalar forms :func:`request_timer` (which also ends the
ignore window of a backoff) and :func:`repair_timer` are the scalar
reference: each clamps the distance, computes the bounds and draws in
one frame, so a timer decision, backoff included, is one call. The draw
reproduces CPython's ``Random.uniform(low, high)`` — ``low + (high -
low) * u`` — from one raw ``random()`` output ``u``, so an engine holding
pre-drawn uniforms makes the same draw the agent would, consuming
exactly one unit of the stream.

The scalar half is dependency-free (``repro.core`` must import without
numpy). The ``*_vec`` variants operate on numpy arrays and import numpy
lazily; they use the same IEEE-754 double arithmetic, so results are
bit-identical to the fused forms element by element.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy

    FloatArray = "numpy.ndarray[Any, numpy.dtype[numpy.float64]]"

#: Upper bound of the degenerate (zero-width) timer interval.
DEGENERATE_HIGH = 1e-9

#: The end of an empty ignore window: every request backs off.
_NO_WINDOW = float("-inf")

# ---------------------------------------------------------------------------
# Scalar path (the agent engine, and the herd's per-member draws)
# ---------------------------------------------------------------------------


def request_timer(distance: float, c1: float, c2: float,
                  backoff_factor: float, backoff_count: int, u: float,
                  now: float = 0.0, ignore: bool = False
                  ) -> Tuple[float, float]:
    """One request timer from a raw uniform ``u`` in ``[0, 1)``, and the
    end of its duplicate-request ignore window.

    The delay is uniform on ``[f*C1*d, f*(C1+C2)*d]`` with ``f =
    backoff_factor ** backoff_count`` (Section III-A); a negative
    distance counts as 0. With ``ignore`` (footnote 1's heuristic, after
    a backoff), duplicate requests are ignored until halfway between
    ``now`` and the new expiry; otherwise the window is empty
    (``-inf``).
    """
    if distance < 0.0:
        distance = 0.0
    factor = backoff_factor ** backoff_count
    high = factor * (c1 + c2) * distance
    if high <= 0.0:
        delay = DEGENERATE_HIGH * u
    else:
        low = factor * c1 * distance
        delay = low + (high - low) * u
    if ignore:
        return delay, now + delay / 2.0
    return delay, _NO_WINDOW


def repair_timer(distance: float, d1: float, d2: float, u: Any) -> Any:
    """One repair timer from a raw uniform ``u`` in ``[0, 1)``.

    Uniform on ``[D1*d, (D1+D2)*d]`` (Section III-A); a negative
    distance counts as 0. ``u`` may be an array of raw uniforms for
    members that share one distance: the draws are then elementwise.
    """
    if distance < 0.0:
        distance = 0.0
    high = (d1 + d2) * distance
    if high <= 0.0:
        return DEGENERATE_HIGH * u
    low = d1 * distance
    return low + (high - low) * u


def holddown_until(now: float, distance: float,
                   holddown_factor: float = 3.0) -> float:
    """End of the repair hold-down window after answering a request."""
    return now + holddown_factor * distance


# ---------------------------------------------------------------------------
# Vectorized path (the herd engine)
# ---------------------------------------------------------------------------


def backoff_factors_vec(backoff_factor: float, counts: Any) -> Any:
    """``backoff_factor ** counts`` elementwise, via CPython ``pow``.

    numpy's ``power`` may differ from CPython's ``float.__pow__`` in the
    last ulp for awkward bases, which would break bit-parity with the
    scalar path. Backoff counts take few distinct small values, so we
    evaluate the scalar ``**`` once per distinct count and broadcast.
    """
    import numpy as np

    counts = np.asarray(counts)
    out = np.empty(counts.shape, dtype=np.float64)
    for count in np.unique(counts):
        out[counts == count] = backoff_factor ** int(count)
    return out


def request_delay_bounds_vec(distances: Any, c1: float, c2: float,
                             counts: Any, backoff_factor: float = 2.0
                             ) -> Tuple[Any, Any]:
    """The bounds :func:`request_timer` draws from, over member arrays."""
    import numpy as np

    distance = np.maximum(np.asarray(distances, dtype=np.float64), 0.0)
    factor = backoff_factors_vec(backoff_factor, counts)
    return factor * c1 * distance, factor * (c1 + c2) * distance


def repair_delay_bounds_vec(distances: Any, d1: float, d2: float
                            ) -> Tuple[Any, Any]:
    """The bounds :func:`repair_timer` draws from, over member arrays."""
    import numpy as np

    distance = np.maximum(np.asarray(distances, dtype=np.float64), 0.0)
    return d1 * distance, (d1 + d2) * distance


def draw_timers_vec(lows: Any, highs: Any, us: Any) -> Any:
    """The draw of :func:`request_timer` / :func:`repair_timer` over
    bound/uniform arrays."""
    import numpy as np

    lows = np.asarray(lows, dtype=np.float64)
    highs = np.asarray(highs, dtype=np.float64)
    us = np.asarray(us, dtype=np.float64)
    draws = lows + (highs - lows) * us
    return np.where(highs <= 0.0, DEGENERATE_HIGH * us, draws)
