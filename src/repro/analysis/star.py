"""Star-topology analysis (Section IV-B).

Setup: G session members on the leaves of a star whose hub is not a
member; all links have delay 1, so every member is at one-way distance 2
from every other. The first packet from member S is dropped on S's
adjacent link; the other G-1 members detect the loss at exactly the same
time, and only the randomized timers (width C2 * d) de-synchronize them.

Key results, with d the member-to-member distance:

* E[#requests] ~= 1 + (G-2)/C2 (all G-1 request when C2 <= 1): after the
  first timer fires at t, its request reaches the others d*2/... exactly
  ``d`` later, so every timer landing in (t, t+d] fires too, and the
  expected count of G-2 uniforms falling in a length-d slice of a
  width-C2*d interval is (G-2)/C2.
* E[delay until the first request] = C1*d + C2*d/G (the minimum of G-1
  uniforms on [C1*d, (C1+C2)*d]); in units of the RTT 2d that is
  (C1 + C2/G)/2.
"""

from __future__ import annotations

def expected_requests(group_size: int, c2: float) -> float:
    """Expected number of requests for one loss in a G-member star."""
    if group_size < 2:
        raise ValueError("need at least two members")
    responders = group_size - 1
    if c2 <= 1.0:
        return float(responders)
    return min(float(responders), 1.0 + (group_size - 2) / c2)


def expected_first_request_delay_ratio(group_size: int, c1: float,
                                       c2: float) -> float:
    """Expected delay until the first request, in units of the RTT.

    Measured from loss detection; this is the "request delay" of the
    member whose timer expires first (Section VI's y-axis for stars).
    """
    if group_size < 2:
        raise ValueError("need at least two members")
    return (c1 + c2 / group_size) / 2.0


def multicast_request_cost(group_size: int, c2: float) -> float:
    """Expected link crossings of multicast NACKs for one loss.

    A multicast from one leaf traverses the whole star: G links (one up,
    G-1 down).
    """
    return expected_requests(group_size, c2) * group_size


def unicast_nack_cost(group_size: int) -> float:
    """Link crossings when every member unicasts a NACK to the source.

    G-1 NACKs, two hops each (leaf -> hub -> source leaf).
    """
    return 2.0 * (group_size - 1)


def nack_breakeven_interval(group_size: int) -> float:
    """The C2 above which multicast NACKs use less bandwidth than unicast.

    Solves multicast_request_cost(G, C2) = unicast_nack_cost(G). This is
    the reproduction of La Porta & Schwartz's observation (discussed in
    Section VI) that the randomization interval must be large — on the
    order of the group size — before multicasting NACKs saves bandwidth
    in a star.
    """
    if group_size < 3:
        raise ValueError("need at least three members")
    denominator = 2.0 * (group_size - 1) / group_size - 1.0
    if denominator <= 0:
        return float("inf")
    return (group_size - 2) / denominator
