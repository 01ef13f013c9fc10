"""Fixture: compliant versions of everything the violation tree breaks."""

from typing import Optional

from repro.sim.rng import RandomSource


def draw(rng: RandomSource) -> float:
    return rng.random()


def stamp(now: float) -> float:
    return now


def emit(members: list) -> list:
    pending = set(members)
    out = []
    for member in sorted(pending):
        out.append(member)
    return out


def total(members: list) -> int:
    return sum(set(members))


def collect(item: int, into: Optional[list] = None) -> list:
    if into is None:
        into = []
    into.append(item)
    return into


def fired_together(timer_a, timer_b) -> bool:
    return not (timer_a.expiry < timer_b.expiry
                or timer_b.expiry < timer_a.expiry)
