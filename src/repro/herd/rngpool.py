# lint: ignore-file[SRM001] -- this module *replays* RandomSource member
# streams from their recorded fork seeds; every random.Random here is
# seeded and deterministic (the same boundary exemption as sim/rng.py).
"""Per-member uniform draw pools, bit-identical to the agent RNG forks.

The agent engine gives every member its own :class:`RandomSource`, forked
from one master as ``master.fork(f"member-{m}")`` in membership order,
and each timer draw consumes exactly one ``random()`` output of that
member's stream (``uniform(low, high)`` is ``low + (high - low) *
random()``). For the herd to make *bit-identical* draws it must consume
the *same member's* stream at the *same position* — but holding 10^5
live ``random.Random`` instances costs ~3 KB of Mersenne state each
(hundreds of MB at mega-session scale).

:class:`DrawPools` therefore keeps, per member:

* the fork's integer seed (a few bytes),
* a prefilled ``M x depth`` float64 pool of the stream's first ``depth``
  raw ``random()`` outputs (the live ``Random`` is discarded after
  prefill), and
* a consumed-draw counter.

``take_many(idx)`` serves draws from the pool with one fancy-indexing
gather. A member that exhausts its prefix (long backoff chains, many
rounds) falls back to a lazily *replayed* ``random.Random(seed)`` that
skips the consumed prefix — recreated once, cached, and advanced in
lockstep afterwards, so overflow costs are paid only by the handful of
members that stay busy long enough to need them.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List

import numpy as np

from repro.sim.rng import RandomSource, mersenne

FloatArray = Any
IntArray = Any

#: Raw uniforms prefilled per member. A figure-style round costs one
#: detection draw plus one per backoff/repair; 16 covers several rounds
#: for the entire herd before any member touches the replay path.
DEFAULT_DEPTH = 16


class DrawPools:
    """Positioned uniform streams for every herd member."""

    __slots__ = ("depth", "_seeds", "_pool", "_used", "_tails")

    def __init__(self, seeds: Iterable[int], depth: int = DEFAULT_DEPTH
                 ) -> None:
        self._seeds: List[int] = list(seeds)
        self.depth = depth
        count = len(self._seeds)
        self._pool = np.empty((count, depth), dtype=np.float64)
        for i, seed in enumerate(self._seeds):
            rng = mersenne(seed)
            self._pool[i] = [rng.random() for _ in range(depth)]
        self._used = np.zeros(count, dtype=np.int64)
        #: Lazily replayed streams for members past their prefix.
        self._tails: Dict[int, random.Random] = {}

    @classmethod
    def from_master(cls, master: RandomSource, members: Iterable[int],
                    depth: int = DEFAULT_DEPTH) -> "DrawPools":
        """Fork ``master`` exactly like the agent engine does.

        Must be called with ``members`` in the same order the agent
        engine attaches agents (membership order), consuming the same
        master draws, so member ``m``'s stream seed matches its agent's.
        """
        return cls((master.fork_seed(f"member-{member}")
                    for member in members), depth=depth)

    # ------------------------------------------------------------------

    def used(self, index: int) -> int:
        return int(self._used[index])

    def take(self, index: int) -> float:
        """The next raw uniform of member ``index``'s stream."""
        position = self._used[index]
        if position < self.depth:
            value = float(self._pool[index, position])
        else:
            value = self._tail(index).random()
        self._used[index] += 1
        return value

    def take_many(self, idx: IntArray) -> FloatArray:
        """One draw per entry of ``idx`` (distinct member indices)."""
        out = np.empty(len(idx), dtype=np.float64)
        used = self._used[idx]
        fresh = used < self.depth
        if fresh.any():
            fi = idx[fresh]
            out[fresh] = self._pool[fi, used[fresh]]
        if not fresh.all():
            for k in np.flatnonzero(~fresh):
                out[k] = self._tail(int(idx[k])).random()
        self._used[idx] += 1
        return out

    def _tail(self, index: int) -> random.Random:
        """The live replayed stream of one overflowed member."""
        tail = self._tails.get(index)
        if tail is None:
            tail = mersenne(self._seeds[index])
            for _ in range(int(self._used[index])):
                tail.random()
            self._tails[index] = tail
        return tail
