"""Seeded random sources.

All randomness in the simulator flows through :class:`RandomSource` so that
a run is exactly reproducible from its seed, and so that independent
subsystems (e.g. each SRM agent's timer draws vs. topology construction)
can be given independent streams derived from one master seed.
"""

from __future__ import annotations

import _random
import random
import zlib
from typing import Callable, NoReturn, Optional, Sequence, TypeVar

T = TypeVar("T")

_Random = random.Random
#: The C-level ``Random.seed``: what ``random.Random(seed)`` ends in for
#: an int seed, after two Python frames (``__init__`` and ``seed``).
_seed_in_c = _random.Random.seed


def mersenne(seed: int) -> random.Random:
    """``random.Random(seed)`` for an int ``seed``, seeded once in C.

    Bit for bit the same generator: ``Random.seed`` hands an int
    straight to the C seeding (MT19937 ``init_by_array`` over the words
    of ``abs(seed)``) and clears ``gauss_next``, and so does this.
    """
    rng = _Random.__new__(_Random)
    _seed_in_c(rng, seed)
    rng.gauss_next = None
    return rng


class RandomSource:
    """A thin, explicitly-seeded wrapper around :class:`random.Random`."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self.seed = seed
        self._rng = (mersenne(seed) if type(seed) is int
                     else random.Random(seed))
        #: One raw uniform on [0, 1): the generator's own C method, so a
        #: draw (every timer and link-loss decision) enters no Python
        #: frame. Bound to this source's generator: a source must never
        #: be copied or pickled, or the copy would draw from the original.
        self.random: Callable[[], float] = self._rng.random

    def __reduce__(self) -> NoReturn:
        raise TypeError("a RandomSource is not copied or pickled: its "
                        "random() is bound to its own generator")

    def uniform(self, low: float, high: float) -> float:
        """Uniform draw on [low, high]."""
        if high < low:
            raise ValueError(f"empty interval [{low}, {high}]")
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer on [low, high] inclusive."""
        return self._rng.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        return self._rng.choice(items)

    def sample(self, items: Sequence[T], count: int) -> list[T]:
        return self._rng.sample(items, count)

    def shuffle(self, items: list[T]) -> None:
        self._rng.shuffle(items)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def jitter(self, value: float, fraction: float = 0.5) -> float:
        """``value`` perturbed by up to +/- ``fraction`` of itself.

        Used by session-message scheduling to avoid synchronization, in the
        spirit of the vat session algorithm.
        """
        return value * (1.0 + fraction * (2.0 * self._rng.random() - 1.0))

    def fork(self, label: str = "") -> "RandomSource":
        """Derive an independent stream from this one.

        Forked streams are deterministic functions of (parent seed, draw
        position, label), so adding draws to one subsystem does not perturb
        another's stream as long as fork order is stable. The seed is
        :meth:`fork_seed`'s.
        """
        return RandomSource(self.fork_seed(label))

    def fork_seed(self, label: str = "") -> int:
        """The seed of the stream :meth:`fork` would derive, drawing what
        it draws: the next 64 bits xor the label's crc32.

        The label is mixed in with a stable hash (crc32), never Python's
        randomized ``hash()``, so runs reproduce across processes. The
        herd (:class:`repro.herd.rngpool.DrawPools`) reads its members'
        seeds here, so both engines derive them one way.
        """
        return self._rng.getrandbits(64) ^ zlib.crc32(label.encode())
