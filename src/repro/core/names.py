"""Persistent, globally-unique data names (Sections II-C, III).

SRM assumes "all data has a unique, persistent name" built from the end
host's Source-ID plus a locally-unique sequence number, with a hierarchy
("pages") imposed on the namespace. A name always refers to the same data:
once bound, rebinding a name to different bytes is an application bug that
:class:`repro.core.state.DataStore` refuses.
"""

from __future__ import annotations

from typing import NamedTuple


class PageId(NamedTuple):
    """A page: the unit of state reported in session messages.

    ``creator`` is the Source-ID of the member that created the page and
    ``number`` is locally unique to that creator (paper Section II-C).
    """

    creator: int
    number: int

    def __str__(self) -> str:
        return f"page({self.creator}:{self.number})"


#: The page used by applications that do not need the page hierarchy.
DEFAULT_PAGE = PageId(creator=0, number=0)


class _AduFields(NamedTuple):
    source: int
    page: PageId
    seq: int


class AduName(_AduFields):
    """The persistent name of one application data unit.

    ``source`` is the Source-ID of the member that created the ADU,
    ``page`` the container it belongs to, and ``seq`` the source-local
    sequence number within that page. Sequence numbers start at 1 and,
    per the paper, have "sufficient precision to never wrap" (Python ints).

    Names (and pages) are tuples: they key the data store, the request,
    repair and hold-down tables on every packet, and a tuple hashes,
    compares and orders in C without entering a Python frame.
    """

    __slots__ = ()

    def __new__(cls, source: int, page: PageId, seq: int) -> "AduName":
        if seq < 1:
            raise ValueError(f"sequence numbers start at 1, got {seq}")
        return tuple.__new__(cls, (source, page, seq))

    def __str__(self) -> str:
        source, (creator, number), seq = self
        return f"{source}:{creator}.{number}:{seq}"


def name_range(source: int, page: PageId, first_seq: int,
               last_seq: int) -> list[AduName]:
    """All names from ``first_seq`` to ``last_seq`` inclusive."""
    return [AduName(source, page, seq)
            for seq in range(first_seq, last_seq + 1)]
