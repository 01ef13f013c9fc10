"""Per-member data store and reception state.

:class:`DataStore` enforces the naming invariants of Section II-C ("the
name always refers to the same data"); :class:`ReceptionState` tracks, per
(source, page), which sequence numbers have been received and computes the
gaps that drive loss detection.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.names import AduName, PageId

StreamKey = Tuple[int, PageId]


class NameRebindError(ValueError):
    """Raised when an application tries to bind a name to different data."""


class DataStore:
    """Holds ADU payloads by name.

    Members do not need to keep all data forever; reliable delivery only
    needs each item to survive at *some* member (Section III). ``evict``
    models a member discarding old pages.
    """

    def __init__(self) -> None:
        #: name -> data, every ADU held. Read it, never write it: the
        #: receive paths test ``name in store.held``, which enters no
        #: call, for every packet a member hears.
        self.held: Dict[AduName, Any] = {}

    def __len__(self) -> int:
        return len(self.held)

    def __contains__(self, name: AduName) -> bool:
        return name in self.held

    def have(self, name: AduName) -> bool:
        return name in self.held

    def put(self, name: AduName, data: Any) -> bool:
        """Bind ``name`` to ``data``; returns True when newly stored.

        Rebinding a name to *different* data raises
        :class:`NameRebindError` — changing content must be done with new
        drawops under new names, never by mutating an existing name.
        """
        held = self.held
        if name in held:
            if held[name] != data:
                raise NameRebindError(
                    f"name {name} already bound to different data")
            return False
        held[name] = data
        return True

    def get(self, name: AduName) -> Any:
        return self.held[name]

    def evict(self, name: AduName) -> None:
        self.held.pop(name, None)

    def evict_page(self, page: PageId) -> int:
        """Discard all data on a page; returns the number evicted."""
        victims = [name for name in self.held if name.page == page]
        for name in victims:
            del self.held[name]
        return len(victims)

    def names_on_page(self, page: PageId) -> List[AduName]:
        return sorted(name for name in self.held if name.page == page)


class _PageStreams:
    """One page's per-source tables (sources are plain ints)."""

    __slots__ = ("high", "received", "base")

    def __init__(self) -> None:
        #: source -> highest sequence number known to exist.
        self.high: Dict[int, int] = {}
        self.received: Dict[int, Set[int]] = {}
        #: source -> first seq this member cares about (adopted streams
        #: only). Once ``high`` has the source, ``base <= high + 1``.
        self.base: Dict[int, int] = {}


#: What the read-only queries see for a page nothing was heard on; never
#: written to.
_NO_STREAMS = _PageStreams()


class ReceptionState:
    """Tracks received sequence numbers per (source, page) stream.

    Loss detection is "generally by detecting a gap in the sequence
    space" (Section III). Streams start at sequence 1; receiving seq k
    therefore implies names 1..k-1 exist and any not yet received are
    missing. Session messages extend the known-high-water mark for tail
    losses.

    ``adopt_streams=True`` changes the late-join behavior: the first
    packet heard from a stream defines that stream's starting point, and
    earlier history is never considered missing. This is the right mode
    for live substreams (the receiver-driven layering of Section IX-C),
    where a subscriber wants the stream from now on, not its past.

    Tables are indexed page first, source second: a session report covers
    one page, so its receiver resolves the page once
    (:meth:`high_water_table`) and then probes by source, an int.
    """

    def __init__(self, first_seq: int = 1,
                 adopt_streams: bool = False) -> None:
        self.first_seq = first_seq
        self.adopt_streams = adopt_streams
        self._pages: Dict[PageId, _PageStreams] = {}

    def _page_streams(self, page: PageId) -> _PageStreams:
        """The page's tables, created on first use (write paths only)."""
        try:
            return self._pages[page]
        except KeyError:
            streams = self._pages[page] = _PageStreams()
            return streams

    def high_water_table(self, page: PageId) -> Dict[int, int]:
        """The live source -> high-water table of ``page``; read-only.

        The dict is the one :meth:`mark_received` and
        :meth:`note_high_water` update and is never replaced, so the
        session merge may hold on to it.
        """
        return self._page_streams(page).high

    def streams(self) -> List[StreamKey]:
        return sorted((source, page)
                      for page, streams in self._pages.items()
                      for source in streams.high)

    def highest_seq(self, source: int, page: PageId) -> int:
        """Highest sequence number known to exist (0 if none)."""
        streams = self._pages.get(page, _NO_STREAMS)
        return streams.high.get(
            source, streams.base.get(source, self.first_seq) - 1)

    def has_received(self, name: AduName) -> bool:
        source, page, seq = name
        received = self._pages.get(page, _NO_STREAMS).received
        return source in received and seq in received[source]

    def mark_received(self, name: AduName) -> List[AduName]:
        """Record receipt of ``name``; returns newly-discovered gaps.

        The returned names are sequence numbers below ``name.seq`` that
        were revealed missing by this arrival (they were not previously
        known to exist).
        """
        source, page, seq = name
        streams = self._page_streams(page)
        if (self.adopt_streams and source not in streams.base
                and source not in streams.high):
            # First contact with this stream: adopt it from here on and
            # never treat its history as missing.
            streams.base[source] = seq
        received = streams.received
        if source in received:
            received[source].add(seq)
        else:
            received[source] = {seq}
        return self._raise_high_water(streams, source, page, seq,
                                      exclude=seq)

    def note_high_water(self, source: int, page: PageId,
                        seq: int) -> List[AduName]:
        """Learn (from a session message) that ``seq`` exists.

        Returns the names newly discovered missing.
        """
        streams = self._page_streams(page)
        high = streams.high
        if source in high:
            if seq <= high[source]:
                # Session reports mostly repeat known high-water marks;
                # this is the steady-state path.
                return []
        elif self.adopt_streams and source not in streams.base:
            # An adopted stream we have never received from: note that
            # the data exists but do not chase its history.
            streams.base[source] = seq + 1
            high[source] = seq
            return []
        return self._raise_high_water(streams, source, page, seq,
                                      exclude=None)

    def _raise_high_water(self, streams: _PageStreams, source: int,
                          page: PageId, seq: int,
                          exclude: Optional[int]) -> List[AduName]:
        high = streams.high
        if source in high:
            start = high[source] + 1  # never below the stream's base
        else:
            start = streams.base.get(source, self.first_seq)
        if seq < start:
            return []
        high[source] = seq
        if source not in streams.received:
            streams.received[source] = set()
        received = streams.received[source]
        return [AduName(source, page, candidate)
                for candidate in range(start, seq + 1)
                if candidate != exclude and candidate not in received]

    def missing(self, source: int, page: PageId) -> List[AduName]:
        """All currently-missing names on a stream (for page requests)."""
        streams = self._pages.get(page, _NO_STREAMS)
        received = streams.received.get(source, ())
        base = streams.base.get(source, self.first_seq)
        high = streams.high.get(source, base - 1)
        return [AduName(source, page, seq)
                for seq in range(base, high + 1)
                if seq not in received]

    def page_state(self, page: PageId) -> Dict[StreamKey, int]:
        """The session-message report: highest seq per source on a page."""
        return {(source, page): high for source, high
                in self._pages.get(page, _NO_STREAMS).high.items()}

    def complete(self, source: int, page: PageId) -> bool:
        """True when no known name on the stream is missing."""
        return not self.missing(source, page)
