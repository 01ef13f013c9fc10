"""Per-member data store and reception state.

:class:`DataStore` holds what a member has and enforces the naming
invariants of Section II-C ("the name always refers to the same data");
:class:`ReceptionState` keeps each (source, page) stream's high-water
mark, the highest sequence number known to exist, and computes the gaps
that drive loss detection.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core.names import AduName, PageId

StreamKey = Tuple[int, PageId]


class NameRebindError(ValueError):
    """Raised when an application tries to bind a name to different data."""


class DataStore:
    """Holds ADU payloads by name.

    Members do not need to keep all data forever; reliable delivery only
    needs each item to survive at *some* member (Section III). ``evict``
    models a member discarding data.
    """

    def __init__(self) -> None:
        #: name -> data, every ADU held: the one record of what a member
        #: has. The receive paths test ``name in store.held``, which
        #: enters no call, for every packet a member hears, and
        #: ``SrmAgent._accept_data`` stores a name that test found
        #: missing straight into it; anything else binds through
        #: :meth:`put`.
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


class ReceptionState:
    """Each (source, page) stream's high-water mark.

    Loss detection is "generally by detecting a gap in the sequence
    space" (Section III). Streams start at sequence 1; receiving seq k
    above a stream's mark therefore reveals every name from one past the
    mark to k-1 as missing and raises the mark to k. Session messages
    raise it for tail losses. Nothing at or below the mark is ever
    revealed again, so each name is revealed at most once; whether it
    has arrived since is the :class:`DataStore`'s to say.

    ``adopt_streams=True`` changes the late-join behavior: first contact
    with a stream (data or a report) sets its mark and reveals nothing,
    so earlier history is never considered missing. This is the right
    mode for live substreams (the receiver-driven layering of Section
    IX-C), where a subscriber wants the stream from now on, not its
    past.

    The marks are indexed page first, source second: a session report
    covers one page, so its receiver resolves the page once
    (:meth:`high_water_table`) and then probes by source, an int.
    """

    def __init__(self, adopt_streams: bool = False) -> None:
        self.adopt_streams = adopt_streams
        #: page -> {source: high-water mark}; a page's dict is made on
        #: first use and never replaced.
        self._pages: Dict[PageId, Dict[int, int]] = {}

    def high_water_table(self, page: PageId) -> Dict[int, int]:
        """The live source -> high-water table of ``page``; read-only.

        The dict is the one :meth:`mark_received` and
        :meth:`note_high_water` update and is never replaced, so the
        session merge may hold on to it.
        """
        try:
            return self._pages[page]
        except KeyError:
            high = self._pages[page] = {}
            return high

    def highest_seq(self, source: int, page: PageId) -> int:
        """Highest sequence number known to exist (0 if none)."""
        pages = self._pages
        return pages[page].get(source, 0) if page in pages else 0

    # ``mark_received`` and ``note_high_water`` take one path, written
    # out in each (one frame per packet): they differ only in whether
    # the new mark itself is revealed.

    def mark_received(self, name: AduName) -> List[AduName]:
        """Record receipt of ``name``; returns newly-discovered gaps.

        The returned names are sequence numbers below ``name.seq`` that
        were revealed missing by this arrival (they were not previously
        known to exist).
        """
        source, page, seq = name
        try:
            high = self._pages[page]
        except KeyError:
            high = self._pages[page] = {}
        if source in high:
            start = high[source] + 1
        elif self.adopt_streams:
            high[source] = seq  # first contact: the stream starts here
            return []
        else:
            start = 1
        if seq < start:
            return []
        high[source] = seq
        return [AduName(source, page, gap) for gap in range(start, seq)]

    def note_high_water(self, source: int, page: PageId,
                        seq: int) -> List[AduName]:
        """Learn (from a session message) that ``seq`` exists.

        Returns the names newly discovered missing, ``seq`` included.
        """
        try:
            high = self._pages[page]
        except KeyError:
            high = self._pages[page] = {}
        if source in high:
            start = high[source] + 1
        elif self.adopt_streams:
            high[source] = seq  # first contact: the stream starts here
            return []
        else:
            start = 1
        if seq < start:
            # Session reports mostly repeat known high-water marks.
            return []
        high[source] = seq
        return [AduName(source, page, gap) for gap in range(start, seq + 1)]

    def page_state(self, page: PageId) -> Dict[StreamKey, int]:
        """The session-message report: highest seq per source on a page."""
        pages = self._pages
        if page not in pages:
            return {}
        return {(source, page): high for source, high in pages[page].items()}
