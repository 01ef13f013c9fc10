"""Structured event tracing.

Experiments count things ("how many requests were multicast for this loss?",
"when did member 17 first receive the repair?"). Rather than threading
counters through the protocol code, agents emit :class:`TraceRecord` rows
into a shared :class:`Trace`, and the experiment layer queries it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One traced protocol event."""

    time: float
    node: Any          # node id of the agent that emitted the record
    kind: str          # e.g. "send_request", "recv_repair", "loss_detected"
    detail: dict[str, Any] = field(default_factory=dict, compare=False)

    def __str__(self) -> str:
        extras = " ".join(f"{key}={value}" for key, value in self.detail.items())
        return f"{self.time:10.4f} node={self.node} {self.kind} {extras}"


# ``Trace.record`` builds rows by writing the slots directly (the
# ``_arrived_copies`` idiom of ``repro.net.network``): the generated frozen
# ``__init__`` marshals four arguments into four ``object.__setattr__``
# calls and costs about twice as much per row. Only this module holds
# the slot descriptors; rows stay frozen, hashable and ``==`` to
# ``TraceRecord(...)`` for everyone else.
_new_row = object.__new__
_slots = TraceRecord.__dict__
_set_time: Callable[[TraceRecord, float], None] = _slots["time"].__set__
_set_node: Callable[[TraceRecord, Any], None] = _slots["node"].__set__
_set_kind: Callable[[TraceRecord, str], None] = _slots["kind"].__set__
_set_detail: Callable[[TraceRecord, dict[str, Any]], None] = \
    _slots["detail"].__set__
del _slots

Listener = Callable[[TraceRecord], None]


class Trace:
    """An append-only log of :class:`TraceRecord` rows with simple queries."""

    __slots__ = ("enabled", "records", "kind_totals", "_listeners",
                 "_routes")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: list[TraceRecord] = []
        #: Rows ever recorded per kind. Monotonic: :meth:`clear` does not
        #: reset it, so a consumer that only needs "how many since then"
        #: (the metrics collector's timer activity) reads a difference of
        #: two totals instead of being called once per row.
        self.kind_totals: defaultdict[str, int] = defaultdict(int)
        self._listeners: list[tuple[Listener, Optional[frozenset[str]]]] = []
        #: kind -> the listeners that hear it, in subscription order.
        #: Filled on the first row of a kind, emptied by (un)subscribe.
        self._routes: dict[str, tuple[Listener, ...]] = {}

    def record(self, time: float, node: Any, kind: str,
               detail: Optional[dict[str, Any]] = None, /,
               **fields: Any) -> None:
        """Append a record (no-op when tracing is disabled).

        The detail is given either as keyword ``fields`` or as one
        already-built dict, which the row then owns; forwarding callers
        (``Agent.trace``) pass the dict they were handed instead of
        expanding it into a second one.
        """
        if not self.enabled:
            return
        if detail is None:
            detail = fields
        elif fields:
            raise TypeError("pass the detail as one dict or as keyword "
                            "fields, not both")
        row = _new_row(TraceRecord)
        _set_time(row, time)
        _set_node(row, node)
        _set_kind(row, kind)
        _set_detail(row, detail)
        self.records.append(row)
        self.kind_totals[kind] += 1
        try:
            listeners = self._routes[kind]
        except KeyError:
            listeners = self._route(kind)
        # ``listeners`` is a tuple nobody mutates: a listener may
        # subscribe/unsubscribe from inside its callback without
        # perturbing this delivery round.
        for listener in listeners:
            listener(row)

    def _route(self, kind: str) -> tuple[Listener, ...]:
        """Resolve (and remember) who hears ``kind``."""
        listeners = self._routes[kind] = tuple(
            listener for listener, kinds in self._listeners
            if kinds is None or kind in kinds)
        return listeners

    def subscribe(self, listener: Listener,
                  kinds: Optional[Iterable[str]] = None) -> None:
        """Invoke ``listener`` on every future record (live monitoring).

        ``kinds`` restricts delivery to those record kinds; None means
        everything. Filtering here keeps uninterested listeners off the
        hot record() path entirely.
        """
        self._listeners.append(
            (listener, None if kinds is None else frozenset(kinds)))
        self._routes.clear()

    def unsubscribe(self, listener: Listener) -> None:
        """Stop invoking ``listener``; unknown listeners are a no-op."""
        for index, (registered, _) in enumerate(self._listeners):
            if registered == listener:
                del self._listeners[index]
                self._routes.clear()
                return

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def filter(self, kind: Optional[str] = None,
               node: Optional[Any] = None,
               predicate: Optional[Callable[[TraceRecord], bool]] = None,
               ) -> list[TraceRecord]:
        """Records matching all the given criteria."""
        rows = self.records
        if kind is not None:
            rows = [row for row in rows if row.kind == kind]
        if node is not None:
            rows = [row for row in rows if row.node == node]
        if predicate is not None:
            rows = [row for row in rows if predicate(row)]
        return list(rows)

    def count(self, kind: str, **detail_filters: Any) -> int:
        """Number of records of ``kind`` whose detail matches all filters."""
        total = 0
        for row in self.records:
            if row.kind != kind:
                continue
            if all(row.detail.get(key) == value
                   for key, value in detail_filters.items()):
                total += 1
        return total

    def first(self, kind: str) -> Optional[TraceRecord]:
        """Earliest record of ``kind`` in append order, or None."""
        for row in self.records:
            if row.kind == kind:
                return row
        return None

    def dump(self, limit: Optional[int] = None) -> str:
        """Human-readable rendering (for examples and debugging)."""
        rows = self.records if limit is None else self.records[:limit]
        return "\n".join(str(row) for row in rows)

    def excerpt(self, around: float, window: float = 5.0,
                predicate: Optional[Callable[[TraceRecord], bool]] = None,
                limit: int = 40) -> list[TraceRecord]:
        """Records within ``around +/- window``, for violation reports.

        ``predicate`` narrows the excerpt to the relevant rows (e.g. one
        ADU name); ``limit`` keeps reports bounded on dense traces, keeping
        the rows closest to ``around``.
        """
        low, high = around - window, around + window
        rows = [row for row in self.records
                if low <= row.time <= high
                and (predicate is None or predicate(row))]
        if len(rows) > limit:
            rows.sort(key=lambda row: abs(row.time - around))
            rows = sorted(rows[:limit], key=lambda row: row.time)
        return rows
