"""Structured event tracing, and the vocabulary of its rows.

Experiments count things ("how many requests were multicast for this loss?",
"when did member 17 first receive the repair?"). Rather than threading
counters through the protocol code, agents emit :class:`TraceRecord` rows
into a shared :class:`Trace`, and the experiment layer queries it. A
row is built only for a kind something reads — one the trace keeps or a
listener subscribed to — and otherwise only counted.

Every row kind a protocol engine emits is declared once, in the table at
the end of this module (:data:`KINDS`): its detail keys, its metric
roles, its volatile keys and whether the herd engine emits it. A kind's
handle is the kind string bound to a module-level name (``SEND_REQUEST``),
so a misspelt kind is an undefined name, not a new kind. The collector's
kind sets, the race masks and the herd vocabulary are read off the table;
``Trace.subscribe`` and ``Trace.keep`` refuse a kind the table lacks, and
under ``--check`` the ``trace-schema`` oracle holds every row to it.
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
    kind: str          # a declared kind, e.g. SEND_REQUEST
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
    """An append-only log of :class:`TraceRecord` rows with simple queries.

    Rows are built on demand. :attr:`keep` names the kinds stored in
    :attr:`records`. A kind is *wanted* (in :attr:`wanted`, a frozenset
    of declared kinds) when it is kept or a listener named it in
    ``subscribe(kinds=...)``, and only a wanted kind's rows are built.
    Every row, wanted or not, is counted in :attr:`kind_totals`. An
    emitter that builds a detail dict asks ``kind in trace.wanted``
    first and otherwise only bumps ``kind_totals[kind]``, as every
    emission site of ``SrmAgent`` and ``Network`` does.
    """

    __slots__ = ("records", "kind_totals", "wanted", "_keep", "_listeners",
                 "_routes")

    wanted: frozenset[str]
    _keep: Optional[frozenset[str]]

    def __init__(self, keep: Optional[Iterable[str]] = None) -> None:
        self.records: list[TraceRecord] = []
        #: Rows ever recorded per kind, built or not. Monotonic:
        #: :meth:`clear` does not reset it, so a consumer that only needs
        #: "how many since then" (the metrics collector's timer activity)
        #: reads a difference of two totals instead of being called once
        #: per row.
        self.kind_totals: defaultdict[str, int] = defaultdict(int)
        self._listeners: list[tuple[Listener, Optional[frozenset[str]]]] = []
        #: kind -> what a row is handed to: ``records.append`` when the
        #: kind is kept, then the listeners that hear it, in subscription
        #: order; empty for a kind nobody wants. Filled on the first row
        #: of a kind, emptied by every change to :attr:`wanted`.
        self._routes: dict[str, tuple[Listener, ...]] = {}
        self.keep = keep

    @property
    def keep(self) -> Optional[frozenset[str]]:
        """The kinds stored in :attr:`records`.

        None keeps every kind, declared or not; ``()`` keeps none. Set it
        to a collection of declared kinds (a bare string or an undeclared
        kind raises ``ValueError``).
        """
        return self._keep

    @keep.setter
    def keep(self, kinds: Optional[Iterable[str]]) -> None:
        self._keep = None if kinds is None else _declared(kinds)
        self._rewire()

    def _rewire(self) -> None:
        """Recompute :attr:`wanted` and forget every route."""
        wanted = _DECLARED if self._keep is None else self._keep
        for _, kinds in self._listeners:
            if kinds is not None:
                wanted = wanted | kinds
        self.wanted = wanted
        self._routes.clear()

    def record(self, time: float, node: Any, kind: str,
               detail: Optional[dict[str, Any]] = None, /,
               **fields: Any) -> None:
        """Count a row of ``kind``; build, store and route it if wanted.

        The detail is given either as keyword ``fields`` or as one
        already-built dict, which the row then owns: the agent passes a
        dict literal, and a forwarding caller (``HerdSimulation._emit``)
        the dict it was handed instead of expanding it into a second one.
        """
        if detail is None:
            detail = fields
        elif fields:
            raise TypeError("pass the detail as one dict or as keyword "
                            "fields, not both")
        self.kind_totals[kind] += 1
        try:
            route = self._routes[kind]
        except KeyError:
            route = self._route(kind)
        if not route:
            return
        row = _new_row(TraceRecord)
        _set_time(row, time)
        _set_node(row, node)
        _set_kind(row, kind)
        _set_detail(row, detail)
        # ``route`` is a tuple nobody mutates: a listener may
        # subscribe/unsubscribe from inside its callback without
        # perturbing this delivery round.
        for deliver in route:
            deliver(row)

    def _route(self, kind: str) -> tuple[Listener, ...]:
        """Resolve (and remember) what a row of ``kind`` is handed to."""
        keep = self._keep
        route: list[Listener] = []
        if keep is None or kind in self.wanted:
            if keep is None or kind in keep:
                route.append(self.records.append)
            route.extend(listener for listener, kinds in self._listeners
                         if kinds is None or kind in kinds)
        routed = self._routes[kind] = tuple(route)
        return routed

    def subscribe(self, listener: Listener,
                  kinds: Optional[Iterable[str]] = None) -> None:
        """Invoke ``listener`` on every future row it subscribes to.

        ``kinds`` restricts delivery to those kinds and makes them
        wanted, so a listener that names a kind hears its next row even
        on a trace that keeps nothing. None hears every row the trace
        builds and makes no kind wanted: a catch-all observer (the
        passive oracle suite) never turns rows on. A bare string (which
        would subscribe to its letters) and a kind the table does not
        declare (which no engine emits) raise ``ValueError``: either
        listener would never be called.
        """
        self._listeners.append(
            (listener, None if kinds is None else _declared(kinds)))
        self._rewire()

    def unsubscribe(self, listener: Listener) -> None:
        """Stop invoking ``listener``; unknown listeners are a no-op."""
        for index, (registered, _) in enumerate(self._listeners):
            if registered == listener:
                del self._listeners[index]
                self._rewire()
                return

    def unsubscribe_all(self) -> None:
        """Stop invoking every listener (``Network.close``: the run that
        fed them is over, and a listener that holds the network, as an
        oracle suite does, would keep the finished run a cycle)."""
        if self._listeners:
            self._listeners.clear()
            self._rewire()

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


# ----------------------------------------------------------------------
# The row vocabulary
# ----------------------------------------------------------------------

#: The metric roles a kind can play (``repro.metrics.collector``):
#: ``event`` rows feed the per-loss-event reports, ``timer`` rows are
#: counted as timer activity, ``control`` rows put a control packet on
#: the wire.
ROLES = frozenset({"event", "timer", "control"})


@dataclass(frozen=True, slots=True)
class TraceKind:
    """One declared row kind (see :func:`_declare`)."""

    keys: tuple[str, ...]
    roles: frozenset[str]
    volatile: frozenset[str]
    herd: bool


#: kind -> its declaration, in declaration order.
KINDS: dict[str, TraceKind] = {}


def _declare(name: str, keys: str = "", roles: str = "",
             herd: bool = False) -> str:
    """Declare one kind and return its handle (``name`` itself).

    ``keys`` are the detail keys every row carries, in emitted order, a
    volatile one starred; ``roles`` a subset of :data:`ROLES`; ``herd``
    whether the herd engine emits the kind too, with the same keys.
    """
    spec = TraceKind(tuple(key.rstrip("*") for key in keys.split()),
                     frozenset(roles.split()),
                     frozenset(key[:-1] for key in keys.split()
                               if key.endswith("*")), herd)
    if name in KINDS or not spec.roles <= ROLES:
        raise ValueError(f"bad trace kind declaration {name!r}: {spec}")
    KINDS[name] = spec
    return name


def kinds_with(role: str) -> frozenset[str]:
    """The declared kinds that play ``role`` (one of :data:`ROLES`)."""
    return frozenset(name for name, spec in KINDS.items()
                     if role in spec.roles)


# Volatile (starred) keys are masked when the race detector
# (repro.lint.races) compares replays:
#
# * ``packet`` — uids come from a process-global ``itertools.count``, so
#   two replays see different absolute uids even when behaviour is
#   identical.
# * ``requester`` / ``answering`` — the algorithm arms one repair timer
#   per loss in response to "the first request received" (Section IV);
#   when several requests arrive at the *exact same instant*, which of
#   them is "first" is drain-order bookkeeping. Its behavioural
#   consequences — the repair timer's bounds, expiry, and the repair
#   itself — are still compared exactly via the timer and send rows, so
#   a requester pick that *changes behaviour* (e.g. a different-distance
#   requester shifting the repair delay) is still caught. ``answering``
#   is the same pick echoed on the repair rows.

# Data, loss detection and recovery (core/agent.py, herd/engine.py).
SEND_DATA = _declare("send_data", "name", herd=True)
RECV_DATA = _declare("recv_data", "name repair")
LOSS_DETECTED = _declare("loss_detected", "name", "event", herd=True)
DATA_RECOVERED = _declare("data_recovered", "name delay rtt ratio via",
                          "event", herd=True)
RECOVERY_RESET = _declare("recovery_reset", herd=True)

# Request timers: set, fire, suppression and backoff (Section III-B).
REQUEST_TIMER_SET = _declare(
    "request_timer_set", "name delay backoff ignore_until", "timer",
    herd=True)
FIRST_REQUEST_EVENT = _declare(
    "first_request_event", "name delay rtt ratio via", "event", herd=True)
SEND_REQUEST = _declare("send_request", "name round ttl",
                        "event timer control", herd=True)
DUP_REQUEST_OBSERVED = _declare("dup_request_observed", "name requester*",
                                "timer", herd=True)
REQUEST_BACKOFF = _declare("request_backoff", "name count", "timer",
                           herd=True)
REQUEST_DUP_IGNORED = _declare("request_dup_ignored", "name", "timer",
                               herd=True)
REQUEST_ABANDONED = _declare("request_abandoned", "name", "timer",
                             herd=True)

# Repair timers, hold-down and two-step local repair (Sections III-B,
# VII-B3).
REQUEST_IGNORED_HOLDDOWN = _declare("request_ignored_holddown", "name",
                                    "timer", herd=True)
REQUEST_WHILE_REPAIR_PENDING = _declare("request_while_repair_pending",
                                        "name", "timer", herd=True)
REPAIR_SCHEDULED = _declare("repair_scheduled", "name requester*",
                            "timer", herd=True)
SEND_REPAIR = _declare("send_repair", "name two_step delay ratio answering*",
                       "event timer control", herd=True)
RECV_REPAIR = _declare("recv_repair", "name replier answering*")
REPAIR_CANCELLED = _declare("repair_cancelled", "name", "timer", herd=True)
DUP_REPAIR_OBSERVED = _declare("dup_repair_observed", "name replier",
                               "timer", herd=True)
SEND_REPAIR_SECOND_STEP = _declare("send_repair_second_step", "name ttl",
                                   "event control")

# Page-state recovery (Section III-A).
SEND_PAGE_REQUEST = _declare("send_page_request", "page", "control")
PAGE_REQUEST_SUPPRESSED = _declare("page_request_suppressed", "page")
SEND_PAGE_REPLY = _declare("send_page_reply", "page", "control")
PAGE_REPLY_SUPPRESSED = _declare("page_reply_suppressed", "page")

# Session messages (core/session.py), FEC (core/fec.py), whiteboard
# integrity (wb/whiteboard.py).
SEND_SESSION = _declare("send_session", "scoped", "control")
SEND_FEC = _declare("send_fec", "page first_seq")
FEC_RECONSTRUCTED = _declare("fec_reconstructed", "name")
WB_INTEGRITY_REJECTED = _declare("wb_integrity_rejected", "name")

# Transport (net/network.py, live/session.py). ``deliver`` rows exist
# only while ``trace_deliveries`` is on (check mode).
DELIVER = _declare("deliver",
                   "packet* packet_kind origin ttl initial_ttl zone mcast")
DROP = _declare("drop", "packet* packet_kind link")
QUEUE_DROP = _declare("queue_drop", "packet* packet_kind link")

#: Every declared kind: what ``Trace.subscribe(kinds=...)`` and
#: ``Trace.keep`` accept, and what ``keep=None`` wants.
_DECLARED = frozenset(KINDS)


def _declared(kinds: Iterable[str]) -> frozenset[str]:
    """``kinds`` as a set, refusing a bare string and undeclared kinds."""
    if kinds.__class__ is str:
        raise ValueError(f"kinds={kinds!r} is one string; pass a "
                         "collection of declared kinds")
    named = frozenset(kinds)
    if not named <= _DECLARED:
        raise ValueError("undeclared trace kinds: "
                         f"{sorted(named - _DECLARED)}")
    return named
