"""The invariant checkers.

Each oracle validates one behavioral claim of the paper against the live
trace stream:

* :class:`TraceSchemaOracle` — every row is a kind the table in
  :mod:`repro.sim.trace` declares, carrying exactly its declared detail
  keys in order.
* :class:`SchedulerMonotonicityOracle` — simulated time never runs
  backwards; every record is stamped with the scheduler's current time.
* :class:`ScopeTtlOracle` — no multicast packet is observed at a node its
  TTL could not legally reach, hop counts match the source tree, and
  admin-scoped packets never leave their zone (Section VII-B1).
* :class:`RequestTimerOracle` — request timers are drawn from
  ``[f*C1*d, f*(C1+C2)*d]`` with ``f`` the exponential backoff factor,
  backoff counts advance by exactly one, and footnote 1's
  ignore-backoff heuristic is applied legally (Section III-B).
* :class:`RepairHolddownOracle` — after sending or receiving a repair, a
  member sends no second repair for the same data within the 3·d
  hold-down window (Section III-B).
* :class:`SuppressionOracle` — repair timers are drawn from
  ``[D1*d, (D1+D2)*d]``, at most one repair timer per (member, name) is
  pending, and a cancellation is justified by a repair actually heard.
* :class:`DeliveryConsistencyOracle` — at quiescence, every stable
  member holds every ADU (or legally abandoned it), and all copies are
  identical (Section II-A's eventual-consistency claim).

A member's ``recovery_reset`` trace marker (experiment rounds, group
departure) clears that member's per-name suppression state, mirroring
``SrmAgent.reset_recovery_state``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.oracle.base import EPSILON, Oracle, SessionOracleSuite
from repro.sim.trace import (DELIVER, KINDS, LOSS_DETECTED, RECOVERY_RESET,
                             RECV_REPAIR, REPAIR_CANCELLED, REPAIR_SCHEDULED,
                             REQUEST_ABANDONED, REQUEST_BACKOFF,
                             REQUEST_DUP_IGNORED, REQUEST_IGNORED_HOLDDOWN,
                             REQUEST_TIMER_SET, SEND_DATA, SEND_REPAIR,
                             TraceRecord)

Key = Tuple[Any, Any]  # (node id, ADU name)


def _clear_node(table: Dict[Key, Any], node: Any) -> None:
    for key in [key for key in table if key[0] == node]:
        del table[key]


class SchedulerMonotonicityOracle(Oracle):
    """No event fires before ``now``; records carry the current time."""

    name = "scheduler-sanity"

    def __init__(self, suite: "SessionOracleSuite") -> None:
        super().__init__(suite)
        self._last = float("-inf")

    def reset(self) -> None:
        super().reset()
        self._last = float("-inf")

    def on_record(self, record: TraceRecord) -> None:
        if record.time < self._last - EPSILON:
            self.violate(record.time, record.node,
                         f"time ran backwards: {record.kind} at "
                         f"{record.time:.6f} after t={self._last:.6f}")
        now = self.suite.network.scheduler.now
        if abs(record.time - now) > EPSILON:
            self.violate(record.time, record.node,
                         f"{record.kind} stamped {record.time:.6f} while "
                         f"the scheduler clock reads {now:.6f}")
        if record.time > self._last:
            self._last = record.time


class TraceSchemaOracle(Oracle):
    """Every row is a declared kind carrying exactly its declared keys."""

    name = "trace-schema"

    def on_record(self, record: TraceRecord) -> None:
        spec = KINDS.get(record.kind)
        if spec is None:
            self.violate(record.time, record.node,
                         f"undeclared trace kind {record.kind!r}")
        elif tuple(record.detail) != spec.keys:
            self.violate(record.time, record.node,
                         f"{record.kind} row carries detail keys "
                         f"{list(record.detail)}, declared "
                         f"{list(spec.keys)}",
                         name=record.detail.get("name"))


class ScopeTtlOracle(Oracle):
    """Deliveries respect TTL thresholds, hop counts and scope zones."""

    name = "scope-ttl"

    def __init__(self, suite: "SessionOracleSuite") -> None:
        super().__init__(suite)
        #: origin -> its full source tree, read once per round (a loaded
        #: tree keeps none); a topology edit lands between rounds.
        self._trees: Dict[Any, Any] = {}

    def reset(self) -> None:
        super().reset()
        self._trees.clear()

    def on_record(self, record: TraceRecord) -> None:
        if record.kind != DELIVER or not record.detail.get("mcast"):
            return
        detail = record.detail
        node, origin = record.node, detail["origin"]
        if node == origin:
            return
        network = self.suite.network
        tree = self._trees.get(origin)
        if tree is None:
            try:
                tree = self._trees[origin] = network.source_tree(origin)
            except (KeyError, ValueError):
                return  # origin unroutable; nothing to validate against
        if node not in tree.ttl_required:
            return
        initial_ttl = detail["initial_ttl"]
        if initial_ttl < tree.ttl_required[node]:
            self.violate(record.time, node,
                         f"packet from {origin} delivered with initial TTL "
                         f"{initial_ttl} < required {tree.ttl_required[node]}")
        travelled = initial_ttl - detail["ttl"]
        if travelled != tree.hops[node]:
            self.violate(record.time, node,
                         f"packet from {origin} travelled {travelled} hops "
                         f"by TTL arithmetic but the source tree says "
                         f"{tree.hops[node]}")
        zone = detail.get("zone")
        if zone is not None:
            zone_nodes = network.scope_zones.get(zone)
            if zone_nodes is None:
                self.violate(record.time, node,
                             f"packet scoped to unknown zone {zone!r}")
            else:
                outside = [hop for hop in tree.path(node)
                           if hop not in zone_nodes]
                if outside:
                    self.violate(
                        record.time, node,
                        f"packet scoped to zone {zone!r} crossed nodes "
                        f"{outside} outside the zone")


@dataclass
class _RequestState:
    expected_backoff: int = 0
    detected_at: Optional[float] = None
    current_ignore: Optional[float] = None
    previous_ignore: Optional[float] = None


class RequestTimerOracle(Oracle):
    """Request-timer intervals, backoff doubling, ignore-backoff rule."""

    name = "request-timer"

    def __init__(self, suite: "SessionOracleSuite") -> None:
        super().__init__(suite)
        self._states: Dict[Key, _RequestState] = {}

    def reset(self) -> None:
        super().reset()
        self._states.clear()

    def on_record(self, record: TraceRecord) -> None:
        kind = record.kind
        if kind == RECOVERY_RESET:
            _clear_node(self._states, record.node)
            return
        if kind not in (LOSS_DETECTED, REQUEST_TIMER_SET,
                        REQUEST_BACKOFF, REQUEST_DUP_IGNORED,
                        REQUEST_ABANDONED):
            return
        if self.suite.shared_node(record.node):
            return  # co-located sessions: (node, name) keys collide
        name = record.detail.get("name")
        key = (record.node, name)
        if kind == LOSS_DETECTED:
            self._states[key] = _RequestState(detected_at=record.time)
        elif kind == REQUEST_TIMER_SET:
            self._on_timer_set(record, key)
        elif kind == REQUEST_BACKOFF:
            self._on_backoff(record, key)
        elif kind == REQUEST_DUP_IGNORED:
            self._on_dup_ignored(record, key)
        elif kind == REQUEST_ABANDONED:
            self._states.pop(key, None)

    def _on_timer_set(self, record: TraceRecord, key: Key) -> None:
        detail = record.detail
        backoff = detail["backoff"]
        state = self._states.get(key)
        if backoff == 0:
            if state is None or state.detected_at != record.time:
                self.violate(record.time, record.node,
                             "request timer (re)started at backoff 0 "
                             "without a loss detection at this instant",
                             name=detail["name"])
                state = self._states[key] = _RequestState()
        else:
            if state is None:
                self.violate(record.time, record.node,
                             f"request timer set at backoff {backoff} with "
                             "no recovery state for this name",
                             name=detail["name"])
                state = self._states[key] = _RequestState()
            elif backoff != state.expected_backoff:
                self.violate(record.time, record.node,
                             f"backoff count jumped to {backoff}; expected "
                             f"{state.expected_backoff} (must advance by "
                             "exactly one per reschedule)",
                             name=detail["name"])
        self._check_delay(record, backoff)
        state.previous_ignore = state.current_ignore
        state.current_ignore = detail["ignore_until"]
        state.expected_backoff = backoff + 1

    def _check_delay(self, record: TraceRecord, backoff: int) -> None:
        """``delay`` must lie in ``[f*C1*d, f*(C1+C2)*d]``.

        Only checked with oracle distances and fixed (non-adaptive)
        parameters; otherwise the bounds depend on state the trace does
        not carry.
        """
        config = self.suite.config_for(record.node)
        if config is None or config.adaptive or not config.distance_oracle:
            return
        name = record.detail["name"]
        distance = self.suite.distance(record.node, name.source)
        if distance is None:
            return
        delay = record.detail["delay"]
        factor = config.backoff_factor() ** backoff
        low = factor * config.c1 * distance
        high = factor * (config.c1 + config.c2) * distance
        if high <= 0.0:
            legal = delay <= 1e-9 + EPSILON
        else:
            legal = low - EPSILON <= delay <= high + EPSILON
        if not legal:
            self.violate(record.time, record.node,
                         f"request timer delay {delay:.6f} outside "
                         f"[{low:.6f}, {high:.6f}] "
                         f"(backoff {backoff}, distance {distance:.4f})",
                         name=name)

    def _on_backoff(self, record: TraceRecord, key: Key) -> None:
        state = self._states.get(key)
        if state is None:
            self.violate(record.time, record.node,
                         "request backoff traced with no recovery state",
                         name=record.detail.get("name"))
            return
        # The new timer was already set (and traced) by the time this
        # marker is emitted, so legality is judged against the window in
        # effect when the duplicate request arrived: the previous one.
        ignore_until = state.previous_ignore
        if ignore_until is not None and record.time < ignore_until - EPSILON:
            self.violate(record.time, record.node,
                         f"backed off on a duplicate request at "
                         f"{record.time:.6f}, inside the ignore-backoff "
                         f"window (until {ignore_until:.6f})",
                         name=record.detail.get("name"))

    def _on_dup_ignored(self, record: TraceRecord, key: Key) -> None:
        state = self._states.get(key)
        name = record.detail.get("name")
        if state is None or state.current_ignore is None:
            self.violate(record.time, record.node,
                         "duplicate request ignored with no ignore-backoff "
                         "window in effect", name=name)
        elif record.time > state.current_ignore + EPSILON:
            self.violate(record.time, record.node,
                         f"duplicate request ignored at {record.time:.6f}, "
                         f"after the ignore-backoff window expired "
                         f"({state.current_ignore:.6f}); it should have "
                         "backed off the timer", name=name)


class RepairHolddownOracle(Oracle):
    """No duplicate repair from one member inside the 3·d hold-down.

    The windows are recomputed here from the trace, the config and true
    distances — never read from the agent — so an agent that stops
    enforcing its hold-down is caught rather than believed.
    """

    name = "repair-holddown"

    def __init__(self, suite: "SessionOracleSuite") -> None:
        super().__init__(suite)
        self._windows: Dict[Key, float] = {}

    def reset(self) -> None:
        super().reset()
        self._windows.clear()

    def on_record(self, record: TraceRecord) -> None:
        kind = record.kind
        if kind == RECOVERY_RESET:
            _clear_node(self._windows, record.node)
            return
        if kind in (SEND_REPAIR, RECV_REPAIR,
                    REQUEST_IGNORED_HOLDDOWN) \
                and self.suite.shared_node(record.node):
            return  # co-located sessions: (node, name) keys collide
        if kind == SEND_REPAIR:
            key = (record.node, record.detail["name"])
            window_end = self._windows.get(key)
            if window_end is not None and record.time < window_end - EPSILON:
                self.violate(record.time, record.node,
                             f"repair sent at {record.time:.6f} inside the "
                             f"hold-down window (until {window_end:.6f}) "
                             "opened by an earlier repair",
                             name=record.detail["name"])
            self._open_window(record)
        elif kind == RECV_REPAIR:
            self._open_window(record)
        elif kind == REQUEST_IGNORED_HOLDDOWN:
            key = (record.node, record.detail["name"])
            window_end = self._windows.get(key)
            if window_end is None or record.time > window_end + EPSILON:
                self.violate(record.time, record.node,
                             "request ignored claiming an active hold-down, "
                             "but no hold-down window is in effect",
                             name=record.detail["name"])

    def _open_window(self, record: TraceRecord) -> None:
        """Mirror ``SrmAgent._set_holddown`` (overwrite semantics)."""
        node = record.node
        name = record.detail["name"]
        answering = record.detail.get("answering")
        anchor = answering if answering is not None else name.source
        if anchor == node:
            anchor = name.source
        config = self.suite.config_for(node)
        factor = config.holddown_factor if config is not None else 3.0
        distance = self._distance(node, anchor, config)
        if distance is None:
            return
        self._windows[(node, name)] = record.time + factor * distance

    def _distance(self, node: Any, anchor: Any,
                  config: Optional[Any]) -> Optional[float]:
        if config is None or config.distance_oracle:
            return self.suite.distance(node, anchor)
        agent = self.suite.agent_for(node)
        if agent is None:
            return None
        if anchor == node:
            return 0.0
        try:
            return agent.distances.distance(anchor)
        except KeyError:
            return None


class SuppressionOracle(Oracle):
    """Repair-timer legality: interval bounds, single pending timer,
    and cancellations justified by a repair actually heard."""

    name = "suppression"

    def __init__(self, suite: "SessionOracleSuite") -> None:
        super().__init__(suite)
        self._pending: Dict[Key, Tuple[float, Any]] = {}
        self._last_recv: Dict[Key, float] = {}

    def reset(self) -> None:
        super().reset()
        self._pending.clear()
        self._last_recv.clear()

    def on_record(self, record: TraceRecord) -> None:
        kind = record.kind
        if kind == RECOVERY_RESET:
            _clear_node(self._pending, record.node)
            _clear_node(self._last_recv, record.node)
            return
        if kind not in (REPAIR_SCHEDULED, SEND_REPAIR,
                        REPAIR_CANCELLED, RECV_REPAIR):
            return
        if self.suite.shared_node(record.node):
            return  # co-located sessions: (node, name) keys collide
        name = record.detail.get("name")
        key = (record.node, name)
        if kind == RECV_REPAIR:
            self._last_recv[key] = record.time
        elif kind == REPAIR_SCHEDULED:
            if key in self._pending:
                self.violate(record.time, record.node,
                             "second repair timer scheduled while one is "
                             "already pending for this name", name=name)
            self._pending[key] = (record.time, record.detail["requester"])
        elif kind == SEND_REPAIR:
            entry = self._pending.pop(key, None)
            if entry is None:
                self.violate(record.time, record.node,
                             "repair sent without a scheduled repair timer",
                             name=name)
            else:
                self._check_delay(record, entry)
        elif kind == REPAIR_CANCELLED:
            if self._pending.pop(key, None) is None:
                self.violate(record.time, record.node,
                             "cancelled a repair timer that was never "
                             "scheduled", name=name)
            if self._last_recv.get(key) != record.time:
                self.violate(record.time, record.node,
                             "repair timer cancelled without a repair heard "
                             "at this instant (suppression requires hearing "
                             "another member's repair)", name=name)

    def _check_delay(self, record: TraceRecord,
                     entry: Tuple[float, Any]) -> None:
        """``delay`` must lie in ``[D1*d, (D1+D2)*d]``.

        Only checked when D1/D2 are explicitly configured (the log10(G)
        default moves with group size) and parameters are fixed.
        """
        config = self.suite.config_for(record.node)
        if (config is None or config.adaptive
                or config.d1 is None or config.d2 is None
                or not config.distance_oracle):
            return
        set_at, requester = entry
        distance = self.suite.distance(record.node, requester)
        if distance is None:
            return
        delay = record.time - set_at
        low = config.d1 * distance
        high = (config.d1 + config.d2) * distance
        if high <= 0.0:
            legal = delay <= 1e-9 + EPSILON
        else:
            legal = low - EPSILON <= delay <= high + EPSILON
        if not legal:
            self.violate(record.time, record.node,
                         f"repair timer delay {delay:.6f} outside "
                         f"[{low:.6f}, {high:.6f}] "
                         f"(distance to requester {distance:.4f})",
                         name=record.detail.get("name"))


class DeliveryConsistencyOracle(Oracle):
    """Eventual delivery and copy consistency, checked at quiescence."""

    name = "delivery-consistency"

    def __init__(self, suite: "SessionOracleSuite") -> None:
        super().__init__(suite)
        self._sent: Dict[Any, Any] = {}       # name -> source node
        self._abandoned: Set[Key] = set()

    def reset(self) -> None:
        super().reset()
        self._sent.clear()
        self._abandoned.clear()

    def on_record(self, record: TraceRecord) -> None:
        if record.kind == SEND_DATA:
            self._sent[record.detail["name"]] = record.node
        elif record.kind == REQUEST_ABANDONED:
            self._abandoned.add((record.node, record.detail["name"]))

    def finish(self) -> None:
        suite = self.suite
        agents = suite.agents
        if not agents:
            return
        now = suite.network.scheduler.now
        members = suite.assert_delivery_members
        if members is None:
            members = [node for node, agent in agents.items()
                       if agent.group is not None]
        for name, source in self._sent.items():
            self._check_name(name, source, agents, members, now)

    def _check_name(self, name: Any, source: Any, agents: Dict[Any, Any],
                    members: List[Any], now: float) -> None:
        reference: Any = None
        reference_holder: Any = None
        for node, agent in agents.items():
            if not agent.store.have(name):
                continue
            value = agent.store.get(name)
            if reference_holder is None:
                reference, reference_holder = value, node
            elif value != reference:
                self.violate(now, node,
                             f"holds a copy that differs from node "
                             f"{reference_holder}'s (consistency broken)",
                             name=name)
        for member in members:
            agent = agents.get(member)
            if agent is None or agent.store.have(name):
                continue
            if (member, name) in self._abandoned:
                continue
            if name in agent.pending_requests():
                continue  # run was cut at a horizon mid-recovery
            self.violate(now, member,
                         f"never received ADU from node {source} and has "
                         "neither a pending request nor an abandonment",
                         name=name)


def default_oracles() -> List[type]:
    """The full suite (needs agent visibility for the delivery check)."""
    return passive_oracles() + [DeliveryConsistencyOracle]


def passive_oracles() -> List[type]:
    """Trace-only invariants, safe to attach to any network mid-test.

    Eventual delivery is excluded: it only holds for runs driven to
    quiescence with stable membership, which arbitrary unit tests are
    not.
    """
    return [TraceSchemaOracle, SchedulerMonotonicityOracle, ScopeTtlOracle,
            RequestTimerOracle, RepairHolddownOracle, SuppressionOracle]
