"""The one task state machine: ``pending → leased → done | failed``.

Results are content-addressed, so any holder may redo any task; what is
left to decide is policy — how many attempts a task gets and when a
lease is dead. :class:`LeaseTable` is that policy, once, for the
``--jobs`` pool and every fleet job.

The table is pure: no clock, no I/O, no lock. Callers pass ``now`` (any
monotonic float), serialize access themselves, and do the transport's
side of each transition — kill a process, answer an HTTP request.
Leasing a task spends one of its ``retries + 1`` attempts. Both task
kinds are deterministic, so a task's own exception ends it at once;
only a lost holder — a crashed or overdue worker, an expired lease —
hands the task back, to be leased again straight away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Generic, List, Optional, Tuple, TypeVar

#: Whatever names a lease holder: a pool slot number, a fleet worker id.
H = TypeVar("H")


@dataclass
class Row(Generic[H]):
    """One task's scheduling state."""

    status: str = "pending"            # pending | leased | done | failed
    attempts: int = 0                  # leases handed out so far
    holder: Optional[H] = None         # who holds (or last held) the lease
    since: float = 0.0                 # when the current lease began
    deadline: float = math.inf         # leased: when the lease dies
    reason: str = ""                   # why the last attempt failed
    cause: str = ""                    # "error" | "crash" | "timeout"


class LeaseTable(Generic[H]):
    """``size`` tasks, each allowed ``retries + 1`` leased attempts."""

    def __init__(self, size: int, retries: int) -> None:
        self.retries = retries
        self.rows: List[Row[H]] = [Row() for _ in range(size)]

    def lease(self, holder: H, now: float,
              ttl: Optional[float] = None) -> Optional[int]:
        """Lease the lowest pending task (None when there is none). The
        lease dies at ``now + ttl`` unless renewed; with no ``ttl`` it
        never does."""
        for index, row in enumerate(self.rows):
            if row.status == "pending":
                row.status, row.holder = "leased", holder
                row.attempts += 1
                row.since = now
                row.deadline = math.inf if ttl is None else now + ttl
                return index
        return None

    def held(self, holder: H) -> List[int]:
        """The tasks ``holder`` has on lease."""
        return [index for index, row in enumerate(self.rows)
                if row.status == "leased" and row.holder == holder]

    def renew(self, holder: H, now: float, ttl: float) -> None:
        """Push the deadline of every lease ``holder`` has to ``now + ttl``."""
        for index in self.held(holder):
            self.rows[index].deadline = now + ttl

    def complete(self, index: int) -> bool:
        """Mark a task done, whoever reports it. False when it had already
        ended: a straggler's duplicate, or a task already given up on."""
        row = self.rows[index]
        if row.status in ("done", "failed"):
            return False
        row.status = "done"
        return True

    def fail(self, index: int, holder: H, reason: str, cause: str) -> bool:
        """End ``holder``'s attempt in failure; True while the task may be
        leased again. ``cause="error"`` — the task raised — is final. A
        lost holder (``"crash"``, ``"timeout"``) leaves the task pending
        until its attempts are spent. A report from anyone but the
        current holder changes nothing — that attempt was charged when
        its lease was reclaimed — and answers for the task as it
        stands."""
        row = self.rows[index]
        if row.status == "leased" and row.holder == holder:
            row.reason, row.cause = reason, cause
            final = cause == "error" or row.attempts > self.retries
            row.status = "failed" if final else "pending"
        return row.status != "failed"

    def overdue(self, now: float) -> List[Tuple[int, H]]:
        """``(index, holder)`` of every lease past its deadline. The caller
        does what its transport needs (kill the process, drop the worker)
        and calls :meth:`fail`: an expiry spends an attempt, like a
        crash."""
        return [(index, row.holder) for index, row in enumerate(self.rows)
                if row.status == "leased" and row.holder is not None
                and row.deadline <= now]

    @property
    def counts(self) -> Dict[str, int]:
        return {status: sum(row.status == status for row in self.rows)
                for status in ("pending", "leased", "done", "failed")}

    @property
    def state(self) -> str:
        """``failed`` once any task is, ``done`` when all are, else
        ``running``."""
        statuses = {row.status for row in self.rows}
        if "failed" in statuses:
            return "failed"
        return "done" if statuses <= {"done"} else "running"
