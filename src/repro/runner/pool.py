"""A crash-tolerant worker-process pool with per-task deadlines.

``multiprocessing.Pool`` cannot enforce a per-task timeout (``.get``
timeouts leave the worker wedged on the task forever) and a worker that
dies mid-task hangs the whole map. This pool keeps one duplex pipe per
worker, so the parent always knows *which* task a dead or overdue worker
was holding: it terminates the process, respawns a fresh one, and
charges the task one attempt. Which task runs next and when its budget
is spent is decided by :class:`~repro.runner.lease.LeaseTable`; the pool
is its local transport (holder = worker slot, ttl = task timeout).
Results are reported through an event callback as they arrive; the
caller reassembles them in task order.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as _connection_wait
from multiprocessing.context import BaseContext
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.runner.lease import LeaseTable

#: Upper bound on one poll of the worker pipes; keeps deadline checks
#: responsive even when no worker finishes for a while.
_POLL_SECONDS = 0.25


class TaskFailed(RuntimeError):
    """A task raised, or lost its holder more often than its budget
    allows."""

    def __init__(self, index: int, attempts: int, reason: str,
                 cause: str) -> None:
        super().__init__(
            f"task {index} failed after {attempts} attempt(s): {reason}")
        self.index = index
        self.attempts = attempts
        self.reason = reason
        #: How the last attempt ended: "error" | "crash" | "timeout".
        self.cause = cause


@dataclass
class Execution:
    """How one task's successful run went."""

    result: Any
    attempts: int
    duration: float
    pid: Optional[int]


def _worker_main(conn: Connection) -> None:
    """Worker loop: receive ``(index, fn, kwargs)``, send back ``(result,
    error)`` — ``error`` is None unless ``fn`` raised.

    Runs until the parent sends ``None`` or closes the pipe. Exceptions
    are caught and reported as data, and fail the task; only a hard
    crash (``os._exit``, signal, interpreter abort) leaves the pipe
    dangling, which the parent observes as EOF and treats as a
    retryable worker death.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if message is None:
            return
        _, fn, kwargs = message
        reply: Tuple[Any, Optional[str]]
        try:
            reply = (fn(**kwargs), None)
        except BaseException as exc:  # noqa: BLE001 - reported, not hidden
            reply = (None, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """One live worker process and the parent's end of its pipe."""

    def __init__(self, context: BaseContext) -> None:
        parent_conn, child_conn = multiprocessing.Pipe()
        self.conn = parent_conn
        self.process = context.Process(target=_worker_main,
                                       args=(child_conn,), daemon=True)
        self.process.start()
        child_conn.close()

    def kill(self) -> None:
        try:
            self.process.terminate()
        except Exception:
            pass
        self.process.join(timeout=5)
        try:
            self.conn.close()
        except Exception:
            pass

    def stop(self) -> None:
        """Graceful shutdown; ``kill`` only terminates a process that
        has not exited by then."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=2)
        self.kill()


def run_inline(items: List[Tuple[int, Callable, Dict[str, Any]]],
               on_event: Callable[..., None]) -> None:
    """:func:`run_pool`'s contract with no pool: this process, one task
    at a time, one attempt each. No timeout — a task cannot preempt
    itself — and no retry: this process is the only holder, and a
    task's own exception is final."""
    pid = os.getpid()
    for index, fn, kwargs in items:
        on_event("start", index=index, attempts=1, pid=pid)
        begun = time.monotonic()
        try:
            result = fn(**kwargs)
        except Exception as exc:  # noqa: BLE001 - reported
            raise TaskFailed(index, 1, f"{type(exc).__name__}: {exc}",
                             "error") from exc
        on_event("done", index=index, attempts=1,
                 duration=time.monotonic() - begun, pid=pid, result=result)


def run_pool(items: List[Tuple[int, Callable, Dict[str, Any]]],
             jobs: int,
             timeout: Optional[float] = None,
             retries: int = 0,
             on_event: Optional[Callable[..., None]] = None,
             ) -> Dict[int, Execution]:
    """Execute ``(index, fn, kwargs)`` items on ``jobs`` worker processes.

    Returns ``{index: Execution}`` for every item. ``on_event(kind,
    **detail)`` fires with kinds ``start``, ``done`` and ``retry`` as
    the run progresses. Raises :class:`TaskFailed` as soon as any task
    raises, or loses its worker (crash, timeout) ``retries + 1`` times.
    """
    notify = on_event if on_event is not None else (lambda kind, **kw: None)
    context = multiprocessing.get_context()
    #: Row ``n`` is ``items[n]``; a holder is a position in ``workers``.
    table: LeaseTable[int] = LeaseTable(len(items), retries)
    results: Dict[int, Execution] = {}
    workers = [_Worker(context) for _ in range(min(jobs, len(items)))]

    def spend(position: int, slot: int, reason: str, cause: str) -> None:
        """The attempt at row ``position`` failed: announce the retry, or
        raise that the task is failed."""
        if cause != "error":  # the process is dead, or wedged on the task
            workers[slot].kill()
            workers[slot] = _Worker(context)
        index, attempts = items[position][0], table.rows[position].attempts
        if not table.fail(position, slot, reason, cause):
            raise TaskFailed(index, attempts, reason, cause)
        notify("retry", index=index, attempts=attempts, reason=reason,
               cause=cause)

    try:
        while table.state == "running":
            # Hand every pending task to an idle worker.
            now = time.monotonic()
            for slot, worker in enumerate(workers):
                if table.held(slot):
                    continue
                position = table.lease(slot, now, timeout)
                if position is None:
                    break
                worker.conn.send(items[position])
                notify("start", index=items[position][0],
                       attempts=table.rows[position].attempts,
                       pid=worker.process.pid)

            busy: Dict[Any, Tuple[int, int]] = {
                worker.conn: (slot, position)
                for slot, worker in enumerate(workers)
                for position in table.held(slot)}
            for conn in _connection_wait(list(busy), timeout=_POLL_SECONDS):
                slot, position = busy[conn]
                row, pid = table.rows[position], workers[slot].process.pid
                duration = time.monotonic() - row.since
                try:
                    result, error = conn.recv()
                except (EOFError, OSError):
                    # Hard crash mid-task: replace the worker, retry.
                    spend(position, slot, f"worker pid {pid} died", "crash")
                    continue
                if error is not None:
                    spend(position, slot, error, "error")
                    continue
                table.complete(position)
                index = items[position][0]
                results[index] = Execution(result, row.attempts, duration,
                                           pid)
                notify("done", index=index, attempts=row.attempts,
                       duration=duration, pid=pid, result=result)

            # A lease past its deadline: the task overran its timeout.
            now = time.monotonic()
            for position, slot in table.overdue(now):
                overran = now - table.rows[position].since
                spend(position, slot, f"timed out after {overran:.2f}s",
                      "timeout")
    finally:
        for worker in workers:
            worker.stop()
    return results
