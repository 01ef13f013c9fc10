"""The unit of work the runner executes: one pure, picklable task.

A task describes one independent simulation round of an experiment sweep:
a module-level function plus keyword arguments that fully determine the
result (topology spec, session membership, SRM config, seed). Because the
arguments are pure data, a task can be shipped to a worker process, and a
stable *fingerprint* of them keys the on-disk result cache — the same
sweep point always hashes to the same key, across processes and runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

from repro.codec import dumps_canonical


def canonical(value: Any) -> Any:
    """Reduce ``value`` to JSON-encodable data with a stable encoding.

    Dataclasses become tagged dicts of their canonicalized fields, dict
    keys are stringified and sorted at encode time, tuples and sets
    become (sorted, for sets) lists. Types without an obviously stable
    encoding are rejected rather than silently hashed by repr — a cache
    key that varies between runs poisons the cache, and one that fails
    to vary returns stale results.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type) \
            and hasattr(value, "to_wire"):
        # Types with a frozen wire contract (ExperimentSpec and friends,
        # see repro.fleet.wire) fingerprint through their versioned
        # spec/v3 encoding, so a spec decoded from the wire keys the
        # cache identically to the in-process original — workers, the
        # fleet controller, and serial runs all share one result store.
        return value.to_wire()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        encoded = {f.name: canonical(getattr(value, f.name))
                   for f in dataclasses.fields(value)}
        encoded["__type__"] = f"{cls.__module__}.{cls.__qualname__}"
        return encoded
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(item) for item in value)
    raise TypeError(
        f"cannot fingerprint {type(value).__qualname__!r} value {value!r}; "
        "task arguments must be plain data (dataclasses, dicts, lists, "
        "numbers, strings)")


def function_ref(fn: Callable) -> str:
    """A stable ``module:qualname`` reference for a task function."""
    return f"{fn.__module__}:{fn.__qualname__}"


@dataclass(frozen=True)
class Task:
    """One sweep point: ``fn(**kwargs)`` in any process, any order.

    ``fn`` must be a module-level function (so it pickles by reference)
    and ``kwargs`` must be pure picklable data. ``index`` is the task's
    position in the sweep — results are always merged in index order,
    never completion order, so parallel runs reproduce serial ones.
    """

    experiment: str
    index: int
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)

    @property
    def task_id(self) -> str:
        return f"{self.experiment}/{self.index}"

    def fingerprint(self, salt: str = "") -> str:
        """Content hash of the task's inputs (not its sweep position).

        Two tasks with identical function and arguments share a
        fingerprint even at different sweep indices, so a reshuffled or
        extended sweep still hits the cache for unchanged points. The
        ``salt`` folds in the code version: bumping it invalidates every
        cached result at once.
        """
        payload = {
            "experiment": self.experiment,
            "fn": function_ref(self.fn),
            "kwargs": canonical(self.kwargs),
            "salt": salt,
        }
        return hashlib.sha256(dumps_canonical(payload).encode()).hexdigest()

    def execute(self) -> Any:
        return self.fn(**self.kwargs)
