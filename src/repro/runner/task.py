"""The unit of work the runner executes: one of its two task kinds.

Only two functions ever run through the runner: ``run_experiment``
with one ``ExperimentSpec`` (a sweep point of a figure) and
``run_fuzz_case`` with one JSON case dict (``repro fuzz``). :data:`KINDS`
names both by ``module:qualname``, so this module imports neither, and
a :class:`Task` of any other shape is refused when it is built — in
every mode, before any worker sees it. Both functions are deterministic
in their one argument, so a task can be shipped to a worker process, and
a stable *fingerprint* of the argument keys the on-disk result cache —
the same sweep point always hashes to the same key, across processes and
runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

from repro.codec import dumps_canonical

RUN_EXPERIMENT = "repro.experiments.common:run_experiment"
RUN_FUZZ_CASE = "repro.oracle.fuzz:run_fuzz_case"


def function_ref(fn: Any) -> str:
    """A stable ``module:qualname`` reference for a function or class."""
    return (f"{getattr(fn, '__module__', None)}:"
            f"{getattr(fn, '__qualname__', type(fn).__qualname__)}")


def _is_json(value: Any) -> bool:
    """True for plain JSON data: scalars, lists and string-keyed dicts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, list):
        return all(_is_json(item) for item in value)
    return isinstance(value, dict) and all(
        isinstance(key, str) and _is_json(item)
        for key, item in value.items())


#: The task kinds the runner executes: a function's ``module:qualname``
#: -> the one keyword argument it takes and the check that argument's
#: value must pass.
KINDS: Dict[str, Tuple[str, Callable[[Any], bool]]] = {
    RUN_EXPERIMENT: ("spec", lambda value: function_ref(type(value))
                     == "repro.experiments.common:ExperimentSpec"),
    RUN_FUZZ_CASE: ("case", lambda value: isinstance(value, dict)
                    and _is_json(value)),
}


def canonical(value: Any) -> Any:
    """Reduce a task argument to JSON data with a stable encoding.

    A value with a frozen wire contract (``ExperimentSpec``, see
    :mod:`repro.fleet.wire`) encodes as its versioned spec/v3 form, so a
    spec decoded from the wire keys the cache identically to the
    in-process original — workers, the fleet controller and serial runs
    share one result store. JSON scalars, lists and dicts (a fuzz case)
    pass through, dict keys stringified and sorted at encode time.
    Anything else is refused rather than hashed by repr: a cache key
    that varies between runs poisons the cache, and one that fails to
    vary returns stale results.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "to_wire"):
        return value.to_wire()
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    raise TypeError(
        f"cannot fingerprint {type(value).__qualname__!r} value {value!r}; "
        "task arguments are an ExperimentSpec or JSON data")


@dataclass(frozen=True)
class Task:
    """One sweep point: ``fn(**kwargs)`` in any process, any order.

    ``fn`` and ``kwargs`` must be one of :data:`KINDS` — ``fn`` by its
    reference, ``kwargs`` exactly the kind's one argument with a value
    that passes the kind's check — or construction raises ``TypeError``.
    ``index`` is the task's position in the sweep — results are always
    merged in index order, never completion order, so parallel runs
    reproduce serial ones.
    """

    experiment: str
    index: int
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ref = function_ref(self.fn)
        kind = KINDS.get(ref)
        if kind is None:
            raise TypeError(
                f"task {self.task_id}: {ref} is not a runner task kind "
                f"(one of {', '.join(KINDS)})")
        name, check = kind
        if self.kwargs.keys() != {name} or not check(self.kwargs[name]):
            got = {key: type(value).__name__
                   for key, value in self.kwargs.items()}
            raise TypeError(
                f"task {self.task_id}: {ref} takes exactly one argument "
                f"{name!r} of its kind, got {got}")

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
