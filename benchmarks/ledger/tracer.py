"""Per-layer attribution from outside the program (child interpreter only).

Two instruments, neither of which the timed passes ever see:

* :func:`rollup` turns a ``cProfile`` run into Python-level call counts
  and own time per *layer* (``repro.<package>.<module>`` with the
  ``repro.`` prefix dropped). A builtin has no module of its own, so its
  calls and time are charged to the module that called it, through
  ``cProfile``'s caller -> callee sub-entries.
* :class:`SpanTracer` wraps the public callables in :data:`BOUNDARIES`
  on their classes / modules, records one span per call (name, start,
  end, parent, op id), and restores every attribute afterwards. It must
  be installed *before* the workload is built: the program caches bound
  methods (``Network._receive_cache``, ``Trace.subscribe``) and those
  must bind to the wrappers.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

MARK = "__ledger_span__"
#: Full span records are kept for ops below this index; one session round
#: alone is ~10^5 spans. Aggregates cover every op.
KEEP_OPS = 2

#: (module, class or None, attribute). ``Agent.receive`` is wrapped where
#: ``SrmAgent`` overrides it; the scheduler entries are resolved against
#: the class ``create_scheduler()`` returns (see :func:`boundaries`).
BOUNDARIES: Tuple[Tuple[str, Optional[str], str], ...] = (
    ("repro.experiments.common", None, "run_experiment"),
    ("repro.experiments.common", "LossRecoverySimulation", "__init__"),
    ("repro.experiments.common", "LossRecoverySimulation", "run_round"),
    ("repro.experiments.common", None, "choose_scenario"),
    ("repro.topology.spec", "TopologySpec", "build"),
    ("repro.topology.random_tree", None, "random_labeled_tree"),
    ("repro.topology.btree", None, "balanced_tree"),
    ("repro.net.network", "Network", "run"),
    ("repro.net.network", "Network", "send"),
    ("repro.net.network", "Network", "source_tree"),
    ("repro.net.routing", None, "build_source_tree"),
    ("repro.net.link", "Link", "arrival_time"),
    ("repro.net.link", "Link", "drops_packet"),
    ("repro.sim.scheduler", "<scheduler>", "run"),
    ("repro.sim.scheduler", "<scheduler>", "schedule"),
    ("repro.sim.scheduler", "<scheduler>", "schedule_at"),
    ("repro.sim.scheduler", "<scheduler>", "schedule_many"),
    ("repro.core.agent", "SrmAgent", "receive"),
    ("repro.core.agent", "SrmAgent", "send_data"),
    ("repro.core.agent", "SrmAgent", "on_loss_detected"),
    ("repro.core.session", "SessionProtocol", "handle"),
    ("repro.core.session", "SessionProtocol", "send_session_message"),
    ("repro.sim.trace", "Trace", "record"),
    ("repro.metrics.collector", "MetricsCollector", "on_record"),
    ("repro.metrics.collector", "MetricsCollector", "snapshot"),
    ("repro.metrics.events", None, "analyze_loss_event"),
)


def boundaries() -> List[Tuple[str, Any, str, Any]]:
    """Resolve :data:`BOUNDARIES` to ``(span name, owner, attr, current)``.

    ``owner`` is the class for a method and the defining module for a
    function; ``current`` is what the owner exposes under ``attr`` now.
    """
    from repro.sim.scheduler import create_scheduler

    scheduler_cls = type(create_scheduler())
    resolved = []
    for module_name, cls_name, attr in BOUNDARIES:
        module = importlib.import_module(module_name)
        if cls_name is None:
            resolved.append((attr, module, attr, getattr(module, attr)))
        else:
            owner = (scheduler_cls if cls_name == "<scheduler>"
                     else getattr(module, cls_name))
            resolved.append((f"{owner.__name__}.{attr}", owner, attr,
                             owner.__dict__[attr]))
    return resolved


def patched_boundaries() -> List[str]:
    """Span names whose current attribute is a tracer wrapper."""
    return [name for name, _, _, current in boundaries()
            if getattr(current, MARK, False)]


class SpanTracer:
    """Wrap the layer boundaries; aggregate and (briefly) record spans.

    Aggregates -- count, total seconds, self seconds per boundary -- are
    kept for two phases: ``"ops"`` (inside a timed-shape op) and
    ``"outside"`` (set-up, warm-up, settling). Full span records are kept
    for ops ``< KEEP_OPS`` only. A span's self time is its duration minus
    the part covered by the spans it directly caused.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.aggregates: Dict[str, List[List[float]]] = {
            "ops": [], "outside": []}
        self.records: List[Tuple[int, float, float, int, int]] = []
        self._agg = self.aggregates["outside"]
        self._stack: List[List[Any]] = []
        self._op = -1
        self._keep = False
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        for name, owner, attr, original in boundaries():
            wrapper = self._wrap(len(self.names), original)
            self.names.append(name)
            for phase in self.aggregates.values():
                phase.append([0, 0.0, 0.0])
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            # A function: re-bind it in every module that imported it by
            # name (``from repro.net.routing import build_source_tree``).
            for module in list(sys.modules.values()):
                for key, value in list(getattr(module, "__dict__",
                                               {}).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        """Put every original back and verify it is the same object."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        for owner, attr, original in self._restore:
            current = (owner.__dict__[attr] if isinstance(owner, type)
                       else getattr(owner, attr))
            if current is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")
        self._restore.clear()

    def _wrap(self, index: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        clock = time.perf_counter
        stack = self._stack
        records = self.records
        tracer = self

        def span(*args: Any, **kwargs: Any) -> Any:
            keep = tracer._keep
            if keep:
                span_id = len(records)
                records.append(None)  # type: ignore[arg-type]
                parent = stack[-1][2] if stack else -1
            else:
                span_id = -1
            frame = [0.0, 0.0, span_id]   # start, child seconds, span id
            stack.append(frame)
            frame[0] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                agg = tracer._agg[index]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if keep:
                    records[span_id] = (index, frame[0], end, parent,
                                        tracer._op)

        setattr(span, MARK, True)
        return span

    # -- phases ---------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        self._keep = op < KEEP_OPS
        self._agg = self.aggregates["ops"]

    def end_op(self) -> None:
        self._op = -1
        self._keep = False
        self._agg = self.aggregates["outside"]

    # -- results --------------------------------------------------------

    def summary(self, phase: str, ops: int) -> Dict[str, Dict[str, float]]:
        """Per boundary: calls, total ms and self ms, each per op."""
        return {
            name: {"count_per_op": agg[0] / ops,
                   "total_ms_per_op": agg[1] * 1e3 / ops,
                   "self_ms_per_op": agg[2] * 1e3 / ops}
            for name, agg in zip(self.names, self.aggregates[phase])}

    def trace_document(self, meta: Dict[str, Any]) -> Dict[str, Any]:
        """The ``trace_<workload>.json`` payload (see README.md)."""
        origin = min((row[1] for row in self.records), default=0.0)
        return {
            "schema": "ledger-trace/v1",
            **meta,
            "names": self.names,
            "columns": ["id", "name", "start_us", "end_us", "parent", "op"],
            "spans": [[span_id, row[0], round((row[1] - origin) * 1e6, 3),
                       round((row[2] - origin) * 1e6, 3), row[3], row[4]]
                      for span_id, row in enumerate(self.records)],
        }


# ----------------------------------------------------------------------
# cProfile rollup
# ----------------------------------------------------------------------


def layer_of(filename: str, src_root: str, harness_root: str) -> str:
    """``<src>/repro/core/session.py`` -> ``core.session``."""
    if filename.startswith(src_root):
        parts = filename[len(src_root):].strip("/").split("/")
        if parts and parts[0] == "repro":
            parts = parts[1:]
        parts[-1] = parts[-1].removesuffix(".py")
        if parts[-1] == "__init__":
            parts.pop()
        return ".".join(parts) or "repro"
    if filename.startswith(harness_root):
        return "harness"
    return "other"   # stdlib and generated (dataclass) code


def rollup(stats: Iterable[Any], src_root: str,
           harness_root: str) -> Tuple[int, Dict[str, Dict[str, float]]]:
    """``(total calls, layer -> {"calls", "own_s"})`` from ``getstats()``.

    The total is what ``pstats`` prints as "function calls": every entry's
    call count, builtins included.
    """
    total = 0
    layers: Dict[str, Dict[str, float]] = {}
    for entry in stats:
        total += entry.callcount
        code = entry.code
        if isinstance(code, str):
            continue   # a builtin: charged to its callers below
        layer = layers.setdefault(
            layer_of(code.co_filename, src_root, harness_root),
            {"calls": 0, "own_s": 0.0})
        layer["calls"] += entry.callcount
        layer["own_s"] += entry.inlinetime
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                layer["calls"] += sub.callcount
                layer["own_s"] += sub.inlinetime
    return total, layers
