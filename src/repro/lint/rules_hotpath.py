"""SRM005/SRM006 — the hot-path invariants from docs/performance.md.

The kernel's speedups rest on ``__slots__`` layouts and on building a
trace row only for a kind the trace wants (``kind in trace.wanted``);
these rules turn those optimizations into enforced invariants so a later
edit cannot quietly regress them.
"""

from __future__ import annotations

import ast

from repro.lint import config
from repro.lint.rules import FileContext, Rule, register
from repro.lint.violations import Violation

#: Base-class name fragments that make __slots__ pointless or illegal.
_EXEMPT_BASE_HINTS = ("Exception", "Error", "Warning", "Enum", "Protocol",
                      "NamedTuple", "TypedDict")


def _dataclass_slots(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else ""
        if name != "dataclass":
            continue
        for keyword in decorator.keywords:
            if keyword.arg == "slots" and isinstance(
                    keyword.value, ast.Constant) and \
                    keyword.value.value is True:
                return True
    return False


def _declares_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def _exempt_bases(node: ast.ClassDef) -> bool:
    for base in node.bases:
        text = ast.unparse(base)
        if any(hint in text for hint in _EXEMPT_BASE_HINTS):
            return True
    return False


@register
class HotPathSlotsRule(Rule):
    """SRM005: classes in hot-path modules must declare ``__slots__``."""

    code = "SRM005"
    name = "hot-path-slots"
    summary = "packet/event/trace classes carry __slots__ (docs/performance.md)"
    domain_only = True

    def applies_to(self, ctx: FileContext) -> bool:
        return config.matches_module(ctx.path,
                                     config.HOT_PATH_SLOTS_MODULES)

    def check(self, ctx: FileContext) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _declares_slots(node) or _dataclass_slots(node) \
                    or _exempt_bases(node):
                continue
            out.append(self.violation(
                ctx, node,
                f"class {node.name} in a hot-path module has no "
                f"__slots__; instances here are allocated per "
                f"packet/event (see docs/performance.md)"))
        return out


def _receiver_mentions_trace(node: ast.expr) -> bool:
    text = ast.unparse(node).lower()
    return "trace" in text


@register
class UnguardedTraceRecordRule(Rule):
    """SRM006: hot-path ``Trace.record`` is guarded and builds one dict.

    Two findings share the code: a call outside a wanted-kind guard
    (``if KIND in trace.wanted:``), and a call that re-expands a mapping
    (``**detail``) which ``record`` accepts as it is.
    """

    code = "SRM006"
    name = "unguarded-trace-record"
    summary = ("guard hot-path Trace.record with `if KIND in "
               "trace.wanted:`; pass a built detail dict, not **mapping")
    domain_only = True

    def applies_to(self, ctx: FileContext) -> bool:
        return config.matches_module(ctx.path,
                                     config.HOT_PATH_TRACE_MODULES)

    def check(self, ctx: FileContext) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr == "record"
                    and _receiver_mentions_trace(func.value)):
                continue
            if not self._guarded(ctx, node):
                out.append(self.violation(
                    ctx, node,
                    "Trace.record on the hot path without a `KIND in "
                    "trace.wanted` guard; building the detail dict costs "
                    "even when nothing reads the row (see "
                    "docs/performance.md)"))
            if any(keyword.arg is None for keyword in node.keywords):
                out.append(self.violation(
                    ctx, node,
                    "Trace.record(..., **mapping) on the hot path copies "
                    "the mapping into a second dict per row; pass it as "
                    "the fourth positional argument (see "
                    "docs/performance.md)"))
        return out

    @staticmethod
    def _guard_expr_tests_wanted(test: ast.expr) -> bool:
        """True when ``test`` contains ``<kind> in <trace>.wanted``."""
        for sub in ast.walk(test):
            if isinstance(sub, ast.Compare) and any(
                    isinstance(op, ast.In) and isinstance(right, ast.Attribute)
                    and right.attr == "wanted"
                    and _receiver_mentions_trace(right.value)
                    for op, right in zip(sub.ops, sub.comparators)):
                return True
        return False

    def _guarded(self, ctx: FileContext, node: ast.Call) -> bool:
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                return False  # left the statement's function: unguarded
            if isinstance(ancestor, (ast.If, ast.IfExp, ast.While)) and \
                    self._guard_expr_tests_wanted(ancestor.test):
                return True
        return False
