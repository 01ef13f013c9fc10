"""Rule base class, registry, and the per-file analysis context."""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint import config
from repro.lint.violations import Violation


class FileContext:
    """Everything a rule may consult about the file under analysis."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.module_key = config.module_key(path)
        self.in_domain = config.in_domain(path)
        self._parents: dict[int, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self._parents[id(child)] = node

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The chain of enclosing nodes, innermost first."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)


class Rule:
    """One lint rule: a stable code, a short name, and a ``check``.

    ``domain_only`` rules run only on simulation-domain files
    (``repro/**`` — see :func:`repro.lint.config.in_domain`); hygiene
    rules run on every file handed to the engine.
    """

    code: str = ""
    name: str = ""
    summary: str = ""
    domain_only: bool = True

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_domain or not self.domain_only

    def check(self, ctx: FileContext) -> list[Violation]:
        raise NotImplementedError

    def violation(self, ctx: FileContext, node: ast.AST,
                  message: str) -> Violation:
        return Violation(path=ctx.path,
                         line=getattr(node, "lineno", 1),
                         col=getattr(node, "col_offset", 0) + 1,
                         code=self.code, message=message)


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type) -> type:
    rule = rule_cls()
    if not rule.code:
        raise ValueError(f"rule {rule_cls.__name__} has no code")
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return rule_cls


def all_rules() -> list[Rule]:
    """Every registered rule, in code order. Imports rule modules lazily."""
    _load_rule_modules()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def rule_codes() -> list[str]:
    _load_rule_modules()
    return sorted(_REGISTRY)


_loaded = False


def _load_rule_modules() -> None:
    # Importing registers via the @register decorator; idempotent.
    global _loaded
    if _loaded:
        return
    from repro.lint import (  # noqa: F401  (imported for side effects)
        rules_determinism, rules_hotpath, rules_hygiene, rules_races)
    _loaded = True


class _AllRules:
    """Lazy sequence view over the registry (stable import-time object)."""

    def __iter__(self) -> Iterator[Rule]:
        return iter(all_rules())

    def __len__(self) -> int:
        return len(all_rules())


ALL_RULES = _AllRules()
