"""The lint engine: walk files, run rules, apply inline suppressions."""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.lint import config
from repro.lint.rules import FileContext, Rule, all_rules
from repro.lint.suppressions import parse_suppressions
from repro.lint.violations import Violation


@dataclass(slots=True)
class LintReport:
    """Everything one lint run learned."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    parse_errors: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors

    def format(self, verbose: bool = False) -> str:
        lines = [v.format() for v in self.parse_errors]
        lines += [v.format() for v in self.violations]
        total = len(self.violations) + len(self.parse_errors)
        summary = (f"{self.files_checked} files checked: "
                   f"{total} violation{'s' if total != 1 else ''}")
        if self.suppressed:
            summary += f" ({self.suppressed} suppressed)"
        lines.append(summary)
        return "\n".join(lines)

    def format_json(self) -> str:
        """The whole report as one JSON document (for CI tooling)."""
        def row(violation: Violation) -> dict[str, object]:
            return {"path": violation.path, "line": violation.line,
                    "col": violation.col, "code": violation.code,
                    "message": violation.message}

        payload = {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "violations": [row(v) for v in self.parse_errors
                           + self.violations],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def format_github(self) -> str:
        """GitHub Actions workflow commands: one annotation per hit.

        Emitted on stdout so the Actions runner attaches each finding
        inline to the PR diff; the trailing summary line is plain text
        (the runner ignores non-command lines).
        """
        lines = [
            f"::error file={v.path},line={v.line},col={v.col},"
            f"title={v.code}::{v.message}"
            for v in self.parse_errors + self.violations
        ]
        lines.append(self.format().splitlines()[-1])
        return "\n".join(lines)


def iter_python_files(roots: Sequence[str | Path]) -> list[Path]:
    """Python files under ``roots``, deterministically ordered.

    Explicitly-given roots are always scanned, even when their name
    matches an excluded directory (so fixture trees can be linted on
    purpose); excluded names are only skipped while *descending*.
    """
    seen: set[Path] = set()
    files: list[Path] = []

    def add(path: Path) -> None:
        if path.suffix == ".py" and path not in seen:
            seen.add(path)
            files.append(path)

    for root in roots:
        root = Path(root)
        if root.is_file():
            add(root)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(name for name in dirnames
                                 if name not in config.EXCLUDED_DIRS)
            for filename in sorted(filenames):
                add(Path(dirpath) / filename)
    files.sort()
    return files


class LintEngine:
    """Run the rule set over files; inline suppressions are the only waiver."""

    def __init__(self, rules: Optional[Iterable[Rule]] = None,
                 select: Optional[Iterable[str]] = None) -> None:
        chosen = list(rules) if rules is not None else list(all_rules())
        if select is not None:
            wanted = set(select)
            unknown = wanted - {rule.code for rule in chosen}
            if unknown:
                raise ValueError(
                    f"unknown rule code(s): {', '.join(sorted(unknown))}")
            chosen = [rule for rule in chosen if rule.code in wanted]
        self.rules = chosen

    def check_source(self, path: str, source: str) -> list[Violation]:
        """Raw rule hits for one in-memory file (no suppressions)."""
        tree = ast.parse(source, filename=path)
        ctx = FileContext(path, source, tree)
        violations: list[Violation] = []
        for rule in self.rules:
            if rule.applies_to(ctx):
                violations.extend(rule.check(ctx))
        return violations

    def run(self, roots: Sequence[str | Path]) -> LintReport:
        report = LintReport()
        root = config.repo_root()
        for file in iter_python_files(roots):
            path = _display_path(file, root)
            try:
                source = file.read_text(encoding="utf-8")
                raw = self.check_source(path, source)
            except (SyntaxError, UnicodeDecodeError) as exc:
                line = getattr(exc, "lineno", 1) or 1
                report.parse_errors.append(Violation(
                    path=path, line=line, col=1, code="SRM000",
                    message=f"file does not parse: {exc.msg if isinstance(exc, SyntaxError) else exc}"))
                report.files_checked += 1
                continue
            report.files_checked += 1
            table = parse_suppressions(source)
            for violation in raw:
                if table.covers(violation):
                    report.suppressed += 1
                else:
                    report.violations.append(violation)
        report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
        return report


def _display_path(file: Path, root: Path) -> str:
    """Posix path relative to ``root`` (the repo root) when the file is
    under it, so a tree reports the same paths from any launch directory."""
    try:
        return file.resolve().relative_to(root).as_posix()
    except ValueError:
        return file.as_posix()


def lint_paths(roots: Sequence[str | Path],
               select: Optional[Iterable[str]] = None) -> LintReport:
    """One-call convenience: lint ``roots`` and return the report."""
    return LintEngine(select=select).run(roots)
