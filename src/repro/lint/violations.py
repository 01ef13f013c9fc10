"""The unit of lint output: one violation at one source location."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Violation:
    """One rule hit, pointing at ``path:line:col``.

    ``path`` is recorded as the engine displays it: relative to the
    repository root when the file is under it, so reports are stable
    across machines and launch directories.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def __str__(self) -> str:
        return self.format()
