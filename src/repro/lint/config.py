"""Path scoping for the domain rules.

Rules are scoped by *module suffix* (posix-style path endings), so the
same rule set works on the real tree (``src/repro/...``), on an
installed checkout, and on test fixture trees that mirror the layout
(``tests/lint_fixtures/violations/src/repro/...``).
"""

from __future__ import annotations

from pathlib import Path, PurePosixPath

#: Directory names never descended into while walking lint roots.
#: ``lint_fixtures`` holds deliberately-broken fixture files for the
#: engine's own tests; pass such a directory explicitly to lint it.
EXCLUDED_DIRS = frozenset({
    "__pycache__", ".git", ".mypy_cache", ".ruff_cache",
    ".pytest_cache", ".cache", "lint_fixtures",
})

#: The blessed randomness boundary: the one module allowed to touch the
#: stdlib ``random`` machinery directly.
RNG_BOUNDARY = ("repro/sim/rng.py",)

#: The blessed wall-clock boundary: the one module of the live engine
#: allowed to read real time directly. Everything else in ``repro.live``
#: goes through :class:`repro.live.clock.WallClock` and stays under the
#: determinism rules.
WALL_CLOCK_BOUNDARY = ("repro/live/clock.py",)

#: Modules whose classes sit on the packet/event/trace hot path and must
#: declare ``__slots__`` (SRM005). docs/performance.md explains why.
HOT_PATH_SLOTS_MODULES = (
    "repro/net/packet.py",
    "repro/sim/scheduler.py",
    "repro/sim/timers.py",
    "repro/sim/trace.py",
    "repro/sim/perf.py",
)

#: Modules where ``Trace.record`` sits on the delivery hot path -- the
#: network and every module an agent emits from: it must be guarded by
#: ``KIND in trace.wanted`` and handed its detail dict as built, not
#: re-expanded (SRM006).
HOT_PATH_TRACE_MODULES = (
    "repro/net/network.py",
    "repro/core/agent.py",
    "repro/core/session.py",
    "repro/core/fec.py",
    "repro/wb/whiteboard.py",
)

#: Path fragment marking simulation-domain code: the determinism rules
#: (SRM001/2/4/6/7) apply only here. Hygiene rules apply everywhere.
DOMAIN_FRAGMENT = "repro/"


def repo_root() -> Path:
    """The checkout this package runs from: the directory holding
    ``src/repro``. Display paths and the default ``wire-schema.lock``
    anchor here, so a run from any cwd reports the same paths; an
    installed package (no ``src/`` above it) falls back to the cwd.
    """
    package = Path(__file__).resolve().parent.parent
    if package.parent.name == "src":
        return package.parent.parent
    return Path.cwd()


def as_posix(path: str) -> str:
    return str(PurePosixPath(*path.replace("\\", "/").split("/")))


def module_key(path: str) -> str:
    """The ``repro/...`` suffix of ``path``, or "" when outside it.

    ``tests/lint_fixtures/violations/src/repro/net/packet.py`` and
    ``src/repro/net/packet.py`` both key to ``repro/net/packet.py``, so
    fixtures exercise exactly the scoping the real tree gets.
    """
    posix = as_posix(path)
    marker = "/repro/"
    if posix.startswith("repro/"):
        return posix
    index = posix.rfind(marker)
    if index < 0:
        return ""
    return posix[index + 1:]


def in_domain(path: str) -> bool:
    """True when ``path`` is simulation-domain code (``repro/**``)."""
    return bool(module_key(path))


def matches_module(path: str, suffixes: tuple[str, ...]) -> bool:
    key = module_key(path)
    return any(key == suffix for suffix in suffixes)
