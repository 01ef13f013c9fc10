"""Typed accessors for every ``SRM_*`` environment knob.

The repo grew one environment variable per subsystem — ``SRM_CHECK``
(oracles), ``SRM_CACHE_DIR`` / ``SRM_CACHE_SALT`` (result cache) and
``SRM_HYPOTHESIS_PROFILE`` (test scale) — each read with its own ad-hoc
``os.environ.get`` and its own parsing convention.
This module is now the single registry: every knob is declared once in
:data:`KNOBS` with its type, default and documentation (the table in
``docs/configuration.md`` mirrors it), and every call site goes through
a typed accessor.

Two properties matter beyond tidiness:

* **Fleet serialization.** A :mod:`repro.fleet` controller captures the
  determinism-relevant knobs once via :func:`snapshot` and ships them to
  every worker as a single env block; workers :func:`apply` it before
  running tasks. No call site re-reads ``os.environ`` through a side
  channel the controller cannot see.
* **Late binding.** Accessors read the environment at call time, never
  at import time, so a driver (the CLI, a test, a fleet worker) may flip
  a knob programmatically between runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

__all__ = [
    "Knob",
    "KNOBS",
    "WIRE_KNOBS",
    "UnknownKnobError",
    "check_enabled",
    "set_check",
    "cache_dir",
    "cache_salt",
    "hypothesis_profile",
    "snapshot",
    "apply",
]


@dataclass(frozen=True)
class Knob:
    """One declared environment knob."""

    name: str
    kind: str            # "bool" | "str" | "int" | "path"
    default: str         # rendered default for documentation
    help: str


#: Every SRM_* knob the repo honors, in documentation order. The table
#: in ``docs/configuration.md`` is generated from this tuple; adding a
#: knob anywhere else is a lint-review smell.
KNOBS: Tuple[Knob, ...] = (
    Knob("SRM_CHECK", "bool", "0",
         "Attach the protocol oracles of repro.oracle to every "
         "simulation (the --check flag exports this so runner and fleet "
         "workers inherit it)."),
    Knob("SRM_CACHE_DIR", "path", "results/.cache",
         "Root of the content-addressed result cache."),
    Knob("SRM_CACHE_SALT", "str", "repro-<version>",
         "Cache-key salt; bump to invalidate every cached result at "
         "once. Defaults to the released package version."),
    Knob("SRM_HYPOTHESIS_PROFILE", "str", "ci",
         "Hypothesis example-count profile for the test suite: "
         "ci, dev or nightly."),
)

#: The determinism-relevant subset a fleet controller serializes to its
#: workers: anything that changes *what a task computes* (oracles on or
#: off, cache keying). Worker-local knobs (cache location, test scale)
#: deliberately stay out — each worker keeps its own storage — and
#: :func:`apply` refuses them.
WIRE_KNOBS: Tuple[str, ...] = ("SRM_CHECK", "SRM_CACHE_SALT")


class UnknownKnobError(KeyError):
    """A name outside the registry, or a non-wire knob in an env block."""


def _raw(name: str) -> str:
    return os.environ.get(name, "")


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("", "0", "false", "no", "off")


def _bool(name: str) -> bool:
    """:data:`_TRUE` or :data:`_FALSE`, any case; anything else is a typo
    and raises rather than passing for one of the two."""
    value = _raw(name)
    if value not in _TRUE and value not in _FALSE:
        # Not an exact spelling ("True", " on"): normalise, then judge.
        # Exact ones cost no call — every simulation asks for SRM_CHECK.
        value = value.strip().lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise ValueError(f"{name}={_raw(name)!r}: expected one of "
                     f"{'/'.join(_TRUE)} or {'/'.join(_FALSE[1:])}")


# ----------------------------------------------------------------------
# Typed accessors, one (or two) per knob.
# ----------------------------------------------------------------------


def check_enabled() -> bool:
    """``SRM_CHECK``: protocol oracles attached to every simulation."""
    return _bool("SRM_CHECK")


def set_check(enabled: bool) -> None:
    """Export ``SRM_CHECK`` so child worker processes inherit it."""
    if enabled:
        os.environ["SRM_CHECK"] = "1"
    else:
        os.environ.pop("SRM_CHECK", None)


def cache_dir() -> str:
    """``SRM_CACHE_DIR`` or the repo default ``results/.cache``."""
    return _raw("SRM_CACHE_DIR") or "results/.cache"


def cache_salt() -> str:
    """``SRM_CACHE_SALT`` or ``repro-<package version>``.

    Keyed to the released version rather than a hash of the source tree,
    so an unrelated edit keeps the cache warm; bump the env knob (or the
    package version) when simulation semantics change.
    """
    override = _raw("SRM_CACHE_SALT")
    if override:
        return override
    from repro import __version__

    return f"repro-{__version__}"


def hypothesis_profile() -> str:
    """``SRM_HYPOTHESIS_PROFILE`` (ci/dev/nightly); default ``ci``."""
    return _raw("SRM_HYPOTHESIS_PROFILE") or "ci"


# ----------------------------------------------------------------------
# Fleet env blocks.
# ----------------------------------------------------------------------


def snapshot() -> Dict[str, str]:
    """The explicitly-set :data:`WIRE_KNOBS` of this process, one block.

    This is what a controller imposes on its workers. Unset knobs are
    omitted: applying the block elsewhere must not clobber a worker's
    own defaults with empty strings.
    """
    return {name: os.environ[name]
            for name in WIRE_KNOBS if name in os.environ}


def apply(block: Mapping[str, str]) -> None:
    """Impose an env block produced by :func:`snapshot`.

    Every name must be one of :data:`WIRE_KNOBS`
    (:class:`UnknownKnobError` otherwise, before anything is set) — a
    controller cannot smuggle arbitrary environment, or a worker-local
    knob such as a cache path, into a worker process.
    """
    for name in block:
        if name not in WIRE_KNOBS:
            raise UnknownKnobError(
                f"{name!r} is not a wire knob (an env block may set "
                f"only: {', '.join(WIRE_KNOBS)})")
    for name, value in block.items():
        os.environ[name] = str(value)
