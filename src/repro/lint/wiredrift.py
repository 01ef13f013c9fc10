"""SRM009 — wire-schema drift: undeclared knobs and the pinned surface.

:mod:`repro.fleet.wire` builds and reads every ``spec/v3`` payload from
one ``SCHEMA`` table of :mod:`repro.codec` records, whose rows must name
exactly their class's fields: a field added to a wired dataclass and
**not** to the table stops that module from importing, so codec ↔
dataclass drift is structural and needs no linter. What is left to
check statically:

* **Knob registry.** Every ``"SRM_*"`` string literal in the source
  tree must name a knob declared in :data:`repro.env.KNOBS` — the
  registry a fleet controller serializes to workers. An undeclared
  knob is exactly the side channel the registry exists to prevent.
* **Schema digest.** The surface (schema tag, per-type field and
  wire-key lists read off ``wire.SCHEMA``, the
  :data:`repro.env.WIRE_KNOBS` an env block may carry) is hashed into
  ``wire-schema.lock``. Any drift from the committed digest fails lint;
  re-pinning via ``repro lint --update-wire-lock`` *refuses* unless
  ``WIRE_SCHEMA`` itself was bumped, so an intentional change always
  rides a new ``spec/vN`` (see docs/fleet.md, "Schema evolution").
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro import env
from repro.fleet import wire
from repro.lint.config import repo_root
from repro.lint.violations import Violation

CODE = "SRM009"

#: Default lock file, committed at the repo root.
DEFAULT_LOCK = "wire-schema.lock"

#: Where a drift violation points (relative to the repo root).
WIRE_SOURCE = "src/repro/fleet/wire.py"

#: The classes the ``spec/v3`` lock was pinned over. ``SrmConfig`` /
#: ``AdaptiveBounds`` (rows read off the dataclass: a new scalar knob
#: rides without a bump) and the ``LocalRecoveryOutcome`` artifact stay
#: outside the digest, as they always were; a ``spec/v4`` may widen it.
LOCKED_TYPES = frozenset({
    "ExperimentSpec", "RunResult", "Scenario", "TopologySpec",
    "RoundOutcome", "LossEventReport", "MemberTiming", "AduName"})

#: Full-match pattern for environment-knob string literals.
_KNOB_LITERAL = re.compile(r"\ASRM_[A-Z][A-Z0-9_]*\Z")


class WireDriftError(ValueError):
    """The lock file cannot be read at all."""


# ----------------------------------------------------------------------
# Knob-literal scan.
# ----------------------------------------------------------------------


def _knob_literal_violations(root: Path) -> List[Violation]:
    declared = {knob.name for knob in env.KNOBS}
    out: List[Violation] = []
    src_root = root / "src" / "repro"
    for file in sorted(src_root.rglob("*.py")):
        if file.name == "env.py":
            continue  # the registry itself declares the names
        try:
            tree = ast.parse(file.read_text(encoding="utf-8"))
        except SyntaxError:
            continue  # SRM000 owns parse failures
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and _KNOB_LITERAL.match(node.value) \
                    and node.value not in declared:
                out.append(Violation(
                    path=file.relative_to(root).as_posix(),
                    line=node.lineno, col=node.col_offset + 1,
                    code=CODE,
                    message=f"undeclared environment knob "
                            f"{node.value!r}; declare it in "
                            f"repro.env.KNOBS so fleet controllers can "
                            f"serialize it to workers"))
    return out


# ----------------------------------------------------------------------
# Surface + digest + lock.
# ----------------------------------------------------------------------


def current_surface() -> Dict[str, object]:
    """The pinned wire surface as one canonical JSON-able object."""
    types = {
        cls.__name__: {
            "fields": sorted(name for name, _, _ in rows if name is not None),
            "wire": sorted(key for _, key, _ in rows)}
        for cls, rows in wire.SCHEMA.items()
        if cls.__name__ in LOCKED_TYPES}
    return {"schema": wire.WIRE_SCHEMA, "types": types,
            "knobs": sorted(env.WIRE_KNOBS)}


def surface_digest(surface: Mapping[str, object]) -> str:
    canonical = wire.dumps_canonical(surface)
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def load_lock(path: Path) -> Optional[Dict[str, str]]:
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:  # undecodable bytes, or not JSON
        raise WireDriftError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "digest" not in payload \
            or "schema" not in payload:
        raise WireDriftError(
            f"{path}: expected an object with 'schema' and 'digest'")
    return {"schema": str(payload["schema"]),
            "digest": str(payload["digest"])}


def save_lock(path: Path, schema: str, digest: str) -> None:
    payload = {
        "version": 1,
        "comment": ("Digest of the spec wire surface (codecs, dataclass "
                    "fields, env knobs). Drift fails `repro lint "
                    "--wire-drift`; re-pin with --update-wire-lock after "
                    "bumping WIRE_SCHEMA. See docs/fleet.md."),
        "schema": schema,
        "digest": digest,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


# ----------------------------------------------------------------------
# The checks.
# ----------------------------------------------------------------------


def check_wire_drift(lock_path: Optional[Path] = None) -> List[Violation]:
    """All SRM009 violations for this checkout."""
    root = repo_root()
    out = _knob_literal_violations(root)
    lock_file = lock_path if lock_path is not None else root / DEFAULT_LOCK
    digest = surface_digest(current_surface())
    try:
        lock = load_lock(Path(lock_file))
    except WireDriftError as exc:
        out.append(Violation(path=Path(lock_file).name, line=1, col=1,
                             code=CODE, message=str(exc)))
        return out
    if lock is None:
        out.append(Violation(
            path=WIRE_SOURCE, line=1, col=1, code=CODE,
            message=f"no committed {DEFAULT_LOCK}; pin the wire surface "
                    f"with `repro lint --update-wire-lock`"))
    elif lock["digest"] != digest:
        out.append(Violation(
            path=WIRE_SOURCE, line=1, col=1, code=CODE,
            message=f"wire surface drifted from the committed lock "
                    f"({digest} != {lock['digest']}); if intentional, "
                    f"bump WIRE_SCHEMA (e.g. {lock['schema']} -> a new "
                    f"version) and run `repro lint --update-wire-lock`"))
    return out


def update_lock(lock_path: Optional[Path] = None) -> Tuple[int, str]:
    """Re-pin the lock; refuse when the surface moved under a frozen tag.

    Returns ``(exit_code, message)`` for the CLI: 0 on success or
    no-op, 2 when the lock file cannot be read or the surface changed
    but ``WIRE_SCHEMA`` did not — the whole point of the lock is that an
    intentional schema change rides an explicit version bump.
    """
    if lock_path is None:
        lock_path = repo_root() / DEFAULT_LOCK
    digest = surface_digest(current_surface())
    schema = wire.WIRE_SCHEMA
    try:
        lock = load_lock(lock_path)
    except WireDriftError as exc:
        return 2, str(exc)
    if lock is None:
        save_lock(lock_path, schema, digest)
        return 0, f"{lock_path}: pinned {schema} ({digest})"
    if lock["digest"] == digest:
        return 0, f"{lock_path}: already up to date ({schema})"
    if lock["schema"] == schema:
        return 2, (f"{lock_path}: refusing to re-pin — the wire surface "
                   f"changed but WIRE_SCHEMA is still {schema!r}. An "
                   f"intentional schema change must bump the version "
                   f"tag (docs/fleet.md, 'Schema evolution').")
    save_lock(lock_path, schema, digest)
    return 0, f"{lock_path}: re-pinned {lock['schema']} -> {schema} ({digest})"
