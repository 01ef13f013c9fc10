"""SRM009 — wire-schema drift between codecs, dataclasses and knobs.

:mod:`repro.fleet.wire` freezes ``spec/v3``: every fleet payload and
every runner cache key flows through hand-written encoder/decoder
pairs with *closed* field sets. That design stops silent drift at
runtime — but only for fields the codec knows about. The failure mode
it cannot see is a field added to a dataclass and **not** to the codec:
specs still round-trip, fingerprints still match, and two machines
happily share cached results computed from *different* effective specs.

This checker closes that hole statically, without running any fleet
code path:

* **Codec ↔ dataclass.** For every wired type, the encoder's emitted
  keys and the decoder's consumed keys are extracted from the AST of
  ``repro/fleet/wire.py`` and cross-checked against
  ``dataclasses.fields(...)`` of the live class. A field missing from
  either side (or a key with no backing field) is a violation.
* **Knob registry.** Every ``"SRM_*"`` string literal in the source
  tree must name a knob declared in :data:`repro.env.KNOBS` — the
  registry a fleet controller serializes to workers. An undeclared
  knob is exactly the side channel the registry exists to prevent.
* **Schema digest.** The whole surface (schema tag, per-type field and
  wire-key lists, the :data:`repro.env.WIRE_KNOBS` an env block may
  carry) is hashed into ``wire-schema.lock``. Any
  drift from the committed digest fails lint; re-pinning via
  ``repro lint --update-wire-lock`` *refuses* unless ``WIRE_SCHEMA``
  itself was bumped, so an intentional change always rides a
  new ``spec/vN`` (see docs/fleet.md, "Schema evolution").
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro import env
from repro.lint.violations import Violation

CODE = "SRM009"

#: Default lock file, committed at the repo root.
DEFAULT_LOCK = "wire-schema.lock"

LOCK_VERSION = 1

#: Source file holding every codec (relative to the repo root).
WIRE_SOURCE = Path("src") / "repro" / "fleet" / "wire.py"

#: Full-match pattern for environment-knob string literals.
_KNOB_LITERAL = re.compile(r"\ASRM_[A-Z][A-Z0-9_]*\Z")


@dataclass(frozen=True)
class CodecSpec:
    """One wired type: its dataclass and its encoder/decoder pair."""

    type_name: str
    encoder: str
    decoder: str
    #: dataclass field -> wire key, where they differ.
    aliases: Mapping[str, str] = field(default_factory=dict)
    #: wire keys with no backing dataclass field (e.g. the schema tag).
    wire_only: frozenset = frozenset()


#: Every explicitly-wired type. SrmConfig/AdaptiveBounds are absent on
#: purpose: their codecs derive the field list from dataclasses.fields
#: at import time, so they cannot drift (the round-trip tests pin the
#: scalar-only constraint instead).
TYPE_CODECS: Tuple[CodecSpec, ...] = (
    CodecSpec("ExperimentSpec", "spec_to_wire", "spec_from_wire",
              wire_only=frozenset({"schema"})),
    CodecSpec("RunResult", "result_to_wire", "result_from_wire",
              wire_only=frozenset({"schema"})),
    CodecSpec("Scenario", "_scenario_to_wire", "_scenario_from_wire",
              aliases={"spec": "topology"}),
    CodecSpec("TopologySpec", "_topology_to_wire", "_topology_from_wire"),
    CodecSpec("RoundOutcome", "_outcome_to_wire", "_outcome_from_wire"),
    CodecSpec("LossEventReport", "_report_to_wire", "_report_from_wire"),
    CodecSpec("MemberTiming", "_timing_to_wire", "_timing_from_wire"),
    CodecSpec("AduName", "_name_to_wire", "_name_from_wire"),
)


class WireDriftError(ValueError):
    """The wire source or lock file cannot be analyzed at all."""


# ----------------------------------------------------------------------
# AST extraction from repro/fleet/wire.py.
# ----------------------------------------------------------------------


@dataclass
class _FunctionSurface:
    """Wire keys one codec function emits or consumes."""

    lineno: int
    keys: Set[str]


def _string_keys_emitted(node: ast.AST) -> Set[str]:
    """Keys of dict literals and ``payload["k"] = ...`` assignments."""
    keys: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Dict):
            for key in child.keys:
                if isinstance(key, ast.Constant) \
                        and isinstance(key.value, str):
                    keys.add(key.value)
        elif isinstance(child, ast.Assign):
            for target in child.targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.slice, ast.Constant) \
                        and isinstance(target.slice.value, str):
                    keys.add(target.slice.value)
    return keys


def _string_keys_consumed(node: ast.AST) -> Set[str]:
    """Arguments of ``reader.take("k")`` / ``take_opt("k")`` calls."""
    keys: Set[str] = set()
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        func = child.func
        if isinstance(func, ast.Attribute) \
                and func.attr in {"take", "take_opt"} and child.args:
            first = child.args[0]
            if isinstance(first, ast.Constant) \
                    and isinstance(first.value, str):
                keys.add(first.value)
        elif isinstance(func, ast.Name) and func.id == "_expect_schema":
            # _expect_schema() pops and validates the version tag.
            keys.add("schema")
    return keys


def extract_codec_surface(source: str) -> Dict[str, _FunctionSurface]:
    """Per-function wire keys from the codec module's source text."""
    tree = ast.parse(source)
    surface: Dict[str, _FunctionSurface] = {}
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name.endswith("_to_wire"):
            surface[node.name] = _FunctionSurface(
                node.lineno, _string_keys_emitted(node))
        elif node.name.endswith("_from_wire"):
            surface[node.name] = _FunctionSurface(
                node.lineno, _string_keys_consumed(node))
    return surface


def _live_type_fields() -> Dict[str, List[str]]:
    """Field names of every wired type, from the live classes."""
    from repro.core.names import AduName
    from repro.experiments.common import (ExperimentSpec, RoundOutcome,
                                          RunResult, Scenario)
    from repro.metrics.events import LossEventReport, MemberTiming
    from repro.topology.spec import TopologySpec

    classes = (ExperimentSpec, RunResult, Scenario, TopologySpec,
               RoundOutcome, LossEventReport, MemberTiming, AduName)
    # AduName is tuple-backed (``_fields``); the rest are dataclasses.
    return {cls.__name__: list(getattr(cls, "_fields", None)
                               or [f.name for f in dataclasses.fields(cls)])
            for cls in classes}


def _wire_schema_tag(source: str) -> str:
    """The ``WIRE_SCHEMA = "spec/vN"`` constant, read from the AST."""
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, ast.Assign) \
                and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id == "WIRE_SCHEMA" \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            return node.value.value
    raise WireDriftError(
        "repro/fleet/wire.py no longer defines WIRE_SCHEMA as a string "
        "constant; SRM009 needs the schema tag to pin the lock")


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


def current_surface(root: Path,
                    type_fields: Optional[Mapping[str, Sequence[str]]]
                    = None) -> Dict[str, object]:
    """The complete wire surface as one canonical JSON-able object."""
    wire_path = root / WIRE_SOURCE
    if not wire_path.exists():
        raise WireDriftError(f"{wire_path}: wire module not found")
    source = wire_path.read_text(encoding="utf-8")
    codec = extract_codec_surface(source)
    fields_by_type = dict(type_fields if type_fields is not None
                          else _live_type_fields())
    types: Dict[str, Dict[str, List[str]]] = {}
    for spec in TYPE_CODECS:
        encoder = codec.get(spec.encoder)
        types[spec.type_name] = {
            "fields": sorted(fields_by_type.get(spec.type_name, [])),
            "wire": sorted(encoder.keys) if encoder else [],
        }
    return {
        "schema": _wire_schema_tag(source),
        "types": types,
        "knobs": sorted(env.WIRE_KNOBS),
    }


def surface_digest(surface: Mapping[str, object]) -> str:
    canonical = json.dumps(surface, sort_keys=True,
                           separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def load_lock(path: Path) -> Optional[Dict[str, str]]:
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise WireDriftError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "digest" not in payload \
            or "schema" not in payload:
        raise WireDriftError(
            f"{path}: expected an object with 'schema' and 'digest'")
    return {"schema": str(payload["schema"]),
            "digest": str(payload["digest"])}


def save_lock(path: Path, schema: str, digest: str) -> None:
    payload = {
        "version": LOCK_VERSION,
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


def _codec_violations(root: Path,
                      type_fields: Optional[Mapping[str, Sequence[str]]]
                      = None) -> List[Violation]:
    wire_path = root / WIRE_SOURCE
    source = wire_path.read_text(encoding="utf-8")
    codec = extract_codec_surface(source)
    wire_display = WIRE_SOURCE.as_posix()
    fields_by_type = dict(type_fields if type_fields is not None
                          else _live_type_fields())
    out: List[Violation] = []

    def hit(lineno: int, message: str) -> None:
        out.append(Violation(path=wire_display, line=lineno, col=1,
                             code=CODE, message=message))

    for spec in TYPE_CODECS:
        encoder = codec.get(spec.encoder)
        decoder = codec.get(spec.decoder)
        if encoder is None or decoder is None:
            missing = spec.encoder if encoder is None else spec.decoder
            hit(1, f"codec function {missing}() for {spec.type_name} "
                   f"not found; the spec/v3 surface must keep explicit "
                   f"encoder/decoder pairs")
            continue
        expected = {spec.aliases.get(name, name)
                    for name in fields_by_type.get(spec.type_name, [])}
        expected |= set(spec.wire_only)
        for key in sorted(expected - encoder.keys):
            field_name = next((f for f, k in spec.aliases.items()
                               if k == key), key)
            hit(encoder.lineno,
                f"{spec.type_name}.{field_name} is not encoded by "
                f"{spec.encoder}(); a field added to the dataclass "
                f"must be wired explicitly (and WIRE_SCHEMA bumped)")
        for key in sorted(encoder.keys - expected):
            hit(encoder.lineno,
                f"{spec.encoder}() emits {key!r} which is not a field "
                f"of {spec.type_name}; remove it or add the field")
        for key in sorted(encoder.keys - decoder.keys):
            hit(decoder.lineno,
                f"{spec.decoder}() never reads {key!r} emitted by "
                f"{spec.encoder}(); encoder and decoder must cover the "
                f"same closed field set")
        for key in sorted(decoder.keys - encoder.keys):
            hit(decoder.lineno,
                f"{spec.decoder}() reads {key!r} which {spec.encoder}() "
                f"never emits; encoder and decoder must cover the same "
                f"closed field set")
    return out


def check_wire_drift(root: Optional[Path] = None,
                     lock_path: Optional[Path] = None,
                     type_fields: Optional[Mapping[str, Sequence[str]]]
                     = None) -> List[Violation]:
    """All SRM009 violations for the tree rooted at ``root``.

    ``type_fields`` overrides the live dataclass reflection (the fixture
    tests use it to prove a field addition without a codec change and
    digest bump fails).
    """
    root = (root if root is not None else _default_root()).resolve()
    out = _codec_violations(root, type_fields)
    out.extend(_knob_literal_violations(root))

    lock_file = lock_path if lock_path is not None else root / DEFAULT_LOCK
    surface = current_surface(root, type_fields)
    digest = surface_digest(surface)
    try:
        lock = load_lock(Path(lock_file))
    except WireDriftError as exc:
        out.append(Violation(path=Path(lock_file).name, line=1, col=1,
                             code=CODE, message=str(exc)))
        return out
    wire_display = WIRE_SOURCE.as_posix()
    if lock is None:
        out.append(Violation(
            path=wire_display, line=1, col=1, code=CODE,
            message=f"no committed {DEFAULT_LOCK}; pin the wire surface "
                    f"with `repro lint --update-wire-lock`"))
    elif lock["digest"] != digest:
        out.append(Violation(
            path=wire_display, line=1, col=1, code=CODE,
            message=f"wire surface drifted from the committed lock "
                    f"({digest} != {lock['digest']}); if intentional, "
                    f"bump WIRE_SCHEMA (e.g. {lock['schema']} -> a new "
                    f"version) and run `repro lint --update-wire-lock`"))
    return out


def update_lock(lock_path: Path,
                root: Optional[Path] = None) -> Tuple[int, str]:
    """Re-pin the lock; refuse when the surface moved under a frozen tag.

    Returns ``(exit_code, message)`` for the CLI: 0 on success or
    no-op, 2 when the surface changed but ``WIRE_SCHEMA`` did not —
    the whole point of the lock is that an intentional schema change
    rides an explicit version bump.
    """
    root = (root if root is not None else _default_root()).resolve()
    surface = current_surface(root)
    digest = surface_digest(surface)
    schema = str(surface["schema"])
    lock = load_lock(lock_path)
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


def _default_root() -> Path:
    """The repo root: the directory holding ``src/repro/fleet/wire.py``.

    Anchored to this module's own location so the checker works from
    any cwd, mirroring the baseline-root anchoring of the engine.
    """
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / WIRE_SOURCE).exists():
            return parent
    return Path.cwd()
