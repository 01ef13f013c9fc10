"""SRM009: the schema table's import-time checks, knobs, digest lock."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from repro import codec
from repro.core.names import PageId
from repro.experiments.common import ExperimentSpec, RunResult
from repro.fleet import wire
from repro.lint.cli import main as lint_main
from repro.lint.wiredrift import (
    DEFAULT_LOCK,
    LOCKED_TYPES,
    _knob_literal_violations,
    check_wire_drift,
    current_surface,
    load_lock,
    save_lock,
    surface_digest,
    update_lock,
)
from repro.metrics.bundle import RunMetrics

REPO_ROOT = Path(__file__).parent.parent


# ----------------------------------------------------------------------
# The committed tree is drift-free.
# ----------------------------------------------------------------------


def test_clean_tree_has_no_drift():
    assert check_wire_drift() == []


def test_committed_lock_matches_the_live_surface():
    lock = load_lock(REPO_ROOT / DEFAULT_LOCK)
    assert lock is not None
    surface = current_surface()
    assert lock["schema"] == surface["schema"] == "spec/v3"
    assert lock["digest"] == surface_digest(surface)
    # Only what an env block may carry is wire surface; worker-local
    # knobs (cache location, test scale) come and go without a bump.
    assert surface["knobs"] == ["SRM_CACHE_SALT", "SRM_CHECK"]
    # Both top-level types carry the schema tag beside their fields.
    spec = surface["types"]["ExperimentSpec"]
    assert set(spec["wire"]) - set(spec["fields"]) == {"schema"}


# ----------------------------------------------------------------------
# Codec <-> dataclass agreement is structural: every record's rows are
# checked against its class when the record is built, so SCHEMA's are
# checked when repro.fleet.wire is imported.
# ----------------------------------------------------------------------


def _wired_classes(annotation) -> set:
    """Dataclasses / NamedTuples an annotation mentions, at any depth."""
    if dataclasses.is_dataclass(annotation) or hasattr(annotation, "_fields"):
        return {annotation}
    found: set = set()
    for argument in typing.get_args(annotation):
        found |= _wired_classes(argument)
    return found


def test_every_wired_type_is_reflected():
    # Walk the field types down from the two top-level classes: every
    # class a payload can hold has a SCHEMA row, bar the two that ride
    # in a form of their own.
    rides_whole = {RunMetrics: "its own run-metrics/v1 bundle",
                   PageId: "a [creator, number] pair"}
    seen: set = set()
    frontier = [ExperimentSpec, RunResult]
    while frontier:
        cls = frontier.pop()
        if cls in seen or cls in rides_whole:
            continue
        seen.add(cls)
        assert cls in wire.SCHEMA, f"{cls.__name__} has no SCHEMA row"
        for annotation in typing.get_type_hints(cls).values():
            frontier.extend(_wired_classes(annotation))
    assert LOCKED_TYPES <= {cls.__name__ for cls in seen}
    assert {cls.__name__ for cls in wire.SCHEMA} - {
        cls.__name__ for cls in seen} == {"LocalRecoveryOutcome"}


@dataclasses.dataclass
class _Probe:
    alpha: int
    beta: int


def test_field_added_without_codec_change_fails():
    complete = (("alpha", "alpha", codec.INT), ("beta", "b", codec.INT))
    codec._check_rows(_Probe, complete)  # aliases live in the key column
    # A field with no row: the dataclass grew, the table did not.
    with pytest.raises(TypeError, match=r"SCHEMA\[_Probe\]"):
        codec._check_rows(_Probe, complete[:1])
    # ... and through the front door: the module itself refuses to load.
    script = (
        "import dataclasses\n"
        "import repro.metrics.events as events\n"
        "events.MemberTiming = dataclasses.make_dataclass(\n"
        "    'MemberTiming', [('hops', int, 0)],\n"
        "    bases=(events.MemberTiming,))\n"
        "import repro.fleet.wire\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": str(REPO_ROOT / "src")})
    assert proc.returncode != 0
    assert "SCHEMA[MemberTiming]" in proc.stderr
    assert "hops" in proc.stderr


def test_removed_wire_key_fails_both_directions():
    rows = (("alpha", "alpha", codec.INT), ("beta", "beta", codec.INT))
    # A row whose field is gone ...
    with pytest.raises(TypeError, match="gamma"):
        codec._check_rows(_Probe, rows + (("gamma", "gamma", codec.INT),))
    # ... a field renamed in the class but not in the attribute column
    # (an alias belongs in the key column, never the attribute) ...
    with pytest.raises(TypeError, match="beta_renamed"):
        codec._check_rows(_Probe, (rows[0],
                                  ("beta_renamed", "beta", codec.INT)))
    # ... and one field claimed by two rows.
    with pytest.raises(TypeError):
        codec._check_rows(_Probe, rows + (rows[1],))
    # Tag rows carry no attribute and do not count as fields.
    codec._check_rows(_Probe, ((None, "schema", wire.SCHEMA_TAG),) + rows)


def test_a_row_added_under_a_frozen_tag_moves_the_digest(monkeypatch):
    rows = wire.SCHEMA[ExperimentSpec]
    monkeypatch.setitem(wire.SCHEMA, ExperimentSpec,
                        rows + (("new_knob", "new_knob", codec.INT),))
    violations = check_wire_drift()
    assert [v.code for v in violations] == ["SRM009"]
    assert "drifted from the committed lock" in violations[0].message
    assert violations[0].path == "src/repro/fleet/wire.py"


# ----------------------------------------------------------------------
# Lock update workflow: the ratchet that forces a new spec/vN.
# ----------------------------------------------------------------------


def test_update_lock_is_idempotent(tmp_path):
    lock_path = tmp_path / "wire-schema.lock"
    code, message = update_lock(lock_path)
    assert code == 0 and "pinned" in message
    assert lock_path.read_text() == (REPO_ROOT / DEFAULT_LOCK).read_text()
    code, message = update_lock(lock_path)
    assert code == 0 and "up to date" in message


def test_update_lock_refuses_drift_under_a_frozen_tag(tmp_path):
    lock_path = tmp_path / "wire-schema.lock"
    # Same schema tag, stale digest: the surface moved without a bump.
    save_lock(lock_path, "spec/v3", "sha256:" + "0" * 64)
    code, message = update_lock(lock_path)
    assert code == 2
    assert "WIRE_SCHEMA is still 'spec/v3'" in message
    # And the lock was not touched.
    assert load_lock(lock_path)["digest"] == "sha256:" + "0" * 64


def test_update_lock_repins_after_a_schema_bump(tmp_path):
    lock_path = tmp_path / "wire-schema.lock"
    save_lock(lock_path, "spec/v2", "sha256:" + "0" * 64)
    code, message = update_lock(lock_path)
    assert code == 0 and "spec/v2 -> spec/v3" in message
    assert load_lock(lock_path)["schema"] == "spec/v3"


def test_missing_lock_is_a_violation(tmp_path):
    violations = check_wire_drift(lock_path=tmp_path / "absent.lock")
    assert any("--update-wire-lock" in v.message for v in violations)


# ----------------------------------------------------------------------
# Knob-literal scan.
# ----------------------------------------------------------------------


def test_undeclared_knob_literal_is_flagged(tmp_path):
    tree = tmp_path / "src" / "repro" / "core"
    tree.mkdir(parents=True)
    (tree / "rogue.py").write_text(
        'import os\nvalue = os.environ.get("SRM_SECRET_TOGGLE", "")\n')
    violations = _knob_literal_violations(tmp_path)
    assert [v.code for v in violations] == ["SRM009"]
    assert "SRM_SECRET_TOGGLE" in violations[0].message


def test_declared_knob_literals_pass(tmp_path):
    tree = tmp_path / "src" / "repro" / "core"
    tree.mkdir(parents=True)
    (tree / "fine.py").write_text(
        'import os\nvalue = os.environ.get("SRM_CHECK", "")\n')
    assert _knob_literal_violations(tmp_path) == []


# ----------------------------------------------------------------------
# CLI plumbing.
# ----------------------------------------------------------------------


def test_cli_wire_drift_on_the_committed_tree(tmp_path, monkeypatch, capsys):
    # The default lock is the repo root's, wherever lint is launched.
    monkeypatch.chdir(tmp_path)
    target = str(REPO_ROOT / "src" / "repro" / "fleet" / "wire.py")
    assert lint_main([target, "--wire-drift"]) == 0
    assert lint_main([target, "--wire-drift", "--wire-lock",
                      str(tmp_path / "absent.lock")]) == 1


def test_cli_update_wire_lock_round_trip(tmp_path, capsys):
    lock_path = tmp_path / "wire-schema.lock"
    assert lint_main(["--update-wire-lock",
                      "--wire-lock", str(lock_path)]) == 0
    payload = json.loads(lock_path.read_text())
    assert payload["schema"] == "spec/v3"
    assert payload["digest"].startswith("sha256:")


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"schema": "x"}'])
def test_cli_update_wire_lock_refuses_a_malformed_lock(tmp_path, capsys,
                                                       text):
    lock_path = tmp_path / "wire-schema.lock"
    lock_path.write_text(text)
    assert lint_main(["--update-wire-lock",
                      "--wire-lock", str(lock_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{lock_path}: ")
    assert "Traceback" not in captured.err
    assert lock_path.read_text() == text  # left as found
