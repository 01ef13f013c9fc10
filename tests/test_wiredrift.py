"""SRM009 wire-schema drift checker: codecs, knobs, digest lock."""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint.cli import main as lint_main
from repro.lint.wiredrift import (
    DEFAULT_LOCK,
    TYPE_CODECS,
    _knob_literal_violations,
    _live_type_fields,
    check_wire_drift,
    current_surface,
    extract_codec_surface,
    load_lock,
    save_lock,
    surface_digest,
    update_lock,
)

REPO_ROOT = Path(__file__).parent.parent


# ----------------------------------------------------------------------
# AST extraction.
# ----------------------------------------------------------------------


def test_extract_codec_surface_reads_emits_and_takes():
    source = (
        "def thing_to_wire(thing):\n"
        "    payload = {'a': thing.a, 'b': thing.b}\n"
        "    payload['c'] = thing.c\n"
        "    return payload\n"
        "def thing_from_wire(payload):\n"
        "    reader = _Reader(payload, 'thing')\n"
        "    _expect_schema(reader, 'thing')\n"
        "    a = reader.take('a')\n"
        "    b = reader.take_opt('b', None)\n"
        "    return a, b\n")
    surface = extract_codec_surface(source)
    assert surface["thing_to_wire"].keys == {"a", "b", "c"}
    assert surface["thing_from_wire"].keys == {"a", "b", "schema"}


# ----------------------------------------------------------------------
# The committed tree is drift-free.
# ----------------------------------------------------------------------


def test_clean_tree_has_no_drift():
    assert check_wire_drift(root=REPO_ROOT) == []


def test_committed_lock_matches_the_live_surface():
    lock = load_lock(REPO_ROOT / DEFAULT_LOCK)
    assert lock is not None
    surface = current_surface(REPO_ROOT)
    assert lock["schema"] == surface["schema"] == "spec/v3"
    assert lock["digest"] == surface_digest(surface)
    # Only what an env block may carry is wire surface; worker-local
    # knobs (cache location, test scale) come and go without a bump.
    assert surface["knobs"] == ["SRM_CACHE_SALT", "SRM_CHECK"]


def test_every_wired_type_is_reflected():
    fields = _live_type_fields()
    assert {spec.type_name for spec in TYPE_CODECS} <= set(fields)
    assert all(fields[spec.type_name] for spec in TYPE_CODECS)


# ----------------------------------------------------------------------
# The acceptance fixture: a field added to ExperimentSpec without a
# codec change and digest bump MUST fail.
# ----------------------------------------------------------------------


def test_field_added_without_codec_change_fails():
    fields = {name: list(values)
              for name, values in _live_type_fields().items()}
    fields["ExperimentSpec"] = fields["ExperimentSpec"] + ["new_knob"]
    violations = check_wire_drift(root=REPO_ROOT, type_fields=fields)
    messages = [v.message for v in violations]
    assert any("ExperimentSpec.new_knob is not encoded" in m
               for m in messages), messages
    # The digest moves too, so even a codec-complete change cannot
    # land without re-pinning (which demands a schema bump).
    assert any("drifted from the committed lock" in m for m in messages)
    assert all(v.code == "SRM009" for v in violations)


def test_removed_wire_key_fails_both_directions(tmp_path):
    fields = {name: list(values)
              for name, values in _live_type_fields().items()}
    fields["MemberTiming"] = [f for f in fields["MemberTiming"]
                              if f != "rtt"]
    violations = check_wire_drift(root=REPO_ROOT, type_fields=fields)
    assert any("emits 'rtt' which is not a field of MemberTiming"
               in v.message for v in violations)


# ----------------------------------------------------------------------
# Lock update workflow: the ratchet that forces a new spec/vN.
# ----------------------------------------------------------------------


def test_update_lock_is_idempotent(tmp_path):
    lock_path = tmp_path / "wire-schema.lock"
    code, message = update_lock(lock_path, root=REPO_ROOT)
    assert code == 0 and "pinned" in message
    code, message = update_lock(lock_path, root=REPO_ROOT)
    assert code == 0 and "up to date" in message


def test_update_lock_refuses_drift_under_a_frozen_tag(tmp_path):
    lock_path = tmp_path / "wire-schema.lock"
    # Same schema tag, stale digest: the surface moved without a bump.
    save_lock(lock_path, "spec/v3", "sha256:" + "0" * 64)
    code, message = update_lock(lock_path, root=REPO_ROOT)
    assert code == 2
    assert "WIRE_SCHEMA is still 'spec/v3'" in message
    # And the lock was not touched.
    assert load_lock(lock_path)["digest"] == "sha256:" + "0" * 64


def test_update_lock_repins_after_a_schema_bump(tmp_path):
    lock_path = tmp_path / "wire-schema.lock"
    save_lock(lock_path, "spec/v2", "sha256:" + "0" * 64)
    code, message = update_lock(lock_path, root=REPO_ROOT)
    assert code == 0 and "spec/v2 -> spec/v3" in message
    assert load_lock(lock_path)["schema"] == "spec/v3"


def test_missing_lock_is_a_violation(tmp_path):
    violations = check_wire_drift(root=REPO_ROOT,
                                  lock_path=tmp_path / "absent.lock")
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


def test_cli_wire_drift_on_the_committed_tree(capsys):
    target = str(REPO_ROOT / "src" / "repro" / "fleet" / "wire.py")
    assert lint_main([target, "--baseline",
                      str(REPO_ROOT / "lint-baseline.json"),
                      "--wire-drift"]) == 0


def test_cli_update_wire_lock_round_trip(tmp_path, capsys):
    lock_path = tmp_path / "wire-schema.lock"
    assert lint_main(["--update-wire-lock",
                      "--wire-lock", str(lock_path)]) == 0
    payload = json.loads(lock_path.read_text())
    assert payload["schema"] == "spec/v3"
    assert payload["digest"].startswith("sha256:")
