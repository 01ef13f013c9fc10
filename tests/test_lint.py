"""repro.lint: rule firing, suppressions, display paths, CLI codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint import LintEngine, lint_paths, rule_codes
from repro.lint.cli import main as lint_main
from repro.lint.config import in_domain, module_key
from repro.lint.engine import iter_python_files

FIXTURES = Path(__file__).parent / "lint_fixtures"
VIOLATIONS_TREE = FIXTURES / "violations"
CLEAN_TREE = FIXTURES / "clean"
SUPPRESSED_TREE = FIXTURES / "suppressed"

#: rule code -> (fixture file, expected line of the first hit)
EXPECTED_HITS = {
    "SRM001": ("src/repro/core/srm001.py", 8),
    "SRM002": ("src/repro/core/srm002.py", 7),
    "SRM003": ("src/repro/core/srm003.py", 4),
    "SRM004": ("src/repro/core/srm004.py", 5),
    "SRM005": ("src/repro/net/packet.py", 4),
    "SRM006": ("src/repro/net/network.py", 10),
    "SRM008": ("src/repro/core/srm008.py", 14),
}


# ----------------------------------------------------------------------
# Rule firing.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("code", sorted(EXPECTED_HITS))
def test_rule_fires_at_expected_line(code):
    relpath, line = EXPECTED_HITS[code]
    report = lint_paths([VIOLATIONS_TREE / relpath])
    hits = [v for v in report.violations if v.code == code]
    assert hits, f"{code} did not fire on {relpath}"
    assert hits[0].line == line
    assert code in hits[0].format()


def test_every_rule_code_fires_on_the_violations_tree():
    report = lint_paths([VIOLATIONS_TREE])
    fired = {v.code for v in report.violations}
    assert fired == set(rule_codes())


def test_clean_tree_is_clean():
    report = lint_paths([CLEAN_TREE])
    assert report.ok, report.format()
    assert report.files_checked >= 3


def test_repo_is_clean():
    repo_root = Path(__file__).parent.parent
    report = lint_paths([repo_root / "src", repo_root / "tests"])
    assert report.ok, report.format()


def test_srm006_flags_mapping_reexpansion_even_when_guarded():
    report = lint_paths([VIOLATIONS_TREE / "src/repro/net/network.py"])
    hits = [v for v in report.violations if v.code == "SRM006"]
    assert [v.line for v in hits] == [10, 14]
    assert "guard" in hits[0].message
    assert "**mapping" in hits[1].message


def test_srm006_covers_every_module_an_agent_emits_from():
    report = lint_paths([VIOLATIONS_TREE / "src/repro/core/session.py"])
    assert [(v.code, v.line) for v in report.violations] == [("SRM006", 12)]
    engine = LintEngine()
    emission = ("def emit(agent, kind):\n"
                "    agent.network.trace.record(0.0, agent.node_id, kind, {})\n")
    flagged = {module: [v.code for v in engine.check_source(
        f"src/{module}", emission)]
        for module in ("repro/core/agent.py", "repro/core/session.py",
                       "repro/core/fec.py", "repro/wb/whiteboard.py")}
    assert flagged == dict.fromkeys(flagged, ["SRM006"])


def test_srm006_guard_must_test_a_kind_against_trace_wanted():
    engine = LintEngine()
    template = ("def f(self, kind, node):\n"
                "    if {test}:\n"
                "        self.trace.record(0.0, node, kind)\n")
    flagged = {test: [v.code for v in engine.check_source(
        "src/repro/net/network.py", template.format(test=test))]
        for test in ("kind in self.trace.wanted",
                     "node and kind in trace.wanted",
                     "self.trace.wanted",            # truthiness
                     "kind in self.wanted",          # not the trace's
                     "kind not in self.trace.wanted",
                     "self.trace.enabled")}          # the old guard
    assert flagged == {"kind in self.trace.wanted": [],
                       "node and kind in trace.wanted": [],
                       "self.trace.wanted": ["SRM006"],
                       "kind in self.wanted": ["SRM006"],
                       "kind not in self.trace.wanted": ["SRM006"],
                       "self.trace.enabled": ["SRM006"]}


def test_srm001_aliased_numpy_and_from_import():
    engine = LintEngine()
    src = ("import numpy as np\n"
           "from random import choice\n"
           "def f(xs):\n"
           "    return choice(xs), np.random.rand()\n")
    codes = [v.code for v in engine.check_source("src/repro/core/x.py", src)]
    assert codes.count("SRM001") == 2


def test_srm002_sorted_iteration_is_clean():
    engine = LintEngine()
    src = ("def f(xs):\n"
           "    for x in sorted(set(xs)):\n"
           "        print(x)\n"
           "    return sum(set(xs)), len(set(xs))\n")
    assert engine.check_source("src/repro/core/x.py", src) == []


def test_srm004_none_and_sentinel_comparisons_are_clean():
    engine = LintEngine()
    src = ("def f(timer):\n"
           "    return timer.expiry == None or timer.expiry != -1\n")
    assert engine.check_source("src/repro/core/x.py", src) == []


def test_domain_rules_skip_non_domain_files():
    engine = LintEngine()
    src = "import random\nx = random.random()\n"
    # Same source: flagged inside repro/**, ignored outside it.
    assert engine.check_source("src/repro/core/x.py", src)
    assert engine.check_source("tools/script.py", src) == []
    # ... but generic hygiene still applies outside the domain.
    hygiene = "def f(x=[]):\n    return x\n"
    codes = [v.code for v in engine.check_source("tools/script.py", hygiene)]
    assert codes == ["SRM003"]


def test_rng_module_is_the_blessed_boundary():
    engine = LintEngine()
    src = "import random\nrng = random.Random(3)\n"
    assert engine.check_source("src/repro/sim/rng.py", src) == []


def test_live_clock_is_the_blessed_wall_clock_boundary():
    engine = LintEngine()
    src = "import time\nstamp = time.time()\n"
    # The one module of the live engine allowed to read real time...
    assert engine.check_source("src/repro/live/clock.py", src) == []
    # ... while the rest of repro.live stays under SRM001.
    codes = [v.code
             for v in engine.check_source("src/repro/live/session.py", src)]
    assert codes == ["SRM001"]


def test_module_key_matches_fixture_and_real_trees():
    assert module_key("src/repro/net/packet.py") == "repro/net/packet.py"
    assert module_key(
        "tests/lint_fixtures/violations/src/repro/net/packet.py"
    ) == "repro/net/packet.py"
    assert not in_domain("tests/test_lint.py")


def test_syntax_error_reports_srm000(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    report = lint_paths([bad])
    assert not report.ok
    assert report.parse_errors[0].code == "SRM000"


def test_fixture_dirs_are_excluded_from_walks_but_lintable_directly():
    walked = iter_python_files([FIXTURES.parent])  # tests/
    assert not any("lint_fixtures" in str(path) for path in walked)
    direct = iter_python_files([VIOLATIONS_TREE])
    assert len(direct) >= len(EXPECTED_HITS)


# ----------------------------------------------------------------------
# Suppressions.
# ----------------------------------------------------------------------


def test_line_and_file_suppressions_waive_violations():
    report = lint_paths([SUPPRESSED_TREE])
    assert report.ok, report.format()
    assert report.suppressed == 2


def test_suppression_must_name_the_right_code():
    engine = LintEngine()
    src = ("import time\n"
           "def f():\n"
           "    return time.time()  # lint: ignore[SRM999]\n")
    report_codes = [v.code
                    for v in engine.check_source("src/repro/core/x.py", src)]
    assert report_codes == ["SRM001"]  # wrong code: not waived


def test_file_suppression_only_near_top(tmp_path):
    tree = tmp_path / "src" / "repro" / "core"
    tree.mkdir(parents=True)
    body = "\n" * 20 + "# lint: ignore-file[SRM001]\nimport time\n" \
        + "t = time.time()\n"
    (tree / "late.py").write_text(body)
    report = lint_paths([tmp_path])
    assert [v.code for v in report.violations] == ["SRM001"]


# ----------------------------------------------------------------------
# Display paths.
# ----------------------------------------------------------------------


def test_display_paths_anchor_to_the_repo_root_from_any_cwd(tmp_path,
                                                            monkeypatch):
    # One tree reports one set of paths, whatever the launch directory:
    # relative to the repo root under it, as given outside it.
    target = VIOLATIONS_TREE / "src/repro/core/srm001.py"
    expected = "tests/lint_fixtures/violations/src/repro/core/srm001.py"
    for cwd in (tmp_path, Path(__file__).parent):
        monkeypatch.chdir(cwd)
        report = lint_paths([target])
        assert {v.path for v in report.violations} == {expected}
    tree = tmp_path / "src" / "repro" / "core"
    tree.mkdir(parents=True)
    (tree / "old.py").write_text("import time\nt = time.time()\n")
    report = lint_paths([tmp_path / "src"])
    assert [v.path for v in report.violations] == [
        (tree / "old.py").as_posix()]


# ----------------------------------------------------------------------
# CLI.
# ----------------------------------------------------------------------


def test_cli_exit_codes():
    assert repro_main(["lint", str(CLEAN_TREE)]) == 0
    assert repro_main(["lint", str(VIOLATIONS_TREE)]) == 1


def test_cli_select_unknown_code_is_usage_error():
    assert lint_main([str(CLEAN_TREE), "--select", "SRM999"]) == 2


def test_cli_select_runs_only_named_rules():
    assert lint_main([str(VIOLATIONS_TREE), "--select", "SRM003"]) == 1
    assert lint_main([str(VIOLATIONS_TREE / "src/repro/core/srm001.py"),
                      "--select", "SRM003"]) == 0


def test_cli_list_rules(capsys):
    assert repro_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in rule_codes():
        assert code in out


def test_cli_json_format_is_machine_readable(capsys):
    assert lint_main([str(VIOLATIONS_TREE / "src/repro/core/srm001.py"),
                      "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["files_checked"] == 1
    codes = {row["code"] for row in payload["violations"]}
    assert "SRM001" in codes
    assert all({"path", "line", "col", "code", "message"}
               <= set(row) for row in payload["violations"])


def test_cli_github_format_emits_error_annotations(capsys):
    assert lint_main([str(VIOLATIONS_TREE / "src/repro/core/srm003.py"),
                      "--format", "github"]) == 1
    out = capsys.readouterr().out
    annotations = [line for line in out.splitlines()
                   if line.startswith("::error ")]
    assert annotations
    assert ",title=SRM003::" in annotations[0]
    assert "file=" in annotations[0] and "line=" in annotations[0]
    # Clean runs still end with the human summary, no annotations.
    assert lint_main([str(CLEAN_TREE), "--format", "github"]) == 0
    assert "::error" not in capsys.readouterr().out
