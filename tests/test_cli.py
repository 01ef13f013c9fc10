"""Tests for the experiment CLI."""

from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main, parse_args
from repro.experiments.figures import FIGURES

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: Commands with a golden that are not runner-mapped figures.
HAND_WRITTEN = {"robustness", "congestion", "scaling", "fidelity"}


def test_registry_goldens_and_cli_agree():
    """A figure is a FIGURES entry, a golden and a command — all three."""
    goldens = {path.stem for path in RESULTS.glob("*.txt")}
    assert goldens == set(FIGURES) | HAND_WRITTEN
    assert set(FIGURES) | HAND_WRITTEN <= set(COMMANDS)
    for name in FIGURES:
        assert parse_args(["fleet", "submit", "--figure", name]).figure \
            == name
    for name in sorted(set(COMMANDS) - set(FIGURES)):
        with pytest.raises(SystemExit):
            parse_args(["fleet", "submit", "--figure", name])


@pytest.mark.parametrize("name", list(FIGURES))
def test_serial_report_and_fleet_resolve_the_same_seed_and_scale(name):
    """No flags given: `repro <figure>`, `repro report <figure>` and
    `repro fleet submit --figure <figure>` run the registry's sweep."""
    figure = FIGURES[name]
    for argv in ([name], ["report", name],
                 ["fleet", "submit", "--figure", name]):
        args = parse_args(argv)
        assert (args.seed, {flag: getattr(args, flag)
                            for flag in figure.scale}) \
            == (figure.seed, figure.scale), argv


def _flag_cases():
    """(argv prefix, the sweep flags that command line reads)."""
    for name, figure in FIGURES.items():
        reads = {"seed", *figure.scale}
        yield [name], reads
        yield ["report", name], reads
        yield ["fleet", "submit", "--figure", name], reads
    yield ["scaling"], {"seed", "rounds"}
    yield ["robustness"], {"seed", "rounds"}
    yield ["congestion"], set()
    yield ["fidelity"], set()
    yield ["fuzz"], {"seed", "rounds"}
    yield ["compare", "a.json", "b.json"], set()
    yield ["lint"], set()
    yield ["live", "soak"], {"seed"}


def test_flag_cases_cover_every_command():
    assert {argv[0] for argv, _ in _flag_cases()} == set(COMMANDS)


@pytest.mark.parametrize("flag", ["seed", "sims", "runs", "rounds"])
@pytest.mark.parametrize("argv,reads", list(_flag_cases()),
                         ids=lambda value: "-".join(value)
                         if isinstance(value, list) else "")
def test_sweep_flag_is_accepted_iff_the_command_reads_it(argv, reads, flag,
                                                         capsys):
    """A flag a command would ignore is an argparse error, not a no-op."""
    line = argv + [f"--{flag}", "2"]
    if flag in reads:
        assert getattr(parse_args(line), flag) == 2
    else:
        with pytest.raises(SystemExit) as usage:
            parse_args(line)
        assert usage.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in COMMANDS:
        assert name in out


def test_no_command_lists(capsys):
    assert main([]) == 0
    assert "figure3" in capsys.readouterr().out


def test_figure3_runs_small(capsys):
    assert main(["figure3", "--sims", "2"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3a" in out
    assert "Figure 3c" in out


def test_robustness_runs_small(capsys):
    assert main(["robustness", "--rounds", "1"]) == 0
    assert "Robustness sweep" in capsys.readouterr().out


def test_congestion_runs(capsys):
    assert main(["congestion"]) == 0
    out = capsys.readouterr().out
    assert "unpaced" in out and "paced" in out


def test_seed_override(capsys):
    assert main(["figure5", "--sims", "2", "--seed", "99"]) == 0
    assert "Figure 5" in capsys.readouterr().out


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure99"])


def test_retired_sched_backend_flag_is_a_usage_error(capsys):
    # The heap backend and its selector are gone: loud, not ignored.
    with pytest.raises(SystemExit) as usage:
        main(["figure3", "--sched-backend", "heap"])
    assert usage.value.code == 2
    assert "--sched-backend" in capsys.readouterr().err


def test_runner_flags_parse_with_defaults():
    args = build_parser().parse_args(["figure4"])
    assert args.jobs == 1
    assert args.no_cache is False
    assert args.manifest is None


def test_figure4_with_jobs_and_manifest(tmp_path, capsys):
    manifest = tmp_path / "run.jsonl"
    assert main(["figure4", "--sims", "1", "--jobs", "2",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--manifest", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "Figure 4a" in out
    from repro.runner import read_manifest
    rows = read_manifest(manifest, "task")
    assert rows and all(row["status"] == "ok" for row in rows)


def test_no_cache_flag_skips_cache(tmp_path, capsys):
    assert main(["figure15", "--sims", "1", "--no-cache",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    assert not (tmp_path / "cache").exists()


def test_serial_commands_have_no_runner_flags():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["robustness", "--jobs", "2"])


def test_metrics_flag_persists_bundle(tmp_path, capsys):
    bundle_path = tmp_path / "metrics.json"
    assert main(["figure3", "--sims", "1", "--no-cache",
                 "--metrics", str(bundle_path)]) == 0
    capsys.readouterr()
    from repro.metrics import load_bundle
    bundle = load_bundle(bundle_path)
    assert bundle.rounds > 0
    assert bundle.headline()["loss_events"] > 0


def test_report_command_runs_figure_and_prints_metrics(tmp_path, capsys):
    save_path = tmp_path / "fig3.json"
    assert main(["report", "figure3", "--sims", "1", "--no-cache",
                 "--save", str(save_path)]) == 0
    out = capsys.readouterr().out
    # The standard figure table first (byte-compatible with `figure3`),
    # then the metrics report.
    assert "Figure 3a" in out
    assert "metrics report" in out
    assert "per loss event" in out
    assert save_path.exists()


def test_report_command_reads_saved_bundle(tmp_path, capsys):
    save_path = tmp_path / "fig3.json"
    assert main(["report", "figure3", "--sims", "1", "--no-cache",
                 "--save", str(save_path)]) == 0
    capsys.readouterr()
    assert main(["report", str(save_path)]) == 0
    out = capsys.readouterr().out
    assert "metrics report" in out
    assert "Figure 3a" not in out  # no re-run: rendered from the file


def test_report_rejects_unknown_target(capsys):
    assert main(["report", "not-a-figure"]) == 2
    assert "neither" in capsys.readouterr().err


def test_compare_exit_codes(tmp_path, capsys):
    from repro.metrics import load_bundle, save_bundle

    baseline_path = tmp_path / "baseline.json"
    assert main(["report", "figure3", "--sims", "1", "--no-cache",
                 "--save", str(baseline_path)]) == 0
    capsys.readouterr()

    # Identical bundles: clean exit.
    assert main(["compare", str(baseline_path), str(baseline_path)]) == 0
    assert "OK" in capsys.readouterr().out

    # Inject a >10% regression into the recovery-delay distribution:
    # non-zero exit, and the regressing keys are named.
    worse = load_bundle(baseline_path)
    worse.recovery_ratios = [r * 1.5 for r in worse.recovery_ratios]
    worse_path = save_bundle(worse, tmp_path / "worse.json")
    assert main(["compare", str(baseline_path), str(worse_path)]) == 2
    assert "REGRESSION" in capsys.readouterr().out

    # A loose threshold lets the same candidate through.
    assert main(["compare", str(baseline_path), str(worse_path),
                 "--threshold", "10"]) == 0


@pytest.mark.parametrize("command", ["report", "compare"])
@pytest.mark.parametrize("text, named", [
    ('{"requests": "many"}', "requests: expected an integer"),
    ('{"requets": 3}', "unknown field(s) requets"),
    ("not json", "json.loads"),
], ids=["wrong-type", "unknown-key", "not-json"])
def test_an_undecodable_bundle_is_one_stderr_line_and_exit_1(
        tmp_path, capsys, command, text, named):
    """It used to be a traceback (or, for a wrong type, a bundle that
    broke later); exit 2 keeps meaning "regression"."""
    import json

    from repro.metrics import RunMetrics, save_bundle

    good = save_bundle(RunMetrics(), tmp_path / "good.json")
    bad = tmp_path / "bad.json"
    if text.startswith("{"):
        bad.write_text(json.dumps(dict(json.loads(good.read_text()),
                                       **json.loads(text))))
    else:
        bad.write_text(text)
    argv = [command, str(bad)] if command == "report" else \
        [command, str(good), str(bad)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"{command}: {bad}: ")
    assert named in captured.err


def test_figure12_accepts_runner_flags(tmp_path, capsys):
    manifest = tmp_path / "fig12.jsonl"
    assert main(["figure12", "--runs", "1", "--rounds", "2", "--no-cache",
                 "--manifest", str(manifest)]) == 0
    assert "Figure 12" in capsys.readouterr().out
    from repro.runner import read_manifest
    rows = read_manifest(manifest, "task")
    assert rows and all(row["status"] == "ok" for row in rows)
