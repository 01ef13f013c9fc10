"""The frozen spec/v3 wire schema (repro.fleet.wire).

The contract under test: ``ExperimentSpec.from_json(spec.to_json())``
round-trips *every* spec the experiment layer produces — each figure
sweep, the herd/scaling engine, fuzz-style topologies — exactly, and
a decoded spec fingerprints identically to the original (so fleet
workers and serial runs share one result cache). Unknown fields, wrong
schema versions, and type mismatches are rejected loudly: the wire
format is frozen, not permissive.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import (
    ExperimentSpec,
    choose_scenario,
    run_experiment,
)
from repro.core.config import AdaptiveBounds, SrmConfig
from repro.fleet.wire import (
    WIRE_SCHEMA,
    WireFormatError,
    result_from_wire,
    result_to_wire,
    spec_from_wire,
    spec_to_json,
    spec_to_wire,
)
from repro.runner.task import Task, canonical
from repro.sim.rng import RandomSource
from repro.topology.random_tree import random_labeled_tree

from conftest import draw_mutation, examples, mutated


def _spec(seed: int = 3, nodes: int = 10, **overrides) -> ExperimentSpec:
    rng = RandomSource(seed)
    tspec = random_labeled_tree(nodes, rng)
    scenario = choose_scenario(tspec, session_size=nodes, rng=rng)
    fields = dict(scenario=scenario, config=SrmConfig(), seed=seed,
                  experiment="unit")
    fields.update(overrides)
    return ExperimentSpec(**fields)


def _assert_round_trip(spec: ExperimentSpec) -> None:
    decoded = ExperimentSpec.from_json(spec.to_json())
    assert decoded == spec
    # Canonical JSON is stable across the trip too (cache-key property).
    assert spec_to_json(decoded) == spec_to_json(spec)


# ----------------------------------------------------------------------
# Round-trips: every spec the experiment suites produce
# ----------------------------------------------------------------------


class _Captured(Exception):
    """Short-circuits a figure sweep once its specs are in hand."""

    def __init__(self, specs):
        super().__init__(f"{len(specs)} specs")
        self.specs = specs


class _CaptureRunner:
    """Stands in for ExperimentRunner to harvest a figure's sweep."""

    def map(self, experiment, fn, kwargs_list):
        assert fn is run_experiment
        raise _Captured([kwargs["spec"] for kwargs in kwargs_list])


def _figure_sweeps():
    from repro.experiments.figure3 import run_figure3
    from repro.experiments.figure4 import run_figure4
    from repro.experiments.figure5 import run_figure5
    from repro.experiments.figure6 import run_figure6
    from repro.experiments.figure7 import run_figure7
    from repro.experiments.figure8 import run_figure8
    from repro.experiments.figure12_13 import run_rounds_experiment
    from repro.experiments.figure14 import run_figure14
    from repro.experiments.figure15 import run_figure15

    scenario = choose_scenario(random_labeled_tree(12, RandomSource(1)),
                               session_size=12, rng=RandomSource(2))
    return [
        ("figure3", lambda r: run_figure3(sizes=(8,), sims=2, seed=1,
                                          runner=r)),
        ("figure4", lambda r: run_figure4(sizes=(20,), sims=2, seed=1,
                                          runner=r)),
        ("figure5", lambda r: run_figure5(c2_values=(0,), sims=2,
                                          group_size=8, seed=1,
                                          runner=r)),
        ("figure6", lambda r: run_figure6(sims=2, seed=1, runner=r)),
        ("figure7", lambda r: run_figure7(sims=2, seed=1, runner=r)),
        ("figure8", lambda r: run_figure8(sims=2, seed=1, runner=r)),
        ("figure12_13", lambda r: run_rounds_experiment(
            scenario, adaptive=True, runs=2, rounds=3, seed=1,
            runner=r)),
        ("figure14", lambda r: run_figure14(sizes=(20,), sims=2,
                                            rounds=2, seed=1, runner=r)),
        ("figure15", lambda r: run_figure15(sizes=(20,), sims=2, seed=1,
                                            runner=r)),
    ]


@pytest.mark.parametrize("name,sweep",
                         _figure_sweeps(),
                         ids=[name for name, _ in _figure_sweeps()])
def test_every_figure_spec_round_trips(name, sweep):
    with pytest.raises(_Captured) as excinfo:
        sweep(_CaptureRunner())
    specs = excinfo.value.specs
    assert specs, f"{name} produced no specs"
    for spec in specs:
        _assert_round_trip(spec)


def test_herd_engine_spec_round_trips():
    from repro.experiments.scaling import (star_scaling_scenario,
                                           tree_scaling_scenario)

    for scenario in (star_scaling_scenario(64),
                     tree_scaling_scenario(64, seed=5)):
        _assert_round_trip(ExperimentSpec(
            scenario=scenario, rounds=2, seed=9, engine="herd",
            experiment="scaling"))


def test_fuzz_style_specs_round_trip():
    from repro.oracle.fuzz import build_spec, case_seed, generate_case

    for index in range(6):
        case = generate_case(case_seed(7, index))
        tspec = build_spec(case)
        rng = RandomSource(case["topo_seed"])
        size = min(tspec.num_nodes, max(3, tspec.num_nodes // 2))
        scenario = choose_scenario(tspec, session_size=size, rng=rng)
        _assert_round_trip(ExperimentSpec(
            scenario=scenario, seed=case["topo_seed"],
            experiment="fuzz", trigger_gap=1.5))


def test_scoped_and_custom_config_specs_round_trip():
    config = SrmConfig(adaptive=True,
                       adaptive_bounds=AdaptiveBounds(c1_min=0.25))
    _assert_round_trip(_spec(config=config, kind="scoped",
                             scoped_mode="one-step"))
    _assert_round_trip(_spec(config=None))
    _assert_round_trip(_spec(rounds=4, trigger_gap=0.125,
                             engine="direct"))


@settings(deadline=None)
@given(seed=st.integers(0, 2 ** 16), nodes=st.integers(4, 20),
       rounds=st.integers(1, 5),
       trigger_gap=st.floats(0.001, 64.0, allow_nan=False),
       c1=st.floats(0.0, 10.0, allow_nan=False),
       d2=st.floats(0.0, 10.0, allow_nan=False),
       adaptive=st.booleans())
def test_arbitrary_specs_round_trip(seed, nodes, rounds, trigger_gap,
                                    c1, d2, adaptive):
    config = SrmConfig(c1=c1, d2=d2, adaptive=adaptive)
    spec = _spec(seed=seed, nodes=nodes, config=config, rounds=rounds,
                 trigger_gap=trigger_gap)
    _assert_round_trip(spec)


# ----------------------------------------------------------------------
# Fingerprint parity: the wire feeds the runner cache key
# ----------------------------------------------------------------------


def test_decoded_spec_fingerprints_identically():
    spec = _spec(seed=11)
    decoded = ExperimentSpec.from_json(spec.to_json())
    original = Task(experiment="unit", index=0, fn=run_experiment,
                    kwargs={"spec": spec}).fingerprint("salt")
    via_wire = Task(experiment="unit", index=3, fn=run_experiment,
                    kwargs={"spec": decoded}).fingerprint("salt")
    assert original == via_wire


def test_canonical_uses_the_wire_encoding_for_specs():
    spec = _spec(seed=2)
    assert canonical({"spec": spec}) == {"spec": spec_to_wire(spec)}


# ----------------------------------------------------------------------
# Frozen means frozen: canonical bytes and fingerprints recorded at the
# commit *before* the codecs became one schema table (d95d365).
# ----------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "data" / "spec_v3_golden.json"


def _golden_specs():
    config = SrmConfig(c1=1.5, d2=0.75, adaptive=True,
                       adaptive_bounds=AdaptiveBounds(c1_min=0.25))
    return {
        "recovery": _spec(seed=5, nodes=12, rounds=2, config=config,
                          experiment="golden-recovery"),
        "scoped": _spec(seed=15, kind="scoped", scoped_mode="two-step",
                        experiment="golden-scoped"),
    }


def _golden_document():
    """What ``tests/data/spec_v3_golden.json`` holds.

    Never regenerate it under ``spec/v3``: a byte that moves here moves
    every cache key and every fleet payload. A ``spec/v4`` re-records it
    with ``json.dump(_golden_document(), f, indent=1, sort_keys=True)``.
    """
    document = {}
    for name, spec in _golden_specs().items():
        task = Task(experiment=spec.experiment, index=0, fn=run_experiment,
                    kwargs={"spec": spec})
        document[name] = {"spec": spec.to_json(),
                          "fingerprint": task.fingerprint("golden"),
                          "result": run_experiment(spec).to_json()}
    return document


def test_canonical_bytes_and_fingerprints_match_the_recorded_golden():
    from repro.experiments.common import RunResult

    recorded = json.loads(GOLDEN.read_text())
    assert _golden_document() == recorded
    for entry in recorded.values():
        # Decoding the recorded bytes and re-encoding them is the
        # identity, so a peer's payload re-fingerprints unchanged.
        assert ExperimentSpec.from_json(entry["spec"]).to_json() \
            == entry["spec"]
        assert RunResult.from_json(entry["result"]).to_json() \
            == entry["result"]
    assert '"metrics":{' in recorded["recovery"]["result"]
    assert '"__kind__":"scoped-outcome"' in recorded["scoped"]["result"]


# ----------------------------------------------------------------------
# RunResult round-trip
# ----------------------------------------------------------------------


def test_run_result_round_trips_with_metrics():
    from repro.experiments.common import RunResult

    result = run_experiment(_spec(seed=21, rounds=2))
    decoded = RunResult.from_json(result.to_json())
    assert decoded.spec == result.spec
    assert decoded.outcomes == result.outcomes
    assert decoded.metrics.to_dict() == result.metrics.to_dict()
    assert decoded.artifacts == result.artifacts


def test_scoped_run_result_round_trips_artifacts():
    from repro.experiments.common import RunResult

    result = run_experiment(_spec(seed=15, kind="scoped",
                                  scoped_mode="two-step"))
    decoded = RunResult.from_json(result.to_json())
    assert decoded.artifacts == result.artifacts
    assert decoded.metrics is None


# ----------------------------------------------------------------------
# Rejection: the schema is frozen
# ----------------------------------------------------------------------


def test_unknown_fields_are_rejected_at_every_level():
    payload = spec_to_wire(_spec())
    top = dict(payload, surprise=1)
    with pytest.raises(WireFormatError, match="unknown field"):
        spec_from_wire(top)
    nested = json.loads(json.dumps(payload))
    nested["scenario"]["topology"]["color"] = "red"
    with pytest.raises(WireFormatError, match="unknown field"):
        spec_from_wire(nested)
    config_extra = json.loads(json.dumps(payload))
    config_extra["config"]["warp_factor"] = 9
    with pytest.raises(WireFormatError, match="unknown field"):
        spec_from_wire(config_extra)


def test_wrong_schema_version_is_rejected():
    payload = spec_to_wire(_spec())
    assert payload["schema"] == WIRE_SCHEMA == "spec/v3"
    # Older peers (whose env blocks could carry SRM_SCHED_BACKEND or a
    # worker-local knob) and any future version are refused, never
    # mis-read.
    for other in ("spec/v1", "spec/v2", "spec/v4"):
        with pytest.raises(WireFormatError, match="unsupported wire schema"):
            spec_from_wire(dict(payload, schema=other))
    without = dict(payload)
    del without["schema"]
    with pytest.raises(WireFormatError):
        spec_from_wire(without)


def test_type_mismatches_are_rejected():
    payload = json.loads(json.dumps(spec_to_wire(_spec())))
    bad_seed = json.loads(json.dumps(payload))
    bad_seed["seed"] = "seven"
    with pytest.raises(WireFormatError):
        spec_from_wire(bad_seed)
    bool_as_int = json.loads(json.dumps(payload))
    bool_as_int["rounds"] = True
    with pytest.raises(WireFormatError):
        spec_from_wire(bool_as_int)
    bad_edge = json.loads(json.dumps(payload))
    bad_edge["scenario"]["topology"]["edges"][0] = [1]
    with pytest.raises(WireFormatError):
        spec_from_wire(bad_edge)


def test_non_dict_payload_is_rejected():
    with pytest.raises(WireFormatError):
        spec_from_wire([1, 2, 3])
    with pytest.raises(WireFormatError):
        ExperimentSpec.from_json("[]")


# ----------------------------------------------------------------------
# Any JSON value either decodes or is refused as a WireFormatError
# ----------------------------------------------------------------------

@settings(max_examples=examples(300))
@given(data=st.data())
def test_mutated_payloads_round_trip_or_raise_wire_format_error(data):
    recorded = json.loads(GOLDEN.read_text())
    entry = recorded[data.draw(st.sampled_from(sorted(recorded)))]
    kind = data.draw(st.sampled_from(["spec", "result"]))
    decode, encode = {"spec": (spec_from_wire, spec_to_wire),
                      "result": (result_from_wire, result_to_wire)}[kind]
    _, mutant = draw_mutation(data, json.loads(entry[kind]))
    try:
        decoded = decode(mutant)
    except WireFormatError:
        return  # refused at the boundary, and only ever this way
    # Accepted, so it is a value the schema can carry: it survives the
    # wire unchanged — a metrics bundle included, now that it decodes
    # closed.
    assert decode(json.loads(json.dumps(encode(decoded)))) == decoded


@pytest.mark.parametrize("where, value", [
    (("metrics",), 5), (("metrics",), []),
    (("metrics", "schema"), "run-metrics/v0"),
    (("artifacts",), []),
    (("outcomes", 0, "report", "recoveries"), {"seven": {}}),
    (("outcomes", 0, "name", "seq"), 0),
    (("spec", "scenario", "topology", "edges"), 5),
    (("spec", "scenario", "topology", "edges"), [[0, 0]]),
    (("spec", "trigger_gap"), 10 ** 400),
])
def test_malformed_results_raise_wire_format_error_not_a_raw_one(where,
                                                                  value):
    # JSON a per-type decoder lets through as a raw AttributeError /
    # TypeError / bare ValueError / OverflowError from a line below the
    # boundary (or, for ``artifacts``, accepts): _decode owns every check.
    payload = json.loads(json.loads(GOLDEN.read_text())["recovery"]["result"])
    with pytest.raises(WireFormatError, match=f"^{where[0]}: "):
        result_from_wire(mutated(payload, where, "replace", value, ""))
