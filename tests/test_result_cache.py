"""The result cache stores spec/v3 JSON, and its bytes are pinned.

A cache entry is the canonical JSON of one :class:`RunResult`, the same
bytes a fleet worker reports. ``tests/data/result_v3_golden.json`` was
recorded when entries were still pickles, so it pins what a cache entry
says about a result independently of the cache's own code: the three
results below must encode to those bytes, decode back to equal results,
and be what ``ResultCache.put`` writes to disk.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import RunResult
from repro.runner import ResultCache

from conftest import draw_mutation, examples

GOLDEN = Path(__file__).parent / "data" / "result_v3_golden.json"


class _Keep:
    """Stands in for ExperimentRunner: runs a sweep in place, keeps it."""

    def map(self, experiment, fn, kwargs_list):
        self.results = [fn(**kwargs) for kwargs in kwargs_list]
        return self.results


def golden_results():
    """A recovery result with metrics on a small chain, a herd-engine
    result, and a scoped figure15 result with artifacts."""
    from repro.experiments.common import (ExperimentSpec, choose_scenario,
                                          run_experiment)
    from repro.experiments.figure15 import run_figure15
    from repro.experiments.scaling import star_scaling_scenario
    from repro.sim.rng import RandomSource
    from repro.topology.chain import chain

    recovery = run_experiment(ExperimentSpec(
        scenario=choose_scenario(chain(6), session_size=5,
                                 rng=RandomSource(4)),
        rounds=2, seed=4, experiment="golden-chain"))
    herd = run_experiment(ExperimentSpec(
        scenario=star_scaling_scenario(12), rounds=2, seed=9,
        engine="herd", experiment="golden-herd"))
    keep = _Keep()
    run_figure15(sizes=(12,), sims=1, num_nodes=60, seed=15, runner=keep)
    return {"recovery": recovery, "herd": herd, "scoped": keep.results[0]}


def golden_document():
    """What ``tests/data/result_v3_golden.json`` holds: each result's
    canonical spec/v3 JSON. Never regenerate it under ``spec/v3``; a
    ``spec/v4`` re-records it with ``json.dump(golden_document(), f,
    indent=1, sort_keys=True)``."""
    from repro.fleet.wire import result_to_json

    return {name: result_to_json(result)
            for name, result in golden_results().items()}


KEY = "ab" + "0" * 62


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def results():
    return golden_results()


def test_results_encode_to_the_recorded_bytes(recorded, results):
    assert golden_document() == recorded
    assert json.loads(recorded["recovery"])["metrics"]["recovery_ratios"]
    assert json.loads(recorded["herd"])["spec"]["engine"] == "herd"
    assert json.loads(recorded["scoped"])["artifacts"]["scoped"]


@pytest.mark.parametrize("name", ["recovery", "herd", "scoped"])
def test_a_cache_entry_is_the_recorded_bytes(name, recorded, results,
                                             tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(KEY, results[name])
    assert cache.path_for(KEY).read_text() == recorded[name]
    hit, value = cache.get(KEY)
    assert hit and value == results[name]
    # A decoded entry re-encodes to its own bytes.
    assert value.to_json() == recorded[name]


def test_foreign_and_pickled_entries_are_never_read(results, tmp_path):
    cache = ResultCache(tmp_path)
    cache.path_for(KEY).parent.mkdir(parents=True)
    cache.path_for(KEY).with_suffix(".pkl").write_bytes(b"\x80\x04K*.")
    assert cache.get(KEY) == (False, None)
    foreign = dict(results["recovery"].to_wire(), schema="spec/v4")
    cache.path_for(KEY).write_text(json.dumps(foreign))
    assert cache.get(KEY) == (False, None)
    assert not cache.path_for(KEY).exists()
    assert cache.path_for(KEY).with_suffix(".pkl").exists()
    assert (cache.hits, cache.misses) == (0, 2)


def _stored_mutants(data, recorded):
    """The bytes of one recorded entry, truncated or with one JSON node
    changed."""
    text = recorded[data.draw(st.sampled_from(sorted(recorded)))]
    if data.draw(st.booleans()):
        return text.encode()[:data.draw(st.integers(0, len(text) - 1))]
    _, mutant = draw_mutation(data, json.loads(text))
    return json.dumps(mutant).encode()


@settings(max_examples=examples(200))
@given(data=st.data())
def test_a_stored_entry_loads_or_is_a_counted_miss(data, recorded,
                                                   tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("cache"))
    stored = _stored_mutants(data, recorded)
    path = cache.path_for(KEY)
    path.parent.mkdir(parents=True)
    path.write_bytes(stored)
    hit, value = cache.get(KEY)
    if hit:
        # It decoded, so it is a RunResult the cache can store again.
        assert (cache.hits, cache.misses) == (1, 0)
        assert isinstance(value, RunResult)
        assert RunResult.from_json(value.to_json()) == value
        assert path.read_bytes() == stored
    else:
        assert (cache.hits, cache.misses) == (0, 1)
        assert value is None and not path.exists()
