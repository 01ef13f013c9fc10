"""Sim-vs-live metrics cross-validation (the soak gate).

A short soak must produce a live RunMetrics bundle that agrees with the
matched simulator run within the documented tolerance — the acceptance
check behind ``repro live soak`` and the CI live-smoke job.
"""

from __future__ import annotations

import pytest

from repro.live.soak import (
    SOAK_COMPARE_KEYS,
    SoakSpec,
    run_matched_sim,
    run_soak,
    star_topology,
)


def test_star_topology_matches_the_mesh_shape():
    spec = star_topology(4)
    assert spec.num_nodes == 5
    assert spec.num_edges == spec.num_nodes - 1
    hub = spec.metadata["hub"]
    assert all(hub in edge for edge in spec.edges)


def test_matched_sim_converges_and_reports_losses():
    run = run_matched_sim(SoakSpec(members=3, packets=30, rate=60.0,
                                   loss=0.15, drain=30.0, seed=3,
                                   check=True))
    assert run.converged, run.summary()
    assert run.injected_drops > 0
    assert run.bundle.loss_events > 0
    assert run.bundle.meta["engine"] == "sim"


def test_soak_gates_live_against_sim_within_tolerance():
    spec = SoakSpec(members=3, packets=40, rate=80.0, loss=0.12,
                    drain=1.2, seed=6, check=True)
    result = run_soak(spec, tolerance=0.5)
    assert result.live.converged, result.format()
    assert result.sim.converged, result.format()
    assert result.report.ok, result.format()
    gated = {delta.key for delta in result.report.deltas}
    assert gated == set(SOAK_COMPARE_KEYS)
    # Both engines actually exercised recovery under the injected loss.
    assert result.live.injected_drops > 0
    assert result.sim.injected_drops > 0
    assert result.live.bundle.meta["engine"] == "live"
    assert "recorded_unix" in result.live.bundle.meta


def test_soak_spec_validates_inputs():
    with pytest.raises(ValueError):
        SoakSpec(members=1)
    with pytest.raises(ValueError):
        SoakSpec(packets=0)
