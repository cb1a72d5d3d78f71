"""Tests of the benchmark's own parts: workloads, result check and tracing.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

import checks
import gridfreq
import tracing
import workloads
from conftest import ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def shedding_run():
    """A short IEEE-39 case-B run whose double trip sheds load."""
    model = gridfreq.ieee39()
    sc = gridfreq.Scenario(
        name="short", case="B", duration_s=6.0,
        events=(gridfreq.ContingencyEvent(1.0, "G4"),
                gridfreq.ContingencyEvent(1.0, "G6")))
    return model, sc, gridfreq.run_scenario(model, sc)


def _shape(plan):
    return (plan.grid, plan.export, [
        (m.scenario.case, m.scenario.duration_s, m.scenario.dt_s,
         m.scenario.output_dt_s, m.scenario.events, m.expect_shed)
        for m in plan.members])


def test_areas4_grid_is_four_connected_ieee39_copies():
    model = gridfreq.load_grid_config(workloads.areas4_grid())
    assert len(model.buses) == 156
    assert len(model.generators) == 40
    ncomp, _ = csgraph.connected_components(
        gridfreq.build_full_susceptance_matrix(model), directed=False)
    assert ncomp == 1
    ids = {g.id for g in model.generators}
    assert set(workloads.AREAS4_TRIP) <= ids


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_changes_member_seeds_not_workload_shape(name):
    one, other = workloads.plan(name, 1), workloads.plan(name, 2)
    assert _shape(one) == _shape(other)
    seeds_one = [m.scenario.seed for m in one.members]
    seeds_other = [m.scenario.seed for m in other.members]
    assert not set(seeds_one) & set(seeds_other)
    assert workloads.plan(name, 1) == one


def test_seed_one_reproduces_bundled_scenario():
    plan = workloads.plan("single_s2b", 1)
    assert plan.members[0].scenario == gridfreq.load_scenario(workloads._data("s2b.yaml"))


def test_reference_covers_every_seed_one_member():
    refs = json.loads((ROOT / "perfbench" / "reference_seed1.json").read_text())
    for name in workloads.NAMES:
        assert set(refs[name]) == {m.scenario.name
                                   for m in workloads.plan(name, 1).members}


def test_check_accepts_the_run_it_was_recorded_from(shedding_run):
    _, sc, tr = shedding_run
    summary = checks.summarize(tr)
    assert summary["r_ls"] > 0 and summary["eens_mwh"] > 0
    assert checks.check_member(tr, sc, True, summary, dict(summary)) == []


def test_check_rejects_perturbed_trajectory(shedding_run):
    _, sc, tr = shedding_run
    reference = checks.summarize(tr)
    unserved = tr.load_expected_mw - tr.load_served_mw
    bad = dataclasses.replace(
        tr, load_served_mw=tr.load_expected_mw - unserved * (1.0 + 1e-6))
    summary = checks.summarize(bad)
    assert summary["eens_mwh"] == pytest.approx(reference["eens_mwh"] * (1 + 1e-6),
                                                rel=1e-9)
    problems = checks.check_member(bad, sc, True, summary, reference)
    assert any(p.startswith("eens_mwh=") for p in problems)


def test_check_rejects_nan_residual_and_missing_shed(shedding_run):
    _, sc, tr = shedding_run
    freq = tr.bus_freq.copy()
    freq[3, 2] = np.nan
    bad = dataclasses.replace(tr, bus_freq=freq, max_residual=1e-8)
    problems = checks.check_member(bad, sc, False, checks.summarize(bad), None)
    assert "bus_freq is not finite" in problems
    assert any(p.startswith("max_residual") for p in problems)
    assert any("expect_shed=False" in p for p in problems)


def test_mismatched_pairs_flags_unequal_fingerprints():
    members = [{"pair": "S1-s1", "fingerprint": "a"},
               {"pair": "S1-s1", "fingerprint": "b"},
               {"pair": "S2-s1", "fingerprint": "c"},
               {"pair": "S2-s1", "fingerprint": "c"}]
    assert checks.mismatched_pairs(members) == {"S1-s1"}


def test_check_csv_matches_and_detects_an_edit(shedding_run, tmp_path):
    _, _, tr = shedding_run
    path = tmp_path / "trajectory.csv"
    tr.to_csv(path)
    assert checks.check_csv(path, tr) == []
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[1] = repr(float(fields[1]) + 1e-3)
    path.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    assert checks.check_csv(path, tr) == ["CSV last row differs from the trajectory"]


def test_traced_run_reports_every_per_layer_metric(shedding_run):
    model, sc, _ = shedding_run
    originals = (gridfreq.engine.step_system, gridfreq.engine.spla,
                 gridfreq.machines.hydro_governor_step)
    tracer = tracing.Tracer(True)
    with tracer.installed():
        tr = gridfreq.run_scenario(model, sc)
        try:
            gridfreq.metrics.compute_metrics(tr)
            raised = 0
        except Exception:   # AttributeError on numpy 2.x, where np.trapz is gone
            raised = 1
    assert (gridfreq.engine.step_system, gridfreq.engine.spla,
            gridfreq.machines.hydro_governor_step) == originals

    got = tracer.results()
    got["trace.overhead_frac"] = {"value": 0.0, "unit": "frac"}
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in got.items()} == declared
    value = {k: v["value"] for k, v in got.items()}
    n_steps = round(sc.duration_s / sc.dt_s)
    assert value["engine.steps"] == n_steps
    assert value["grid.solves_per_step"] == 4.0
    assert value["grid.factorizations"] == 3
    assert value["engine.trips"] == 2
    assert value["protection.relay_steps"] == n_steps * len(model.load_buses)
    assert value["protection.commits"] >= 1
    assert value["machines.steam_calls"] == 2 * n_steps
    assert value["metrics.calls"] == 1
    assert value["metrics.errors"] == raised
    assert 0 < value["engine.step_self_s"] < value["engine.step_s"]
    assert value["engine.step_us.p50"] <= value["engine.step_us.p99"]
    assert [s["name"] for s in tracer.spans] == ["init", "trip", "trip"]


def test_disabled_tracer_patches_nothing():
    before = gridfreq.engine.step_system
    with tracing.Tracer(False).installed():
        assert gridfreq.engine.step_system is before


def test_run_exits_nonzero_without_result_when_a_worker_fails():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "nope",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "unknown workload" in proc.stderr
