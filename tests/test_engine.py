"""Scenario handling, profile generation, initialization and stepping.

Uses the small fixture grids where possible; a handful of short runs on
the bundled 39-bus case cover integration-level invariants (power
bookkeeping, seed pairing, contingency handling).
"""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gridfreq as gf
from gridfreq.engine import (ContingencyEvent, Scenario, ScenarioError,
                             SimParams, Trajectory, apply_contingency,
                             build_profiles, init_system, load_scenario,
                             run_scenario, step_system)
from gridfreq.grid import GridConfigError
from gridfreq.profiles import ProfileError

from tests.conftest import FLAT, four_bus_doc


def quick_params(model, **kw):
    return SimParams.from_model(model, **{**FLAT, **kw})


class TestScenario:
    def test_case_must_be_a_or_b(self):
        with pytest.raises(ScenarioError, match="case"):
            Scenario(name="x", case="C")

    def test_event_outside_horizon_rejected(self):
        with pytest.raises(ScenarioError, match="outside horizon"):
            Scenario(name="x", case="A", duration_s=10.0,
                     events=(ContingencyEvent(20.0, "G1"),))

    def test_event_that_cannot_fire_rejected(self):
        """Events fire before a step and the last step starts at
        duration - dt, so an event at the horizon would never trip."""
        with pytest.raises(ScenarioError, match="outside horizon"):
            Scenario(name="x", case="A", duration_s=2.0,
                     events=(ContingencyEvent(2.0, "G2"),))
        Scenario(name="x", case="A", duration_s=2.0,
                 events=(ContingencyEvent(1.99, "G2"),))

    def test_event_off_the_step_grid_rejected(self):
        """An event fires before a step, so its time must be one: at
        dt_s 0.01, 5 ms would fire at t = 0 and 15 ms at t = 0.02."""
        for t in (0.005, 0.015, 300.005):
            with pytest.raises(ScenarioError,
                               match=r"events\[0\]\.time_s: .* whole multiple of dt_s"):
                Scenario(name="x", case="A", events=(ContingencyEvent(t, "G1"),))
        for t in (0.0, 1.99, 2.5, 300.0):
            Scenario(name="x", case="A", events=(ContingencyEvent(t, "G1"),))
        Scenario(name="x", case="A", dt_s=0.005, events=(ContingencyEvent(0.015, "G1"),))

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(name="x", case="A", duration_s=0.0)

    @pytest.mark.parametrize("key", ["duration_s", "dt_s", "output_dt_s"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_nonfinite_step_or_horizon_rejected(self, key, value):
        with pytest.raises(ScenarioError, match="non-finite"):
            Scenario(name="x", case="A", **{key: value})
        with pytest.raises(ScenarioError, match="non-finite"):
            load_scenario({"name": "x", "case": "A", key: value})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_nonfinite_event_time_rejected(self, value):
        with pytest.raises(ScenarioError, match=r"events\[0\]\.time_s: non-finite value"):
            load_scenario({"name": "x", "case": "A",
                           "events": [{"time_s": value, "generator": "G1"}]})

    def test_negative_seed_rejected(self):
        with pytest.raises(ScenarioError, match="seed"):
            Scenario(name="x", case="A", seed=-1)
        with pytest.raises(ScenarioError, match="seed"):
            load_scenario({"name": "x", "case": "A", "seed": -1})

    @pytest.mark.parametrize("event, key", [({"generator": "G1"}, "time_s"),
                                            ({"time_s": 1.0}, "generator")])
    def test_event_missing_key_rejected(self, event, key):
        with pytest.raises(ScenarioError, match=key):
            load_scenario({"name": "x", "case": "A", "duration_s": 10.0,
                           "events": [event]})

    @pytest.mark.parametrize("doc", [{"duration_s": "long"}, {"seed": math.inf},
                                     {"events": [[1.0, "G1"]]}])
    def test_malformed_value_rejected(self, doc):
        with pytest.raises(ScenarioError):
            load_scenario({"name": "x", "case": "A", **doc})

    def test_dt_must_divide_duration(self):
        with pytest.raises(ScenarioError, match="does not divide"):
            Scenario(name="x", case="A", duration_s=10.0, dt_s=0.003)
        Scenario(name="x", case="A", duration_s=315.0, dt_s=0.005)

    def test_output_step_must_be_whole_multiple_of_dt(self):
        """output_dt_s must also divide duration_s, or the record loses its tail."""
        for out, naming in ((0.015, "whole multiple"), (0.005, "whole multiple"),
                            (0.0, "is not positive"), (-0.1, "is not positive"),
                            (0.3, "does not divide"), (20.0, "does not divide")):
            with pytest.raises(ScenarioError, match=rf"output_dt_s: .*{naming}"):
                Scenario(name="x", case="A", duration_s=10.0, output_dt_s=out)
        Scenario(name="x", case="A", duration_s=10.0, output_dt_s=0.25)

    def test_validate_against_unknown_generator(self, four_bus):
        sc = Scenario(name="x", case="A", duration_s=10.0,
                      events=(ContingencyEvent(5.0, "G9"),))
        with pytest.raises(ScenarioError, match="unknown generator"):
            sc.validate_against(four_bus)

    def test_load_scenario_from_dict_and_file(self, tmp_path):
        doc = {"name": "t", "case": "B", "duration_s": 30,
               "events": [{"time_s": 5, "generator": "G1"}]}
        sc = load_scenario(doc)
        assert sc.case == "B" and sc.events[0].generator == "G1"
        import yaml
        p = tmp_path / "sc.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert load_scenario(p) == sc

    def test_load_scenario_requires_name_and_case(self):
        with pytest.raises(ScenarioError):
            load_scenario({"name": "t"})

    def test_bundled_scenarios_valid(self, ieee39):
        from importlib.resources import files
        for name in ("s1a", "s1b", "s2a", "s2b"):
            sc = load_scenario(
                str(files("gridfreq.data").joinpath(f"{name}.yaml")))
            sc.validate_against(ieee39)
            assert sc.duration_s == 600.0
            assert all(ev.time_s == 300.0 for ev in sc.events)


class TestSimParams:
    def test_model_section_merges(self, ieee39):
        p = SimParams.from_model(ieee39)
        assert p.load_scale == 1.05
        assert p.h_hydro == 1.8

    def test_overrides_beat_model(self, ieee39):
        p = SimParams.from_model(ieee39, load_scale=0.9)
        assert p.load_scale == 0.9

    def test_unknown_model_key_rejected(self, four_bus):
        bad = gf.load_grid_config({**four_bus_doc(),
                                   "simulation": {"no_such_knob": 1}})
        with pytest.raises(GridConfigError, match=r"simulation\.no_such_knob: unknown key"):
            SimParams.from_model(bad)


class TestProfiles:
    def test_seed_pairing_fingerprints_match_across_cases(self, ieee39):
        p = SimParams.from_model(ieee39)
        a = build_profiles(ieee39, Scenario(name="a", case="A", seed=5,
                                            duration_s=30), p)
        b = build_profiles(ieee39, Scenario(name="b", case="B", seed=5,
                                            duration_s=30), p)
        assert a.fingerprint() == b.fingerprint()
        c = build_profiles(ieee39, Scenario(name="c", case="A", seed=6,
                                            duration_s=30), p)
        assert a.fingerprint() != c.fingerprint()

    def test_zero_noise_profiles_are_flat(self, four_bus):
        p = quick_params(four_bus)
        sc = Scenario(name="t", case="A", duration_s=20)
        prof = build_profiles(four_bus, sc, p)
        assert np.ptp(prof.wind_mw[3]) == 0.0
        assert np.ptp(prof.load_mw[4]) == 0.0
        assert prof.wind_mw[3][0] == 200.0 * p.wind_schedule_pu
        assert prof.load_mw[4][0] == 300.0 * p.load_scale

    def test_overrides_bypass_synthesis(self, four_bus):
        """A run steps on the profiles it is given, not on synthesized ones."""
        p = quick_params(four_bus)
        sc = Scenario(name="t", case="A", duration_s=10)
        prof = replace(build_profiles(four_bus, sc, p),
                       wind_mw={3: np.full(12, 123.0)})
        tr = run_scenario(four_bus, sc, params=p, profiles=prof)
        assert np.all(tr.wind_mw == 123.0)

    @pytest.mark.parametrize("values", [np.full(11, 123.0),
                                        np.r_[np.full(11, 123.0), np.nan],
                                        np.full((12, 1), 123.0),
                                        pytest.param(None, id="missing")])
    def test_short_or_nonfinite_override_rejected(self, four_bus, values):
        """Every series a case-B run steps on, the wind, load and tracking
        error of dispatched bus 3 alike, is checked before the first step,
        and the error names it."""
        p = quick_params(four_bus)
        sc = Scenario(name="t", case="B", duration_s=10)
        prof, bus = build_profiles(four_bus, sc, p), 3
        for kind in ("wind_mw", "load_mw", "battery_eps"):
            series = {b: v for b, v in getattr(prof, kind).items() if b != bus}
            if values is not None:
                series[bus] = values
            why = "missing" if values is None else "needs 12 finite"
            with pytest.raises(ProfileError, match=rf"profiles\.{kind}\[{bus}\]: {why}"):
                init_system(four_bus, [sc], p, [replace(prof, **{kind: series})])

    def test_list_series_rejected(self, four_bus):
        """A series given as a list, not a 1-D array, is named before the
        first step."""
        p = quick_params(four_bus)
        sc = Scenario(name="t", case="A", duration_s=10)
        prof = replace(build_profiles(four_bus, sc, p), wind_mw={3: [123.0] * 12})
        with pytest.raises(ProfileError,
                           match=r"profiles\.wind_mw\[3\]: needs 12 finite .*, got list$"):
            init_system(four_bus, [sc], p, [prof])

    def test_eps_streams_only_on_dispatched_buses(self, four_bus):
        p = SimParams.from_model(four_bus)
        prof = build_profiles(four_bus, Scenario(name="t", case="A",
                                                 duration_s=10), p)
        assert set(prof.battery_eps) == {3}


class TestInitAndStep:
    def test_equilibrium_is_exact(self, four_bus):
        """No events, flat profiles: machines must hold speed to
        round-off over hundreds of steps."""
        p = quick_params(four_bus)
        sc = Scenario(name="eq", case="A", duration_s=5)
        prof = build_profiles(four_bus, sc, p)
        st = init_system(four_bus, [sc], p, [prof])
        for _ in range(500):
            step_system(st)
        assert np.max(np.abs(st.speed_dev)) < 1e-12
        assert st.max_residual < 1e-9

    def test_generator_key_of_other_kind_rejected(self):
        """A generator entry takes id, bus, type and rating_mva only; any
        other key, machine parameters included, stops the grid at load,
        naming the entry and the key."""
        for gen, key in ((0, "kpp"), (1, "t_reheat"), (1, "kd"), (1, "t_filter"),
                         (1, "droop_on_power"), (0, "h"), (1, "d"),
                         (0, "coupling_x"), (1, "kp"), (0, "t_reheat"),
                         (1, "a_t")):
            doc = four_bus_doc()
            doc["generators"][gen][key] = 2.0
            with pytest.raises(GridConfigError,
                               match=rf"generators\[{gen}\]\.{key}: unknown key"):
                gf.load_grid_config(doc)

    def test_wind_exceeding_load_rejected(self, four_bus):
        p = quick_params(four_bus, wind_schedule_pu=1.0, load_scale=0.01)
        sc = Scenario(name="x", case="A", duration_s=5)
        prof = build_profiles(four_bus, sc, p)
        with pytest.raises(ScenarioError, match="wind exceeds"):
            init_system(four_bus, [sc], p, [prof])

    def test_power_bookkeeping_lossless(self, ieee39):
        """Machine generation balances wind + battery - served load at
        every step (DC network conserves power): < 1e-9 p.u. of base."""
        p = SimParams.from_model(ieee39)
        sc = Scenario(name="bk", case="B", duration_s=10, seed=3)
        prof = build_profiles(ieee39, sc, p)
        st = init_system(ieee39, [sc], p, [prof])
        worst = 0.0
        for k in range(1000):
            if k == 400:
                apply_contingency(st, ContingencyEvent(4.0, "G7"))
            rec = step_system(st)
            worst = max(worst, abs(rec["balance_mw"]))
        assert worst < 1e-9 * ieee39.base_mva

    def test_cached_values_match_a_rebuild_after_every_step(self, ieee39):
        """A step reuses the injections of its profile second until a relay
        commits: after every step of a shedding run with a trip and commits
        inside a second, what the next step reuses equals a rebuild from
        scratch."""
        p = SimParams.from_model(ieee39)
        sc = Scenario(name="c", case="B", duration_s=8, seed=1)
        st = init_system(ieee39, [sc], p, [build_profiles(ieee39, sc, p)])
        mid_second_commits = 0
        for k in range(sc.n_steps):
            if k == 250:                    # at 2.5 s, inside second 2
                for g in ("G4", "G6"):
                    apply_contingency(st, ContingencyEvent(2.5, g))
            levels, sec = st.shed_levels(), int(st.clock)
            step_system(st)
            if sec == int(st.clock) and not np.array_equal(st.shed_levels(), levels):
                mid_second_commits += 1
            if st._inj is not None and st._inj.sec == int(st.clock):
                fresh = st.injections(int(st.clock))
                for name in ("pu", "member_mw"):
                    np.testing.assert_array_equal(getattr(st._inj, name),
                                                  getattr(fresh, name))
        assert not st.online[[3, 5]].any()
        assert mid_second_commits >= 1

    def test_contingency_trips_and_a_second_trip_raises(self, ieee39):
        """A schedule names each unit once: a second trip of a unit that is
        already offline is rejected when the scenario is made, not mid-run."""
        p = quick_params(ieee39)
        with pytest.raises(ScenarioError,
                           match=r"scenario\.events\[1\]\.generator: G4 is tripped"):
            Scenario(name="trip", case="A", duration_s=8, seed=1,
                     events=(ContingencyEvent(2.0, "G4"), ContingencyEvent(3.0, "G4")))
        sc = Scenario(name="trip", case="A", duration_s=8, seed=1,
                      events=(ContingencyEvent(2.0, "G4"),))
        tr = run_scenario(ieee39, sc, params=p)
        j = tr.gen_ids.index("G4")
        assert tr.gen_online.dtype == bool
        assert tr.gen_online[0, j] == 1.0
        assert tr.gen_online[-1, j] == 0.0

    def test_trip_before_first_step(self, four_bus):
        """G2 is the only hydro unit and trips before any governor step
        has run; its governor keeps stepping, and its mechanical power
        must read zero from the first step on."""
        sc = Scenario(name="t0", case="B", duration_s=2,
                      events=(ContingencyEvent(0.0, "G2"),))
        tr = run_scenario(four_bus, sc, params=quick_params(four_bus))
        g2 = tr.gen_ids.index("G2")
        assert np.all(tr.gen_online[1:, g2] == 0.0)
        assert np.all(tr.gen_p_mech[1:, g2] == 0.0)
        assert np.all(np.isfinite(tr.bus_freq))

    def test_unknown_generator_trip_raises(self, four_bus):
        """A run rejects the unknown unit before its first step; a direct
        trip of it fails at the id lookup."""
        p = quick_params(four_bus)
        sc = Scenario(name="x", case="A", duration_s=5,
                      events=(ContingencyEvent(1.0, "G77"),))
        with pytest.raises(ScenarioError, match="unknown generator G77"):
            run_scenario(four_bus, sc, params=p)
        sc = Scenario(name="x", case="A", duration_s=5)
        st = init_system(four_bus, [sc], p, [build_profiles(four_bus, sc, p)])
        with pytest.raises(ValueError):
            apply_contingency(st, ContingencyEvent(0.0, "G77"))

    def test_frequency_drops_after_trip(self, ieee39):
        p = quick_params(ieee39, ufls_enabled=False)
        sc = Scenario(name="t", case="A", duration_s=20, seed=1,
                      events=(ContingencyEvent(5.0, "G4"),))
        tr = run_scenario(ieee39, sc, params=p)
        assert tr.min_frequency() < 59.9
        assert tr.bus_freq[0].min() > 59.999


def synthetic_trajectory(n: int, n_bus: int, n_gen: int, n_load: int, n_wind: int,
                         n_dispatched: int) -> Trajectory:
    """A ``Trajectory`` of ``n`` random rows; loads, wind farms and
    dispatched units sit on the last buses."""
    rng = np.random.default_rng(4)

    def channel(width, lo, hi):
        return rng.uniform(lo, hi, (n, width))

    bus_ids = list(range(1, n_bus + 1))
    return Trajectory(
        scenario_name="synthetic", case="B", seed=0, dt_out=0.1, bus_ids=bus_ids,
        gen_ids=[f"G{i}" for i in range(1, n_gen + 1)],
        load_bus_ids=bus_ids[n_bus - n_load:], wind_bus_ids=bus_ids[n_bus - n_wind:],
        dispatched_bus_ids=bus_ids[n_bus - n_dispatched:],
        times=np.arange(n) * 0.1, bus_freq=channel(n_bus, 58.0, 61.0),
        gen_p_mech=channel(n_gen, 0.0, 1.0), gen_p_elec=channel(n_gen, 0.0, 1.0),
        gen_speed_dev=channel(n_gen, -0.01, 0.01),
        gen_online=np.ones((n, n_gen), bool),
        load_expected_mw=channel(n_load, 100.0, 500.0),
        load_served_mw=channel(n_load, 50.0, 500.0),
        shed_level=channel(n_load, 0.0, 0.5), wind_mw=channel(n_wind, 0.0, 200.0),
        battery_mw=channel(n_dispatched, -50.0, 50.0))


class TestTrajectory:
    def test_shapes_and_grid(self, four_bus):
        p = quick_params(four_bus)
        sc = Scenario(name="t", case="A", duration_s=4, dt_s=0.01,
                      output_dt_s=0.1)
        tr = run_scenario(four_bus, sc, params=p)
        assert tr.times.shape == (41,)
        assert np.allclose(np.diff(tr.times), 0.1)
        assert tr.bus_freq.shape == (41, 4)
        assert tr.load_expected_mw.shape == (41, 2)

    def test_zero_contingency_zero_shed(self, four_bus):
        from gridfreq.metrics import compute_metrics
        p = quick_params(four_bus)
        sc = Scenario(name="quiet", case="A", duration_s=10)
        tr = run_scenario(four_bus, sc, params=p)
        m = compute_metrics(tr)
        assert m.r_ls == 0.0
        assert m.t_ls_s == 0.0
        assert m.eens_mwh == 0.0
        assert np.all(tr.shed_level == 0.0)

    def test_csv_export(self, four_bus, tmp_path):
        p = quick_params(four_bus)
        sc = Scenario(name="t", case="B", duration_s=2)
        tr = run_scenario(four_bus, sc, params=p)
        out = tmp_path / "traj.csv"
        tr.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("time,f_bus1")
        assert len(lines) == 22

    def test_csv_export_across_row_blocks(self, tmp_path):
        """2,501 rows span 26 of the export's 100-row blocks, the last one
        row long: every cell reads back as its channel's value to 10
        significant digits, in the header's interleaved column order."""
        tr = synthetic_trajectory(2501, n_bus=3, n_gen=2, n_load=2, n_wind=1,
                                  n_dispatched=1)
        out = tmp_path / "traj.csv"
        tr.to_csv(out)
        assert out.read_text().split("\n", 1)[0] == ",".join(
            ["time", "f_bus1", "f_bus2", "f_bus3",
             "G1_pm", "G1_pe", "G1_dw", "G2_pm", "G2_pe", "G2_dw",
             "load2_expected", "load2_served", "load2_shed",
             "load3_expected", "load3_served", "load3_shed", "wind3", "bat3"])
        want = np.column_stack(
            [tr.times, tr.bus_freq]
            + [a[:, j] for j in range(2)
               for a in (tr.gen_p_mech, tr.gen_p_elec, tr.gen_speed_dev)]
            + [a[:, j] for j in range(2)
               for a in (tr.load_expected_mw, tr.load_served_mw, tr.shed_level)]
            + [tr.wind_mw, tr.battery_mw])
        got = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(got, np.char.mod("%.10g", want).astype(float))

    def test_csv_export_holds_one_row_block_not_the_table(self, tmp_path):
        """At IEEE-39's 152 columns, 2,000 rows are a 2.4 MB table; the
        export's traced allocation peak stays below 1 MB, so it adds a
        fixed buffer to a run's peak memory at any horizon."""
        tr = synthetic_trajectory(2000, n_bus=39, n_gen=10, n_load=19, n_wind=4,
                                  n_dispatched=21)
        tracemalloc.start()
        try:
            tr.to_csv(tmp_path / "traj.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, f"export peaked at {peak / 1e6:.2f} MB"


class TestEnsemble:
    def test_members_match_their_solo_runs_bit_for_bit(self, ieee39):
        """Mixed seeds and cases through one batch, with a double trip
        that sheds load: every member equals its own run_scenario."""
        p = SimParams.from_model(ieee39)
        scenarios = [Scenario(name=f"e{case}{seed}", case=case, seed=seed,
                              duration_s=12.0,
                              events=(ContingencyEvent(2.0, "G4"),
                                      ContingencyEvent(2.0, "G6")))
                     for seed in (1, 2) for case in "AB"]
        batch = gf.run_ensemble(ieee39, scenarios, params=p)
        assert [tr.scenario_name for tr in batch] == [sc.name for sc in scenarios]
        assert max(tr.shed_level.max() for tr in batch) > 0.0
        for sc, tr in zip(scenarios, batch):
            solo = run_scenario(ieee39, sc, params=p)
            for name, value in vars(solo).items():
                if isinstance(value, np.ndarray):
                    # tobytes, not array_equal, which takes -0.0 for 0.0
                    got = getattr(tr, name)
                    assert (got.dtype, got.tobytes()) == (value.dtype, value.tobytes()), name
                else:
                    assert getattr(tr, name) == value, name

    def test_init_rejects_members_that_cannot_share_a_step(self, four_bus):
        """init_system itself checks the members against one schedule and
        the grid, not only run_ensemble."""
        p = quick_params(four_bus)
        for scenarios in ([Scenario(name="a", case="A", duration_s=2.0, dt_s=0.01),
                           Scenario(name="b", case="B", duration_s=2.0, dt_s=0.02)],
                          [Scenario(name="a", case="A", duration_s=2.0),
                           Scenario(name="b", case="B", duration_s=4.0)]):
            profiles = [build_profiles(four_bus, sc, p) for sc in scenarios]
            with pytest.raises(ScenarioError, match="same events"):
                init_system(four_bus, scenarios, p, profiles)
        sc = Scenario(name="x", case="A", duration_s=2.0,
                      events=(ContingencyEvent(1.0, "G9"),))
        with pytest.raises(ScenarioError, match="unknown generator"):
            init_system(four_bus, [sc], p, [build_profiles(four_bus, sc, p)])

    def test_members_need_one_schedule(self, four_bus):
        p = quick_params(four_bus)
        same = Scenario(name="a", case="A", duration_s=2)
        for other in (Scenario(name="b", case="B", duration_s=3),
                      Scenario(name="b", case="B", duration_s=2,
                               events=(ContingencyEvent(1.0, "G2"),))):
            with pytest.raises(ScenarioError, match="same events"):
                gf.run_ensemble(four_bus, [same, other], params=p)
        with pytest.raises(ScenarioError, match="at least one"):
            gf.run_ensemble(four_bus, [], params=p)
        profiles = [build_profiles(four_bus, same, p)]
        with pytest.raises(ScenarioError, match="one per member"):
            gf.run_ensemble(four_bus, [same, same], params=p, profiles=profiles)


def test_a_run_loads_no_scipy():
    """The network is solved with numpy alone: importing gridfreq and
    running a scenario leave no scipy module loaded."""
    code = ("import sys\n"
            "import gridfreq as gf\n"
            "gf.run_scenario(gf.ieee39(), gf.Scenario(name='t', case='B', duration_s=1.0))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = str(Path(gf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
