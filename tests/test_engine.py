"""Scenario handling, profile generation, initialization and stepping.

Uses the small fixture grids where possible; a handful of short runs on
the bundled 39-bus case cover integration-level invariants (power
bookkeeping, seed pairing, contingency handling).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import gridfreq as gf
from gridfreq.engine import (ContingencyEvent, Scenario, ScenarioError,
                             SimParams, Trajectory, build_profiles, init_system,
                             load_scenario, run_scenario, step_system)
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
        for out in (0.015, 0.005, 0.0):
            with pytest.raises(ScenarioError, match="whole multiple"):
                Scenario(name="x", case="A", duration_s=10.0, output_dt_s=out)
        Scenario(name="x", case="A", duration_s=10.0, output_dt_s=0.3)

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
                                        np.full((12, 1), 123.0)])
    def test_short_or_nonfinite_override_rejected(self, four_bus, values):
        p = quick_params(four_bus)
        sc = Scenario(name="t", case="A", duration_s=10)
        prof = replace(build_profiles(four_bus, sc, p), wind_mw={3: values})
        with pytest.raises(ProfileError, match="12 finite"):
            run_scenario(four_bus, sc, params=p, profiles=prof)

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
        from gridfreq.engine import apply_contingency
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
        commits, and the online machines' values until a trip: after every
        step of a shedding run with a trip and commits inside a second,
        what the next step reuses equals a rebuild from scratch."""
        from gridfreq.engine import apply_contingency
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
                for name in ("mw", "pu", "member_mw"):
                    np.testing.assert_array_equal(getattr(st._inj, name),
                                                  getattr(fresh, name))
            on = st.online.nonzero()[0]
            np.testing.assert_array_equal(st._on.idx, on)
            np.testing.assert_array_equal(st._on.off, ~st.online)
            for view, full in (("bus", "gen_bus"), ("b_coupling", "b_coupling"),
                               ("rating", "rating"), ("two_h", "two_h")):
                np.testing.assert_array_equal(getattr(st._on, view),
                                              getattr(st, full)[on])
        assert not st.online[[3, 5]].any()
        assert mid_second_commits >= 1

    def test_contingency_trips_and_warns_on_double_trip(self, ieee39, caplog):
        p = quick_params(ieee39)
        sc = Scenario(name="trip", case="A", duration_s=8, seed=1,
                      events=(ContingencyEvent(2.0, "G4"),
                              ContingencyEvent(3.0, "G4")))
        with caplog.at_level("WARNING"):
            tr = run_scenario(ieee39, sc, params=p)
        j = tr.gen_ids.index("G4")
        assert tr.gen_online[0, j] == 1.0
        assert tr.gen_online[-1, j] == 0.0
        assert "already offline" in caplog.text

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
        from gridfreq.engine import apply_contingency
        p = quick_params(four_bus)
        sc = Scenario(name="x", case="A", duration_s=5)
        prof = build_profiles(four_bus, sc, p)
        st = init_system(four_bus, [sc], p, [prof])
        with pytest.raises(ScenarioError, match="unknown generator"):
            apply_contingency(st, ContingencyEvent(0.0, "G77"))

    def test_frequency_drops_after_trip(self, ieee39):
        p = quick_params(ieee39, ufls_enabled=False)
        sc = Scenario(name="t", case="A", duration_s=20, seed=1,
                      events=(ContingencyEvent(5.0, "G4"),))
        tr = run_scenario(ieee39, sc, params=p)
        assert tr.min_frequency() < 59.9
        assert tr.bus_freq[0].min() > 59.999


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
        """2,501 rows span three of the export's row blocks: every cell
        reads back as its channel's value to 10 significant digits, in
        the header's interleaved column order."""
        n = 2501
        rng = np.random.default_rng(4)

        def channel(width, lo, hi):
            return rng.uniform(lo, hi, (n, width))

        tr = Trajectory(
            scenario_name="blocks", case="B", seed=0, dt_out=0.1,
            bus_ids=[1, 2, 3], gen_ids=["G1", "G2"], load_bus_ids=[2, 3],
            wind_bus_ids=[3], dispatched_bus_ids=[3],
            times=np.arange(n) * 0.1, bus_freq=channel(3, 58.0, 61.0),
            gen_p_mech=channel(2, 0.0, 1.0), gen_p_elec=channel(2, 0.0, 1.0),
            gen_speed_dev=channel(2, -0.01, 0.01), gen_online=np.ones((n, 2)),
            load_expected_mw=channel(2, 100.0, 500.0),
            load_served_mw=channel(2, 50.0, 500.0), shed_level=channel(2, 0.0, 0.5),
            wind_mw=channel(1, 0.0, 200.0), battery_mw=channel(1, -50.0, 50.0))
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
                    assert np.array_equal(getattr(tr, name), value), name
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
