"""End-to-end acceptance suite.

Covers: the aggregate droop law against its analytic value, the
centre-of-inertia identity against a one-machine grid, exact relay
staircase behavior over randomized traces, resampler statistics, the
dispatched-bus compensation identity, metric oracles, qualitative
reproduction of the bundled contingency study's orderings, numerical
hygiene (step-halving, equilibrium drift, solve residuals) and byte
determinism.
"""

import dataclasses
import json
import time
from importlib.resources import files

import numpy as np
import pytest

import gridfreq as gf
from gridfreq.engine import (ContingencyEvent, Scenario, SimParams,
                             build_profiles, load_scenario, run_ensemble,
                             run_scenario)
from gridfreq.metrics import compute_metrics, export_results
from gridfreq.profiles import resample_wind
from gridfreq.protection import SHED_LEVELS, UflsRelayState, ufls_step

from tests.conftest import FLAT, two_bus_doc


# ---------------------------------------------------------------------------
# 1. aggregate dynamics: droop law and centre of inertia
# ---------------------------------------------------------------------------

class TestDroopLaw:
    def test_load_step_settles_on_aggregate_droop_value(self):
        """Single-area system, 10% load step, shedding disabled, no
        damping, ample reserve: steady-state frequency deviation must
        match Delta_f / f0 = -Delta_P / sum(P_base_i / R_i) within 1%."""
        t0 = time.monotonic()
        model = gf.load_grid_config({
            "base_mva": 100.0, "f0": 60.0, "slack_bus": 1,
            "generators": [
                {"id": "G1", "bus": 1, "type": "thermal", "rating_mva": 1000.0},
                {"id": "G2", "bus": 2, "type": "thermal", "rating_mva": 1000.0},
            ],
            "buses": [{"id": 1}, {"id": 2}, {"id": 3, "load_mw": 900.0}],
            "lines": [{"from": 1, "to": 3, "x": 0.02},
                      {"from": 2, "to": 3, "x": 0.02}],
        })
        params = SimParams.from_model(
            model, damping=0.0, ufls_enabled=False, reserve_fraction=5.0,
            droop=0.05, **FLAT)
        load = np.full(92, 900.0)               # 1 s samples, horizon + 2
        load[10:] = 990.0                       # +10% step at t = 10 s
        sc = Scenario(name="droop", case="A", duration_s=90.0)
        profiles = dataclasses.replace(build_profiles(model, sc, params),
                                       load_mw={3: load})
        tr = run_scenario(model, sc, params=params, profiles=profiles)
        f_end = tr.bus_freq[-1].mean()
        dp = 90.0
        sum_base_over_r = 2 * 1000.0 / 0.05
        df_want = -dp / sum_base_over_r * 60.0
        assert f_end - 60.0 == pytest.approx(df_want, rel=0.01)
        assert time.monotonic() - t0 < 5.0


def _speed_after_load_step(doc, step):
    """``gen_speed_dev`` of a 40-s run whose one load steps up by the
    fraction ``step`` at 10 s, with flat profiles, relays off and ample
    reserve."""
    model = gf.load_grid_config(doc)
    params = SimParams.from_model(model, ufls_enabled=False,
                                  reserve_fraction=5.0, **FLAT)
    sc = Scenario(name="coi", case="A", duration_s=40.0)
    (bus,) = model.load_buses
    load = np.full(42, bus.load_mw)
    load[10:] *= 1.0 + step
    profiles = dataclasses.replace(build_profiles(model, sc, params),
                                   load_mw={bus.id: load})
    return run_scenario(model, sc, params=params, profiles=profiles).gen_speed_dev


class TestCentreOfInertia:
    """Units of one kind with equal per-unit parameters: their
    inertia-weighted mean speed obeys the one-machine equation with the
    summed rating, whatever the network between them.  The swing, the
    governor lags and RK4 are linear and the network sums the electrical
    power to the load at every stage, so the identity is exact up to
    rounding; only the hydro turbine's (q/G)^2 head and the steam valve's
    rate limit (which a 1 % step does not reach) break it."""

    RATINGS = (1000.0, 600.0, 400.0)

    def _coi_error(self, kind, step):
        three = {
            "base_mva": 100.0, "f0": 60.0, "slack_bus": 1,
            "generators": [
                {"id": f"G{i}", "bus": i, "type": kind, "rating_mva": s}
                for i, s in enumerate(self.RATINGS, start=1)],
            "buses": [{"id": 1}, {"id": 2}, {"id": 3},
                      {"id": 4, "load_mw": 900.0}],
            "lines": [{"from": 1, "to": 4, "x": 0.02},
                      {"from": 2, "to": 4, "x": 0.04},
                      {"from": 3, "to": 4, "x": 0.06},
                      {"from": 1, "to": 2, "x": 0.05}],
        }
        s = np.array(self.RATINGS)
        coi = _speed_after_load_step(three, step) @ s / s.sum()
        one = _speed_after_load_step(
            two_bus_doc(rating=s.sum(), load=900.0, kind=kind), step)
        assert np.abs(one).max() > 0.01 * step      # the step reached the units
        return np.abs(coi - one[:, 0]).max()

    def test_thermal_coi_matches_one_machine(self):
        assert self._coi_error("thermal", 0.01) <= 1e-14

    def test_hydro_coi_error_scales_with_square_of_step(self):
        """Measured 1.07e-13 at a 1 % step and 1.22e-15 at 0.1 %: a ratio
        of 88, where rounding alone would give about 1 and a coupling
        error linear in the step about 10."""
        ratio = self._coi_error("hydro", 0.01) / self._coi_error("hydro", 0.001)
        assert 30.0 <= ratio <= 300.0


# ---------------------------------------------------------------------------
# 2. relay exactness over randomized traces
# ---------------------------------------------------------------------------

def _reference_relay_trace(freqs, dt, f0=60.0, start=(0.0, None, 0.0)):
    """Independent table-driven automaton producing (level, candidate,
    timer) after each sample, from the state ``start``; a deeper level
    commits after 0.15 s, a restored one after 10 s."""
    level, cand, timer = start
    out = []
    for f in freqs:
        if f < f0 - 1.0:
            tgt = level
            for off, lv in ((1.0, 0.05), (1.2, 0.15), (1.4, 0.25),
                            (1.6, 0.35), (1.8, 0.45), (2.0, 0.50)):
                if f <= f0 - off:
                    tgt = max(level, lv)
        elif f >= f0 - 0.25:
            tgt = min(level, 0.0)
        elif f >= f0 - 0.5:
            tgt = min(level, 0.05)
        elif f >= f0 - 0.75:
            tgt = min(level, 0.15)
        else:
            tgt = level
        if tgt == level:
            cand, timer = None, 0.0
        elif tgt != cand:
            cand, timer = tgt, dt
        else:
            timer += dt
            if timer >= (0.15 if tgt > level else 10.0) - 1e-12:
                level, cand, timer = tgt, None, 0.0
        out.append((level, cand, timer))
    return out


def _commits(start_level: float, want: list) -> tuple[bool, bool]:
    """Whether a reference trace commits a deeper and a restored level."""
    levels = [start_level] + [lv for lv, _, _ in want]
    steps = list(zip(levels, levels[1:]))
    return any(b > a for a, b in steps), any(b < a for a, b in steps)


class TestRelayExactness:
    """The step ``dt`` is drawn per trace, up to 0.1 s, so that a trace of
    a few hundred steps lasts long enough for the 10-s restoration pickup
    to commit, as well as the 0.15-s shed pickup."""

    def test_thousand_randomized_traces_zero_violations(self):
        rng = np.random.default_rng(99)
        both = 0
        for _ in range(1000):
            dt = float(rng.uniform(0.01, 0.1))
            n = int(rng.integers(200, 400))
            # random-walk frequency covering all staircase bands
            f = 60.0 + np.cumsum(rng.normal(0.0, 0.15, size=n))
            f = np.clip(f, 57.5, 61.0)
            relay = UflsRelayState(f0=60.0)
            want = _reference_relay_trace(f, dt)
            for k, fk in enumerate(f):
                relay = ufls_step(relay, float(fk), dt)
                assert (relay.level, relay.candidate, relay.timer) == want[k]
                assert relay.level in SHED_LEVELS
            both += all(_commits(0.0, want))
        assert both >= 20      # traces that shed and then restore

    def test_randomized_traces_from_any_start_state(self):
        """Traces from a drawn (level, candidate, timer): a pending
        candidate or a committed level, with or without a running timer
        (a timer without a candidate too), so every transition out of
        each state is reached, not only those a trace from rest reaches."""
        rng = np.random.default_rng(7)
        sheds = restores = 0
        for _ in range(1000):
            dt = float(rng.uniform(0.02, 0.1))
            level = float(rng.choice(SHED_LEVELS))
            others = [lv for lv in SHED_LEVELS if lv != level]
            cand = None if rng.random() < 0.4 else float(rng.choice(others))
            # a running timer on the scale of the shed or the restore delay
            timer = 0.0 if rng.random() < 0.3 else float(
                rng.uniform(0.0, rng.choice([0.2, 10.0])))
            n = int(rng.integers(100, 300))
            f = 60.0 + float(rng.uniform(-2.5, 1.0)) + np.cumsum(
                rng.normal(0.0, 0.1, size=n))
            f = np.clip(f, 57.5, 61.0)
            relay = UflsRelayState(f0=60.0, level=level, candidate=cand, timer=timer)
            want = _reference_relay_trace(f, dt, start=(level, cand, timer))
            for k, fk in enumerate(f):
                relay = ufls_step(relay, float(fk), dt)
                assert (relay.level, relay.candidate, relay.timer) == want[k]
            shed, restore = _commits(level, want)
            sheds, restores = sheds + shed, restores + restore
        assert sheds >= 100 and restores >= 100


# ---------------------------------------------------------------------------
# 3. wind resampler statistics
# ---------------------------------------------------------------------------

class TestResampler:
    def test_statistics_and_determinism(self):
        t0 = time.monotonic()
        # sigma = 0: exact minute interpolation (telescoping sum)
        out = resample_wind([0.3, 0.9, 0.6, 0.7], 0.0, 0)
        grid = np.arange(181)
        want = np.interp(grid, [0, 60, 120, 180], [0.3, 0.9, 0.6, 0.7])
        assert np.allclose(out, want, atol=1e-12)

        # sigma > 0: Monte-Carlo mean-displacement test at 3 sigma
        mins = np.array([0.3, 0.6])
        sigma, n_seeds = 0.004, 1000
        ends = np.empty(n_seeds)
        for seed in range(n_seeds):
            ends[seed] = resample_wind(mins, sigma, seed)[60]
        se = sigma * np.sqrt(60.0 / n_seeds)
        assert abs(ends.mean() - 0.6) < 3.0 * se

        # bit-determinism per seed
        a = resample_wind(mins, sigma, 123)
        b = resample_wind(mins, sigma, 123)
        assert a.tobytes() == b.tobytes()
        assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# 4. dispatched-bus compensation identity
# ---------------------------------------------------------------------------

def ideal_tracking(model, sc, params):
    """The scenario's profiles with the battery tracking error set to zero."""
    prof = build_profiles(model, sc, params)
    return dataclasses.replace(prof, battery_eps={
        bus: np.zeros_like(eps) for bus, eps in prof.battery_eps.items()})


class TestDispatchIdentity:
    def test_net_injection_equals_schedule_under_ideal_tracking(self, ieee39):
        """Case B with zero tracking error: every dispatched bus's net
        injection sits on its schedule at every second, to 1e-9 MW."""
        params = SimParams.from_model(ieee39)
        sc = Scenario(name="ident", case="B", duration_s=30, seed=7)
        prof = ideal_tracking(ieee39, sc, params)
        from gridfreq.dispatch import ideal_battery_injection
        checked = 0
        for b in ieee39.buses:
            if not b.dispatched:
                continue
            w_sched = (b.wind_mw or 0.0) * params.wind_schedule_pu
            l_sched = (b.load_mw or 0.0) * params.load_scale
            for sec in range(30):
                w_ts = prof.wind_mw[b.id][sec] if b.id in prof.wind_mw else 0.0
                l_ts = prof.load_mw[b.id][sec] if b.id in prof.load_mw else 0.0
                bat = ideal_battery_injection(w_sched, l_sched, w_ts, l_ts)
                bat *= 1.0 + prof.battery_eps[b.id][sec]
                net = w_ts - l_ts + bat
                assert abs(net - (w_sched - l_sched)) < 1e-9
                checked += 1
        n_dispatched = sum(1 for b in ieee39.buses if b.dispatched)
        assert checked == 30 * n_dispatched
        assert n_dispatched >= 19

    def test_trajectory_batteries_track_schedule(self, ieee39):
        """Same identity read back from a recorded run."""
        params = SimParams.from_model(ieee39)
        sc = Scenario(name="ident2", case="B", duration_s=10, seed=11)
        tr = run_scenario(ieee39, sc, params=params,
                          profiles=ideal_tracking(ieee39, sc, params))
        sched = {}
        for b in ieee39.buses:
            if b.dispatched:
                w = (b.wind_mw or 0.0) * params.wind_schedule_pu
                l = (b.load_mw or 0.0) * params.load_scale
                sched[b.id] = w - l
        wind_col = {bid: j for j, bid in enumerate(tr.wind_bus_ids)}
        load_col = {bid: j for j, bid in enumerate(tr.load_bus_ids)}
        for j, bid in enumerate(tr.dispatched_bus_ids):
            w = (tr.wind_mw[:, wind_col[bid]] if bid in wind_col else 0.0)
            l = (tr.load_served_mw[:, load_col[bid]] if bid in load_col else 0.0)
            net = w - l + tr.battery_mw[:, j]
            assert np.max(np.abs(net - sched[bid])) < 1e-9


# ---------------------------------------------------------------------------
# 5. metric oracles
# ---------------------------------------------------------------------------

class TestMetricOracles:
    def _traj(self, t, expected, served, shed):
        from tests.test_metrics import make_traj
        return make_traj(t, expected, served, shed)

    def test_hand_constructed_traces_match_oracles(self):
        t = np.arange(61.0)
        expected = np.full(61, 500.0)
        shed = np.zeros(61)
        shed[10:25] = 0.05
        shed[40:50] = 0.15
        served = expected * (1 - shed)
        m = compute_metrics(self._traj(t, expected, served, shed))
        want_eens = float(np.trapezoid(expected - served, t)) / 3600.0
        assert abs(m.eens_mwh - want_eens) <= 1e-9 * max(want_eens, 1.0)
        assert m.r_ls == pytest.approx(0.15, abs=1e-12)
        assert m.t_ls_s == pytest.approx(25.0, abs=1e-12)

    def test_eens_additive_under_arbitrary_splits(self):
        rng = np.random.default_rng(8)
        t = np.arange(100.0)
        expected = rng.uniform(100.0, 300.0, size=100)
        shed = rng.choice([0.0, 0.05, 0.15, 0.25], size=100)
        served = expected * (1 - shed)
        whole = compute_metrics(self._traj(t, expected, served, shed)).eens_mwh
        for splits in ([33], [20, 70], [10, 50, 90]):
            edges = [0] + splits + [99]
            total = 0.0
            for lo, hi in zip(edges[:-1], edges[1:]):
                total += compute_metrics(self._traj(
                    t[lo:hi + 1], expected[lo:hi + 1], served[lo:hi + 1],
                    shed[lo:hi + 1])).eens_mwh
            assert total == pytest.approx(whole, rel=1e-9)


# ---------------------------------------------------------------------------
# 6. contingency study orderings on the bundled 39-bus case
# ---------------------------------------------------------------------------

TRIPS = {"S1": ("G4", "G5"), "S2": ("G4", "G6")}
SEEDS = tuple(range(10))
DEFAULT_SEED = 1


def _summary(tr):
    return {
        "metrics": compute_metrics(tr),
        "nadir": tr.min_frequency(),
        "max_level": float(tr.shed_level.max()),
        "shed_records": np.any(tr.shed_level > 0, axis=1),
        "times": tr.times,
    }


def _scenario(name, case, seed):
    return Scenario(name=f"{name}{case}", case=case, seed=seed,
                    duration_s=600.0, dt_s=0.01,
                    events=tuple(ContingencyEvent(300.0, g) for g in TRIPS[name]))


@pytest.fixture(scope="module")
def study(ieee39):
    """All seed-paired runs for both contingencies, plus the wall time
    of the four default-seed scenario runs, which run solo one after
    another; the other 36 runs, both contingencies, seeds and cases, step
    as one ensemble, each member bit for bit its solo run."""
    params = SimParams.from_model(ieee39)
    runs = {}
    default_elapsed = 0.0
    for name in TRIPS:
        for case in "AB":
            t0 = time.monotonic()
            tr = run_scenario(ieee39, _scenario(name, case, DEFAULT_SEED), params=params)
            runs[(name, case, DEFAULT_SEED)] = _summary(tr)
            default_elapsed += time.monotonic() - t0
    members = [(name, case, seed) for name in TRIPS for seed in SEEDS
               if seed != DEFAULT_SEED for case in "AB"]
    trajectories = run_ensemble(ieee39, [_scenario(*m) for m in members], params=params)
    runs.update((m, _summary(tr)) for m, tr in zip(members, trajectories))
    return {"runs": runs, "default_elapsed": default_elapsed}


class TestContingencyStudy:
    def test_both_contingencies_trigger_shedding(self, study):
        for name in ("S1", "S2"):
            for case in "AB":
                r = study["runs"][(name, case, DEFAULT_SEED)]
                assert r["metrics"].r_ls > 0.0
                assert r["max_level"] >= 0.05
                # shedding starts only after the trip at 300 s
                first = r["times"][np.argmax(r["shed_records"])]
                assert first > 300.0

    def test_larger_trip_is_strictly_worse_within_each_case(self, study):
        for case in "AB":
            s1 = study["runs"][("S1", case, DEFAULT_SEED)]
            s2 = study["runs"][("S2", case, DEFAULT_SEED)]
            assert s2["nadir"] < s1["nadir"]
            assert s2["metrics"].t_ls_s > s1["metrics"].t_ls_s
            assert s2["metrics"].eens_mwh > s1["metrics"].eens_mwh
            assert s2["max_level"] > s1["max_level"]

    def test_dispatched_buses_improve_reliability_at_default_seed(self, study):
        for name in ("S1", "S2"):
            a = study["runs"][(name, "A", DEFAULT_SEED)]["metrics"]
            b = study["runs"][(name, "B", DEFAULT_SEED)]["metrics"]
            assert b.eens_mwh < a.eens_mwh
            assert b.t_ls_s <= a.t_ls_s

    def test_eens_ratio_above_one_across_seed_ensemble(self, study):
        """Pooled energy-not-served ratio A/B over the 10-seed paired
        ensemble exceeds 1 for both contingencies.  Individual seeds
        scatter around it (stochastic realizations), so the gate binds
        the ensemble, and the per-seed worst case stays bounded."""
        for name in ("S1", "S2"):
            sum_a = sum(study["runs"][(name, "A", s)]["metrics"].eens_mwh
                        for s in SEEDS)
            sum_b = sum(study["runs"][(name, "B", s)]["metrics"].eens_mwh
                        for s in SEEDS)
            assert sum_b > 0.0
            assert sum_a / sum_b > 1.0
            worst = min(
                study["runs"][(name, "A", s)]["metrics"].eens_mwh
                / study["runs"][(name, "B", s)]["metrics"].eens_mwh
                for s in SEEDS)
            assert worst > 0.5

    def test_default_seed_runtime_budget(self, study):
        assert study["default_elapsed"] < 120.0

    def test_bundled_scenario_files_match_study_definition(self, ieee39):
        for name, gens in TRIPS.items():
            for case in "ab":
                sc = load_scenario(str(files("gridfreq.data")
                                       .joinpath(f"{name.lower()}{case}.yaml")))
                sc.validate_against(ieee39)
                assert tuple(ev.generator for ev in sc.events) == gens
                assert sc.seed == DEFAULT_SEED
                assert sc.case == case.upper()


# ---------------------------------------------------------------------------
# 7. numerical hygiene
# ---------------------------------------------------------------------------

class TestNumericalHygiene:
    def test_step_halving_changes_nadir_below_tolerance(self, ieee39):
        """Deterministic double-trip transient, shedding disabled so the
        probe sees only the continuous dynamics: halving the step must
        move the frequency nadir by less than 1 mHz."""
        nadirs = {}
        for dt in (0.01, 0.005):
            sc = Scenario(name="halving", case="A", duration_s=315.0,
                          dt_s=dt, seed=1,
                          events=(ContingencyEvent(300.0, "G4"),
                                  ContingencyEvent(300.0, "G5")))
            params = SimParams.from_model(ieee39, ufls_enabled=False, **FLAT)
            tr = run_scenario(ieee39, sc, params=params)
            nadirs[dt] = tr.min_frequency()
        assert abs(nadirs[0.01] - nadirs[0.005]) < 1e-3

    def test_equilibrium_drift_and_residuals(self, ieee39):
        sc = Scenario(name="eq", case="A", duration_s=600.0, seed=1)
        params = SimParams.from_model(ieee39, **FLAT)
        tr = run_scenario(ieee39, sc, params=params)
        assert np.max(np.abs(tr.gen_speed_dev)) < 1e-6
        assert tr.max_residual < 1e-9
        assert np.max(np.abs(tr.bus_freq - 60.0)) < 1e-4


# ---------------------------------------------------------------------------
# 8. determinism
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_rerun_is_byte_identical(self, ieee39, tmp_path):
        sc = Scenario(name="det", case="B", duration_s=120.0, seed=5,
                      events=(ContingencyEvent(60.0, "G4"),
                              ContingencyEvent(60.0, "G6")))
        params = SimParams.from_model(ieee39)
        outs = []
        for tag in ("one", "two"):
            tr = run_scenario(ieee39, sc, params=params)
            m = compute_metrics(tr)
            outdir = tmp_path / tag
            export_results(tr, m, outdir)
            outs.append(outdir)
        for fname in ("trajectory.csv", "metrics.json", "events.csv"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, f"{fname} differs between reruns"

    def test_profile_fingerprint_stable(self, ieee39):
        params = SimParams.from_model(ieee39)
        sc = Scenario(name="fp", case="A", duration_s=30, seed=21)
        a = build_profiles(ieee39, sc, params).fingerprint()
        b = build_profiles(ieee39, sc, params).fingerprint()
        assert a == b

    def test_metrics_json_content_stable(self, ieee39, tmp_path):
        sc = Scenario(name="det2", case="A", duration_s=30.0, seed=2)
        params = SimParams.from_model(ieee39)
        docs = []
        for _ in range(2):
            tr = run_scenario(ieee39, sc, params=params)
            docs.append(json.dumps(
                compute_metrics(tr).__dict__, default=str, sort_keys=True))
        assert docs[0] == docs[1]
