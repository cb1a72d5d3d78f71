"""Per-machine dynamics: lags, governors, turbines and the swing equation.

Oracles: closed-form solutions of the linear ODEs, scipy.integrate
reference solutions of the nonlinear ones, and steady-state droop
algebra.  Step functions must also hold their exact equilibria, and one
call on a bank of units must equal one scalar call per unit, bit for bit.
The swing acceleration is checked directly, and its integration through
one-machine engine runs.
"""

import contextlib
import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import gridfreq as gf
from gridfreq import machines, protection
from gridfreq.engine import (ContingencyEvent, Scenario, SimParams,
                             build_profiles, run_scenario)
from gridfreq.grid import GridConfigError
from gridfreq.machines import (GATE_FLOOR, HydroGovState, HydroParams,
                               SteamGovState, SteamParams, _lag, lag_decay,
                               hydro_constants, hydro_governor_step,
                               hydro_init, hydro_turbine_step,
                               steam_constants, steam_governor_step,
                               steam_init, steam_turbine_step, swing_accel)
from gridfreq.protection import estimate_frequency, filter_gain

from tests.conftest import FLAT, two_bus_doc


# ---------------------------------------------------------------------------
# exact scalar lag
# ---------------------------------------------------------------------------

class TestLag:
    def test_matches_closed_form(self):
        tau, dt = 0.3, 0.05
        x, u = 1.0, 4.0
        got = _lag(x, u, lag_decay(tau, dt))
        want = u + (x - u) * math.exp(-dt / tau)
        assert got == pytest.approx(want, rel=1e-15)

    def test_stable_for_any_step_size(self):
        # dt >> tau must not overshoot (exact discretization, not Euler)
        x = _lag(0.0, 1.0, lag_decay(0.001, 1.0))
        assert 0.0 < x <= 1.0

    def test_composition_over_substeps(self):
        # exactness: one step of dt equals two steps of dt/2
        tau = 0.2
        one = _lag(0.3, 2.0, lag_decay(tau, 0.1))
        two = _lag(_lag(0.3, 2.0, lag_decay(tau, 0.05)), 2.0, lag_decay(tau, 0.05))
        assert one == pytest.approx(two, rel=1e-14)


# ---------------------------------------------------------------------------
# steam unit
# ---------------------------------------------------------------------------

class TestSteam:
    def test_equilibrium_holds(self):
        params = SteamParams()
        s, k = steam_init(0.7, params), steam_constants(params, 0.01)
        for _ in range(1000):
            steam_governor_step(s, 0.0, k)
            p_m = steam_turbine_step(s, k, s.valve)
        assert p_m == pytest.approx(0.7, abs=1e-12)
        assert s.valve == pytest.approx(0.7, abs=1e-12)

    def test_droop_steady_state(self):
        """Constant speed deviation -> valve settles at load_ref - gain*dw
        and the turbine DC gain is one."""
        params = SteamParams()
        s, k = steam_init(0.5, params, reserve=10.0), steam_constants(params, 0.01)
        dw = -0.002
        for _ in range(12000):          # 120 s >> reheater time constant
            steam_governor_step(s, dw, k)
            p_m = steam_turbine_step(s, k, s.valve)
        want = 0.5 - params.gain * dw
        assert s.valve == pytest.approx(want, abs=1e-9)
        assert p_m == pytest.approx(want, rel=1e-6)

    def test_fraction_weights_sum_to_one(self):
        params = SteamParams()
        assert params.f_hp + params.f_ip + params.f_lp == pytest.approx(1.0)

    def test_rate_limit_enforced(self):
        params = SteamParams()
        s = steam_init(0.2, params, reserve=10.0)
        dt = 0.01
        k = steam_constants(params, dt)
        prev = s.valve
        for _ in range(200):
            steam_governor_step(s, -0.05, k)        # huge demand
            rate = (s.valve - prev) / dt
            assert rate <= params.rate_open + 1e-12
            prev = s.valve

    def test_valve_cap_from_reserve(self):
        params = SteamParams()
        s, k = steam_init(0.5, params, reserve=0.1), steam_constants(params, 0.01)
        for _ in range(5000):
            steam_governor_step(s, -0.1, k)
        assert s.valve == pytest.approx(0.6, abs=1e-12)

    def test_valve_floor(self):
        params = SteamParams()
        s, k = steam_init(0.1, params), steam_constants(params, 0.01)
        for _ in range(5000):
            steam_governor_step(s, 0.1, k)
        assert s.valve >= params.valve_min

    def test_turbine_cascade_matches_ode_oracle(self):
        """Step response of the three-lag cascade vs scipy solve_ivp."""
        params = SteamParams()
        s = steam_init(0.0, params)
        dt = 0.01
        horizon = 20.0
        # hold the valve at 1.0 (bypass governor) and advance the cascade
        s = s.__class__(load_ref=0.0, relay_out=0.0, valve=1.0,
                        p_chest=0.0, p_reheat=0.0, p_crossover=0.0)
        n = int(round(horizon / dt))
        got_t = (np.arange(n) + 1) * dt
        got_p = np.empty(n)
        k = steam_constants(params, dt)
        for j in range(n):
            got_p[j] = steam_turbine_step(s, k, s.valve)

        def rhs(_t, y):
            ch, rh, co = y
            return [(1.0 - ch) / params.t_chest,
                    (ch - rh) / params.t_reheat,
                    (rh - co) / params.t_crossover]

        sol = solve_ivp(rhs, (0.0, horizon + dt), [0.0, 0.0, 0.0],
                        t_eval=got_t, rtol=1e-10, atol=1e-12)
        want = (params.f_hp * sol.y[0] + params.f_ip * sol.y[1]
                + params.f_lp * sol.y[2])
        assert np.max(np.abs(got_p - want)) < 2e-3

    def test_mech_power_helper_consistent(self):
        """P_m is the fraction-weighted sum of the advanced stage states."""
        params = SteamParams()
        s = steam_init(0.42, params)
        p_m = steam_turbine_step(s, steam_constants(params, 0.01), s.valve)
        assert (params.f_hp * s.p_chest + params.f_ip * s.p_reheat
                + params.f_lp * s.p_crossover) == pytest.approx(p_m, rel=1e-14)

    def test_rejects_nonpositive_dt(self):
        params = SteamParams()
        s = steam_init(0.5, params)
        with pytest.raises(ValueError):
            steam_governor_step(s, 0.0, steam_constants(params, 0.0))


# ---------------------------------------------------------------------------
# hydro unit
# ---------------------------------------------------------------------------

class TestHydro:
    def test_equilibrium_holds(self):
        params = HydroParams()
        s, k = hydro_init(0.6, params), hydro_constants(params, 0.01)
        for _ in range(2000):
            hydro_governor_step(s, 0.0, k)
            p_m = hydro_turbine_step(s, k, s.gate)
        assert p_m == pytest.approx(0.6, abs=1e-10)

    def test_init_gate_solves_power(self):
        params = HydroParams()
        s = hydro_init(0.5, params)
        # head is 1 at q = gate, so P = A_t (gate - q_nl)
        assert params.turbine_gain * (s.gate - params.q_nl) == pytest.approx(0.5)

    def test_init_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hydro_init(5.0, HydroParams())

    def test_gate_droop_steady_state(self):
        """Constant speed deviation -> gate settles where the droop
        feedback cancels it: delta_P = -dw / droop."""
        params = HydroParams()
        s, k = hydro_init(0.5, params, reserve=10.0), hydro_constants(params, 0.01)
        dw = -0.003
        for _ in range(60000):          # 600 s: integral tail is slow
            hydro_governor_step(s, dw, k)
            p_m = hydro_turbine_step(s, k, s.gate)
        want = 0.5 - dw / params.droop
        assert p_m == pytest.approx(want, rel=1e-4)

    def test_gate_cap_from_reserve(self):
        params = HydroParams()
        s = hydro_init(0.5, params, reserve=0.1)
        gate_cap = 0.6 / params.turbine_gain + params.q_nl
        assert s.gate_cap == pytest.approx(gate_cap)
        k = hydro_constants(params, 0.01)
        for _ in range(20000):
            hydro_governor_step(s, -0.05, k)
        assert s.gate <= s.gate_cap + 1e-12

    def test_antiwindup_freezes_integrator_at_cap(self):
        params = HydroParams()
        s = hydro_init(0.5, params, reserve=0.0)   # pinned at the cap
        k = hydro_constants(params, 0.01)
        pid0 = None
        for _ in range(100):
            hydro_governor_step(s, -0.05, k)
            if s.gate >= s.gate_cap - 1e-12:
                if pid0 is None:
                    pid0 = s.pid_int
                else:
                    assert s.pid_int == pid0
        assert pid0 is not None

    def test_penstock_matches_ode_oracle(self):
        """Flow transient after a gate step vs scipy solve_ivp."""
        params = HydroParams()
        g = 0.7
        s = hydro_init(0.5, params)
        s = s.__class__(gate=g, flow=s.flow, gate_cap=1.0)
        dt = 0.01
        horizon = 5.0
        got_t, got_q = [], []
        t = 0.0
        k = hydro_constants(params, dt)
        while t < horizon - 1e-9:
            hydro_turbine_step(s, k, s.gate)
            t += dt
            got_t.append(t)
            got_q.append(s.flow)

        q0 = 0.5 / params.turbine_gain + params.q_nl

        def rhs(_t, y):
            return [(1.0 - (y[0] / g) ** 2) / params.t_water]

        sol = solve_ivp(rhs, (0.0, horizon), [q0], t_eval=got_t,
                        rtol=1e-11, atol=1e-13)
        assert np.max(np.abs(np.array(got_q) - sol.y[0])) < 1e-8

    def test_non_minimum_phase_power_dip(self):
        """Opening the gate first reduces mechanical power (head drop)."""
        params = HydroParams()
        s, k = hydro_init(0.5, params), hydro_constants(params, 0.01)
        p0 = hydro_turbine_step(s, k, s.gate)
        s = s.__class__(gate=s.gate + 0.1, flow=s.flow, gate_cap=1.0)
        p_after = hydro_turbine_step(s, k, s.gate)
        assert p_after < p0

    def test_gate_floor_prevents_blowup(self):
        params = HydroParams()
        s = hydro_init(0.3, params)
        s = s.__class__(gate=0.0, flow=0.05, gate_cap=1.0)
        p_m = hydro_turbine_step(s, hydro_constants(params, 0.01), s.gate)
        assert math.isfinite(p_m)
        assert s.flow >= 0.0
        assert GATE_FLOOR > 0.0

    def test_rejects_nonpositive_dt(self):
        params = HydroParams()
        s = hydro_init(0.5, params)
        with pytest.raises(ValueError):
            hydro_governor_step(s, 0.0, hydro_constants(params, -0.01))


# ---------------------------------------------------------------------------
# swing equation: its acceleration, and one-machine engine runs
# ---------------------------------------------------------------------------

class TestSwing:
    @given(st.floats(-2.0, 2.0), st.floats(0.0, 10.0), st.floats(0.1, 20.0))
    def test_acceleration_is_zero_at_balance(self, p, damping, two_h):
        """Mechanical power equal to electrical at synchronous speed is
        an equilibrium, exactly."""
        assert swing_accel(p, p, 0.0, damping, two_h) == 0.0
        assert swing_accel(np.array(p), np.array(p), np.array(0.0),
                           np.array(damping), np.array(two_h)) == 0.0

    def test_constant_imbalance_matches_closed_form(self):
        """One thermal unit without reserve (its valve is pinned at the
        set-point) against a load 10% above schedule: the imbalance is
        constant, and 2H dw/dt = dP - D w has the closed form
        w(t) = (dP/D)(1 - exp(-D t / 2H))."""
        model = gf.load_grid_config(two_bus_doc(rating=1000.0, load=500.0))
        params = SimParams.from_model(model, reserve_fraction=0.0,
                                      ufls_enabled=False, **FLAT)
        sc = Scenario(name="swing", case="A", duration_s=30.0)
        profiles = replace(build_profiles(model, sc, params),
                           load_mw={2: np.full(32, 550.0)})
        tr = run_scenario(model, sc, params=params, profiles=profiles)
        np.testing.assert_allclose(tr.gen_p_mech[:, 0], 0.5, rtol=1e-14)
        np.testing.assert_allclose(tr.gen_p_elec[1:, 0], 0.55, rtol=1e-12)
        h, d, dp = params.h_thermal, params.damping, 0.5 - 0.55
        want = (dp / d) * (1.0 - np.exp(-d * tr.times / (2.0 * h)))
        np.testing.assert_allclose(tr.gen_speed_dev[:, 0], want, rtol=1e-9)

    def test_offline_machine_is_inert(self, four_bus, tmp_path):
        """A tripped machine keeps its speed and produces nothing, recorded
        and exported as +0, never -0.  In the run with shedding the
        frequency recovers past the tripped rotor's held speed, so its bus
        angle overtakes the rotor angle and a zero coupling times their
        difference is -0.0."""
        for g, ufls, duration_s in (("G2", False, 4.0), ("G1", True, 20.0)):
            params = SimParams.from_model(four_bus, ufls_enabled=ufls)
            sc = Scenario(name="trip", case="A", duration_s=duration_s,
                          events=(ContingencyEvent(1.0, g),))
            tr = run_scenario(four_bus, sc, params=params)
            j = tr.gen_ids.index(g)
            after = tr.times > 1.0
            assert tr.gen_speed_dev[-1, j] != 0.0
            assert np.all(tr.gen_speed_dev[after, j] == tr.gen_speed_dev[-1, j])
            assert np.all(tr.gen_online[after, j] == 0.0)
            assert np.all(tr.gen_p_mech[after, j] == 0.0)
            assert np.all(tr.gen_p_elec[after, j] == 0.0)
            assert not np.signbit(tr.gen_p_mech[:, j]).any()
            assert not np.signbit(tr.gen_p_elec[:, j]).any()
            assert np.ptp(tr.gen_speed_dev[after, 1 - j]) > 0.0
            tr.to_csv(tmp_path / f"{g}.csv")
            rows = (tmp_path / f"{g}.csv").read_text().splitlines()[1:]
            assert "-0" not in {field for row in rows for field in row.split(",")}

    def test_rejects_nonpositive_inertia(self):
        doc = two_bus_doc()
        doc["simulation"] = {"h_thermal": 0.0}
        with pytest.raises(GridConfigError, match=r"simulation\.h_thermal: 0\.0 is not positive"):
            run_scenario(gf.load_grid_config(doc),
                         Scenario(name="x", case="A", duration_s=1.0))


# ---------------------------------------------------------------------------
# one call on a bank of units equals one scalar call per unit
# ---------------------------------------------------------------------------

def units(bank) -> list:
    """Scalar dataclasses, one per unit, from a dataclass of arrays."""
    n = max(np.size(getattr(bank, f.name)) for f in fields(bank))
    return [type(bank)(**{f.name: (v[i].item() if np.ndim(v) else v)
                          for f in fields(bank) for v in [getattr(bank, f.name)]})
            for i in range(n)]


def assert_same_bits(got, want: list):
    """``got`` (bank result) holds exactly the scalar results ``want``."""
    if isinstance(got, tuple):
        for g, w in zip(got, zip(*want)):
            assert_same_bits(g, list(w))
    elif hasattr(got, "__dataclass_fields__"):
        for f in fields(got):
            assert_same_bits(getattr(got, f.name), [getattr(w, f.name) for w in want])
    else:
        np.testing.assert_array_equal(np.asarray(got, dtype=float).view(np.int64),
                                      np.array(want, dtype=float).view(np.int64))


def real(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


DT = real(1e-4, 0.05)


@st.composite
def banks(draw, make):
    """A bank of 1 to 64 units from ``make(values, flags)``, its continuous
    fields drawn from a seeded generator.  Values must be many and
    distinct: a last-bit difference between bank and scalar arithmetic
    (such as ``x ** 2`` on a scalar, which goes through libm pow) shows on
    roughly one value in a thousand."""
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return make(lambda lo, hi: rng.uniform(lo, hi, n), lambda: rng.random(n) < 0.25)


def steam_bank(values, flags):
    # large speed deviations against slow servos reach the valve rate
    # limit; caps below the valve demand reach the valve cap
    state = SteamGovState(
        load_ref=values(0.0, 1.0), relay_out=values(-1.0, 3.0),
        valve=values(0.0, 1.5), p_chest=values(0.0, 1.5),
        p_reheat=values(0.0, 1.5), p_crossover=values(0.0, 1.5),
        valve_cap=np.where(flags(), math.inf, values(0.0, 1.5)))
    params = SteamParams(
        gain=values(5.0, 50.0), t_relay=values(1e-3, 0.1),
        t_servo=values(0.02, 0.5), rate_open=values(0.01, 0.5),
        rate_close=values(-0.5, -0.01), t_chest=values(0.05, 1.0),
        t_reheat=values(1.0, 10.0), t_crossover=values(0.1, 1.0),
        f_hp=values(0.0, 0.5), f_ip=values(0.0, 0.5), f_lp=values(0.0, 0.5))
    return state, params, values(-0.1, 0.1)


def hydro_bank(values, flags):
    # gates at the cap or closed, where the integrator holds (anti-windup)
    # when the error pushes outward; gates below the floor
    gate_cap = values(0.2, 1.0)
    gate = np.where(flags(), gate_cap, values(0.0, 1.0) * gate_cap)
    gate = np.where(flags(), 0.0, np.where(flags(), GATE_FLOOR / 2, gate))
    state = HydroGovState(
        pid_int=values(-0.5, 0.5), servo_vel=values(-0.5, 0.5), gate=gate,
        flow=values(0.0, 1.2), gate_ref=values(0.0, 1.0), gate_cap=gate_cap)
    params = HydroParams(
        kp=values(0.0, 3.0), ki=values(0.0, 1.0),
        servo_gain=values(0.5, 10.0), t_servo=values(0.02, 0.5),
        droop=values(0.01, 0.1), t_water=values(0.5, 3.0),
        q_nl=values(0.0, 0.2))
    return state, params, values(-0.1, 0.1)


class TestBankEqualsScalarCalls:
    """Scalar units are copies taken before the bank call, which advances
    the bank's state in place."""

    @given(banks(lambda values, flags: (values(-5.0, 5.0), values(-5.0, 5.0),
                                          values(1e-4, 10.0))), DT)
    def test_lag(self, bank, dt):
        x, u, tau = bank
        assert_same_bits(_lag(x, u, lag_decay(tau, dt)),
                         [_lag(*unit, lag_decay(t, dt)) for *unit, t in zip(*bank)])

    @given(banks(lambda values, flags: (values(-2.0, 2.0), values(-2.0, 2.0),
                                          values(-0.1, 0.1), values(0.0, 10.0),
                                          values(0.1, 20.0))))
    def test_swing_accel(self, bank):
        assert_same_bits(swing_accel(*bank),
                         [swing_accel(*unit) for unit in zip(*(a.tolist() for a in bank))])

    @given(banks(steam_bank), DT)
    def test_steam_governor(self, bank, dt):
        s, p, dw = bank
        want = list(zip(units(s), units(p), dw))
        for us, up, udw in want:
            steam_governor_step(us, udw, steam_constants(up, dt))
        steam_governor_step(s, dw, steam_constants(p, dt))
        assert_same_bits(s, [us for us, _, _ in want])

    @given(banks(steam_bank), DT)
    def test_steam_turbine(self, bank, dt):
        s, p, dw = bank
        prev = s.valve + dw
        want = [(us, steam_turbine_step(us, steam_constants(up, dt), v))
                for us, up, v in zip(units(s), units(p), prev)]
        p_m = steam_turbine_step(s, steam_constants(p, dt), prev)
        assert_same_bits((s, p_m), want)

    @given(banks(hydro_bank), DT)
    def test_hydro_governor(self, bank, dt):
        s, p, dw = bank
        want = list(zip(units(s), units(p), dw))
        for us, up, udw in want:
            hydro_governor_step(us, udw, hydro_constants(up, dt))
        hydro_governor_step(s, dw, hydro_constants(p, dt))
        assert_same_bits(s, [us for us, *_ in want])

    @given(banks(hydro_bank), DT)
    def test_hydro_turbine(self, bank, dt):
        s, p, dw = bank
        prev = np.maximum(s.gate + dw, 0.0)
        want = [(us, hydro_turbine_step(us, hydro_constants(up, dt), g))
                for us, up, g in zip(units(s), units(p), prev)]
        p_m = hydro_turbine_step(s, hydro_constants(p, dt), prev)
        assert_same_bits((s, p_m), want)

    @given(banks(lambda values, flags: (values(-50.0, 50.0), values(-50.0, 50.0),
                                          values(-5.0, 5.0))),
           DT, real(0.01, 0.5), st.booleans())
    def test_frequency_estimator(self, bank, dt, tau, primed):
        theta, prev, filt = bank
        if not primed:
            prev = [None] * len(theta)
        alpha = filter_gain(dt, tau)
        assert_same_bits(
            estimate_frequency(theta, prev if primed else None, filt, dt, alpha, 60.0),
            [estimate_frequency(t, p, f, dt, alpha, 60.0)
             for t, p, f in zip(theta, prev, filt)])


# ---------------------------------------------------------------------------
# 0-d array constants give the bits of plain Python floats
# ---------------------------------------------------------------------------

# the module-level 0-d literals and what they stand for
LITERALS = ((machines, {"ZERO": 0.0, "HALF": 0.5, "ONE": 1.0, "TWO": 2.0, "SIX": 6.0,
                        "GATE_FLOOR": 1e-4, "_CAP_TOL": 1e-12}),
            (protection, {"_TWO_PI": 2.0 * math.pi}))


@contextlib.contextmanager
def float_literals():
    """Every module-level 0-d literal a Python float for the block."""
    with pytest.MonkeyPatch.context() as mp:
        for module, values in LITERALS:
            for name, v in values.items():
                assert np.ndim(getattr(module, name)) == 0 and getattr(module, name) == v
                mp.setattr(module, name, v)
        yield


def float_constants(k) -> SimpleNamespace:
    """``k`` with every 0-d array constant a Python float."""
    assert all(np.ndim(v) == 0 and v.dtype == np.float64 for v in vars(k).values())
    return SimpleNamespace(**{name: float(v) for name, v in vars(k).items()})


class TestZeroDimConstantsEqualFloats:
    """Run-fixed operands are 0-d arrays because a float operand costs a
    ufunc call more; as Python floats of the same values (scalar
    parameters, state of 1 to 64 units) every result keeps its bits."""

    @given(banks(steam_bank), DT)
    def test_steam_governor(self, bank, dt):
        s, p, dw = bank
        k, want = steam_constants(units(p)[0], dt), replace(s)
        steam_governor_step(s, dw, k)
        with float_literals():
            steam_governor_step(want, dw, float_constants(k))
        assert_same_bits(s, units(want))

    @given(banks(steam_bank), DT)
    def test_steam_turbine(self, bank, dt):
        s, p, dw = bank
        k, want, prev = steam_constants(units(p)[0], dt), replace(s), s.valve + dw
        p_m = steam_turbine_step(s, k, prev)
        with float_literals():
            want_p = steam_turbine_step(want, float_constants(k), prev)
        assert_same_bits((s, p_m), list(zip(units(want), want_p)))

    @given(banks(hydro_bank), DT)
    def test_hydro_governor(self, bank, dt):
        s, p, dw = bank
        k, want = hydro_constants(units(p)[0], dt), replace(s)
        hydro_governor_step(s, dw, k)
        with float_literals():
            hydro_governor_step(want, dw, float_constants(k))
        assert_same_bits(s, units(want))

    @given(banks(hydro_bank), DT)
    def test_hydro_turbine(self, bank, dt):
        s, p, dw = bank
        k, want = hydro_constants(units(p)[0], dt), replace(s)
        prev = np.maximum(s.gate + dw, 0.0)
        p_m = hydro_turbine_step(s, k, prev)
        with float_literals():
            want_p = hydro_turbine_step(want, float_constants(k), prev)
        assert_same_bits((s, p_m), list(zip(units(want), want_p)))

    @given(banks(lambda values, flags: (values(-50.0, 50.0), values(-50.0, 50.0),
                                          values(-5.0, 5.0))),
           DT, real(0.01, 0.5), real(45.0, 65.0), st.booleans())
    def test_frequency_estimator(self, bank, dt, tau, f0, primed):
        theta, prev, filt = bank
        prev = prev if primed else None
        ops = (dt, filter_gain(dt, tau), f0)
        got = estimate_frequency(theta, prev, filt, *map(np.array, ops))
        with float_literals():
            want = estimate_frequency(theta, prev, filt, *ops)
        assert_same_bits(got, list(zip(*want)))
