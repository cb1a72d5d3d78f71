"""Governor, turbine and swing models of the generating units.

Two prime-mover chains are provided:

* a tandem-compound steam unit — proportional speed governor, speed-relay
  lag, rate- and position-limited hydraulic servomotor, and a cascade of
  first-order turbine stages (steam chest, reheater, crossover) with
  per-stage power fractions, and
* a hydro unit — PI governor with permanent-droop feedback of gate
  position, a velocity-mode servomotor (a first-order lag commands the
  gate velocity, integrated to position), and the nonlinear
  penstock/turbine model dq/dt = (1 - h)/T_w with h = (q/G)^2 and
  P_m = A_t h (q - q_nl).  The droop feeds back gate position, not
  electrical power, keeping the non-minimum-phase turbine out of the
  droop loop.  That alone does not damp the regulation mode: after a
  0.1 % load step, one hydro unit with ample reserve swings ever wider
  (speed 2.0e-4 p.u. peak to peak over 10-20 s, 5.7e-4 over 40-60 s),
  where a steam unit's swing decays to 3.4e-11 (ROADMAP item 4).

All scalar first-order lags are advanced by exact exponential
discretization, so they are unconditionally stable regardless of the
step size (the speed-relay time constant is 1 ms, far below typical
integration steps).  Every run-fixed operand of a step (the parameters,
dt, the lag decays exp(-dt/tau) and derived values, made once by
``steam_constants``/``hydro_constants``) and every literal is a 0-d array:
on numpy 2.4 a ufunc call costs about 0.45 us more with a Python float.

States are plain mutable dataclasses.  Step functions advance them in
place by rebinding fields to new values, never writing into a field's
array, so a field read before a step keeps its step-start value.

Every function is elementwise: a state field (or a constant built from
array parameters) holds one unit's value or an array over a bank of units
of one kind, and one call on an N-unit bank gives bit for bit what N
scalar calls give.  The engine integrates ``swing_accel`` with ``rk4``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

GATE_FLOOR = np.array(1e-4)     # gate floor preventing (q/G)^2 blow-up
_CAP_TOL = np.array(1e-12)      # a gate this close to its cap is at it
ZERO, HALF, ONE, TWO, SIX = map(np.array, (0.0, 0.5, 1.0, 2.0, 6.0))


def lag_decay(tau, dt: float):
    """Per-step decay exp(-dt/tau) of a first-order lag."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return np.exp(-dt / tau)


def _operands(params, dt: float, **derived) -> SimpleNamespace:
    """Each field of ``params``, the decay ``x`` of each time constant ``t_x``,
    ``dt``, ``half_dt`` and each ``derived`` value, as float64 arrays."""
    ops = {**vars(params), "dt": dt, "half_dt": 0.5 * dt, **derived}
    ops.update({name[2:]: lag_decay(tau, dt) for name, tau in vars(params).items()
                if name.startswith("t_")})
    return SimpleNamespace(**{name: np.asarray(v, dtype=float) for name, v in ops.items()})


def _lag(state, target, decay):
    """Exact one-step response of dx/dt = (u - x)/tau for constant u,
    ``decay`` being ``lag_decay(tau, dt)``."""
    return target + (state - target) * decay


def rk4(f, x, k1, dt, half_dt):
    """One classical RK4 step of dx/dt = f(x) from ``x``, given k1 = f(x)."""
    k2 = f(x + half_dt * k1)
    k3 = f(x + half_dt * k2)
    k4 = f(x + dt * k3)
    return x + dt * (k1 + TWO * k2 + TWO * k3 + k4) / SIX


def swing_accel(p_m, p_e, w, damping, two_h):
    """Rotor acceleration dw/dt of the swing equation 2H dw/dt = P_m - P_e - D w,
    powers and speed deviation ``w`` in machine p.u., ``two_h`` = 2H in s."""
    return (p_m - p_e - damping * w) / two_h


# ---------------------------------------------------------------------------
# steam unit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteamParams:
    gain: float = 20.0             # governor gain, 1/droop
    t_relay: float = 0.001         # speed-relay (speed delay) time constant, s
    t_servo: float = 0.15          # servomotor time constant, s
    rate_open: float = 0.1         # max valve opening rate, p.u./s
    rate_close: float = -0.1       # max valve closing rate, p.u./s
    valve_max: float = 4.496       # physical valve position ceiling
    valve_min: float = 0.0
    t_chest: float = 0.3           # steam chest, s
    t_reheat: float = 7.0          # reheater, s
    t_crossover: float = 0.5       # crossover, s
    f_hp: float = 0.3
    f_ip: float = 0.3
    f_lp: float = 0.4              # F_LPA + F_LPB


@dataclass(slots=True)
class SteamGovState:
    load_ref: float = 0.0          # valve set-point from dispatch
    relay_out: float = 0.0         # speed-relay lag state
    valve: float = 0.0             # servomotor valve position C_v
    p_chest: float = 0.0           # turbine stage states
    p_reheat: float = 0.0
    p_crossover: float = 0.0
    valve_cap: float = math.inf    # operational cap (allocated reserve)


def steam_constants(params: SteamParams, dt: float) -> SimpleNamespace:
    """The run-fixed operands of a steam step (``_operands``); its lag
    decays are ``relay``, ``servo``, ``chest``, ``reheat`` and ``crossover``."""
    return _operands(params, dt)


def steam_init(p_set: float, params: SteamParams,
               reserve: float = math.inf) -> SteamGovState:
    """Equilibrium state producing mechanical power ``p_set`` (machine p.u.)."""
    cap = np.minimum(params.valve_max, p_set + reserve)
    return SteamGovState(load_ref=p_set, relay_out=p_set, valve=p_set,
                         p_chest=p_set, p_reheat=p_set, p_crossover=p_set,
                         valve_cap=cap)


def steam_governor_step(s: SteamGovState, delta_omega: float,
                        k: SimpleNamespace) -> None:
    """Advance governor/servomotor one step for speed deviation ``delta_omega``.

    The speed reference is constant (no AGC), so the valve demand is the
    load reference plus gain times the negated speed deviation.
    """
    demand = s.load_ref + k.gain * (ZERO - delta_omega)
    relay = _lag(s.relay_out, demand, k.relay)
    # exact lag toward the relay output unless the implied rate saturates
    candidate = _lag(s.valve, relay, k.servo)
    rate = np.minimum(np.maximum((candidate - s.valve) / k.dt, k.rate_close),
                      k.rate_open)
    valve = s.valve + rate * k.dt
    s.relay_out = relay
    s.valve = np.minimum(np.maximum(valve, k.valve_min),
                         np.minimum(k.valve_max, s.valve_cap))


def steam_turbine_step(s: SteamGovState, k: SimpleNamespace,
                       valve_prev: float) -> float:
    """Advance the turbine stage cascade; returns P_m in machine p.u.

    Each stage's held input is the step-average of its driving signal
    (midpoint rule), so the cascade coupling is second-order accurate;
    ``valve_prev`` supplies the valve position at the start of the step.
    """
    u_v = HALF * (valve_prev + s.valve)
    p_ch = _lag(s.p_chest, u_v, k.chest)
    p_rh = _lag(s.p_reheat, HALF * (s.p_chest + p_ch), k.reheat)
    p_co = _lag(s.p_crossover, HALF * (s.p_reheat + p_rh), k.crossover)
    s.p_chest, s.p_reheat, s.p_crossover = p_ch, p_rh, p_co
    return k.f_hp * p_ch + k.f_ip * p_rh + k.f_lp * p_co


# ---------------------------------------------------------------------------
# hydro unit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HydroParams:
    kp: float = 1.163              # PI proportional gain
    ki: float = 0.105              # PI integral gain, 1/s
    servo_gain: float = 3.33       # K_a
    t_servo: float = 0.07          # T_a, s
    droop: float = 0.05            # permanent droop R_p, on gate position
    t_water: float = 1.0           # water starting time T_w, s
    q_nl: float = 0.08             # no-load flow, p.u.

    @property
    def turbine_gain(self) -> float:
        """Turbine gain A_t: 1 p.u. power at full gate, unit flow and head."""
        return 1.0 / (1.0 - self.q_nl)


@dataclass(slots=True)
class HydroGovState:
    pid_int: float = 0.0           # integrator state
    servo_vel: float = 0.0         # servomotor output (gate velocity, p.u./s)
    gate: float = 0.0              # gate position G in [0, gate_cap]
    flow: float = 0.0              # water flow q, p.u.
    gate_ref: float = 0.0          # gate position at the power set-point
    gate_cap: float = 1.0          # operational cap (allocated reserve)


def hydro_constants(params: HydroParams, dt: float) -> SimpleNamespace:
    """The run-fixed operands of a hydro step (``_operands``), with
    ``turbine_gain``; its servomotor lag decay is ``servo``."""
    return _operands(params, dt, turbine_gain=params.turbine_gain)


def hydro_init(p_set: float, params: HydroParams,
               reserve: float = math.inf) -> HydroGovState:
    """Equilibrium state producing mechanical power ``p_set`` (machine p.u.)."""
    gate = p_set / params.turbine_gain + params.q_nl
    if not np.all((0.0 <= gate) & (gate <= 1.0)):
        raise ValueError(f"set-point {p_set} outside gate range (gate {gate})")
    p_cap = p_set + reserve
    gate_cap = np.minimum(1.0, p_cap / params.turbine_gain + params.q_nl)
    return HydroGovState(gate=gate, flow=gate, gate_ref=gate, gate_cap=gate_cap)


def hydro_governor_step(s: HydroGovState, delta_omega: float,
                        k: SimpleNamespace) -> None:
    """Advance PI governor + servomotor one step.

    The droop feedback is the gate deviation from ``gate_ref``, in power
    units.  The integrator holds (anti-windup) while the gate is pinned
    at a limit and the error pushes further into it.
    """
    # midpoint gate estimate keeps the feedback consistent with the
    # (midpoint) speed deviation supplied by the caller
    gate_mid = s.gate + HALF * s.servo_vel * k.dt
    feedback = k.droop * (gate_mid - s.gate_ref) * k.turbine_gain
    err = -delta_omega - feedback

    at_max = (s.gate >= s.gate_cap - _CAP_TOL) & (err > ZERO)
    at_min = (s.gate <= GATE_FLOOR) & (err < ZERO)
    pid_int = np.where(at_max | at_min, s.pid_int, s.pid_int + k.ki * err * k.dt)
    u = k.kp * err + HALF * (s.pid_int + pid_int)
    # servomotor: first-order lag commanding gate velocity, then integration
    # to gate position (the gate itself holds when the PI output is zero)
    vel = _lag(s.servo_vel, k.servo_gain * u, k.servo)
    # trapezoidal gate integration keeps the position second-order accurate
    s.gate = np.minimum(np.maximum(s.gate + HALF * (s.servo_vel + vel) * k.dt, ZERO),
                        s.gate_cap)
    s.pid_int, s.servo_vel = pid_int, vel


def hydro_turbine_step(s: HydroGovState, k: SimpleNamespace,
                       gate_prev: float) -> float:
    """Advance the penstock flow (RK4, gate held at its step average);
    returns P_m.  ``gate_prev`` is the gate position at the start of the
    step.
    """
    g = np.maximum(HALF * (gate_prev + s.gate), GATE_FLOOR)

    # squares are products: a scalar ** 2 goes through libm pow, which can
    # differ in the last bit from the product an array power computes
    def dq(q):
        r = q / g
        return (ONE - r * r) / k.t_water

    s.flow = q_new = np.maximum(rk4(dq, s.flow, dq(s.flow), k.dt, k.half_dt), ZERO)
    r = q_new / np.maximum(s.gate, GATE_FLOOR)      # at the endpoint gate
    return k.turbine_gain * (r * r) * (q_new - k.q_nl)  # A_t h (q - q_nl)
