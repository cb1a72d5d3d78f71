"""Governor and turbine models of the generating units.

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
  electrical power: that keeps the non-minimum-phase turbine out of the
  droop loop, which the reduced-order model needs for a well-damped
  regulation mode.

All scalar first-order lags are advanced by exact exponential
discretization, so they are unconditionally stable regardless of the
step size (the speed-relay time constant is 1 ms, far below typical
integration steps).  What a step derives from the parameters and the
step size alone (each lag's decay exp(-dt/tau)) is computed once, by
``steam_constants``/``hydro_constants``, and passed to every step.

States are plain mutable dataclasses.  Step functions advance them in
place by rebinding fields to new values, never writing into a field's
array, so a field read before a step keeps its step-start value.

Every function is elementwise: a state or parameter field holds either
one unit's scalar or an array over a bank of units of one kind, and one
call on an N-unit bank gives bit for bit what N scalar calls give.  The
swing equation is integrated by the engine, over all machines at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GATE_FLOOR = 1e-4   # gate floor preventing (q/G)^2 blow-up


def lag_decay(tau, dt: float):
    """Per-step decay exp(-dt/tau) of a first-order lag."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return np.exp(-dt / tau)


def _lag(state, target, decay):
    """Exact one-step response of dx/dt = (u - x)/tau for constant u,
    ``decay`` being ``lag_decay(tau, dt)``."""
    return target + (state - target) * decay


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


@dataclass(frozen=True, slots=True)
class SteamConstants:
    """What a steam step derives from ``SteamParams`` and ``dt`` alone."""

    dt: float
    relay: float                   # lag decays exp(-dt/tau)
    servo: float
    chest: float
    reheat: float
    crossover: float


def steam_constants(params: SteamParams, dt: float) -> SteamConstants:
    return SteamConstants(dt, *(lag_decay(tau, dt) for tau in (
        params.t_relay, params.t_servo, params.t_chest, params.t_reheat,
        params.t_crossover)))


def steam_init(p_set: float, params: SteamParams,
               reserve: float = math.inf) -> SteamGovState:
    """Equilibrium state producing mechanical power ``p_set`` (machine p.u.)."""
    cap = np.minimum(params.valve_max, p_set + reserve)
    return SteamGovState(load_ref=p_set, relay_out=p_set, valve=p_set,
                         p_chest=p_set, p_reheat=p_set, p_crossover=p_set,
                         valve_cap=cap)


def steam_governor_step(s: SteamGovState, params: SteamParams,
                        delta_omega: float, k: SteamConstants) -> None:
    """Advance governor/servomotor one step for speed deviation ``delta_omega``.

    The speed reference is constant (no AGC), so the valve demand is the
    load reference plus gain times the negated speed deviation.
    """
    dt = k.dt
    demand = s.load_ref + params.gain * (0.0 - delta_omega)
    relay = _lag(s.relay_out, demand, k.relay)
    # exact lag toward the relay output unless the implied rate saturates
    candidate = _lag(s.valve, relay, k.servo)
    rate = (candidate - s.valve) / dt
    rate = np.minimum(np.maximum(rate, params.rate_close), params.rate_open)
    valve = s.valve + rate * dt
    s.relay_out = relay
    s.valve = np.minimum(np.maximum(valve, params.valve_min),
                         np.minimum(params.valve_max, s.valve_cap))


def steam_turbine_step(s: SteamGovState, params: SteamParams, k: SteamConstants,
                       valve_prev: float) -> float:
    """Advance the turbine stage cascade; returns P_m in machine p.u.

    Each stage's held input is the step-average of its driving signal
    (midpoint rule), so the cascade coupling is second-order accurate;
    ``valve_prev`` supplies the valve position at the start of the step.
    """
    u_v = 0.5 * (valve_prev + s.valve)
    p_ch = _lag(s.p_chest, u_v, k.chest)
    p_rh = _lag(s.p_reheat, 0.5 * (s.p_chest + p_ch), k.reheat)
    p_co = _lag(s.p_crossover, 0.5 * (s.p_reheat + p_rh), k.crossover)
    s.p_chest, s.p_reheat, s.p_crossover = p_ch, p_rh, p_co
    return params.f_hp * p_ch + params.f_ip * p_rh + params.f_lp * p_co


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
    a_t: float | None = None       # turbine gain; default 1/(1 - q_nl)

    @property
    def turbine_gain(self) -> float:
        return self.a_t if self.a_t is not None else 1.0 / (1.0 - self.q_nl)


@dataclass(slots=True)
class HydroGovState:
    pid_int: float = 0.0           # integrator state
    servo_vel: float = 0.0         # servomotor output (gate velocity, p.u./s)
    gate: float = 0.0              # gate position G in [0, gate_cap]
    flow: float = 0.0              # water flow q, p.u.
    gate_ref: float = 0.0          # gate position at the power set-point
    gate_cap: float = 1.0          # operational cap (allocated reserve)


@dataclass(frozen=True, slots=True)
class HydroConstants:
    """What a hydro step derives from ``HydroParams`` and ``dt`` alone."""

    dt: float
    servo: float                   # servomotor lag decay exp(-dt/t_servo)


def hydro_constants(params: HydroParams, dt: float) -> HydroConstants:
    return HydroConstants(dt, lag_decay(params.t_servo, dt))


def hydro_init(p_set: float, params: HydroParams,
               reserve: float = math.inf) -> HydroGovState:
    """Equilibrium state producing mechanical power ``p_set`` (machine p.u.)."""
    gate = p_set / params.turbine_gain + params.q_nl
    if not np.all((0.0 <= gate) & (gate <= 1.0)):
        raise ValueError(f"set-point {p_set} outside gate range (gate {gate})")
    p_cap = p_set + reserve
    gate_cap = np.minimum(1.0, p_cap / params.turbine_gain + params.q_nl)
    return HydroGovState(gate=gate, flow=gate, gate_ref=gate, gate_cap=gate_cap)


def hydro_governor_step(s: HydroGovState, params: HydroParams,
                        delta_omega: float, k: HydroConstants) -> None:
    """Advance PI governor + servomotor one step.

    The droop feedback is the gate deviation from ``gate_ref``, in power
    units.  The integrator holds (anti-windup) while the gate is pinned
    at a limit and the error pushes further into it.
    """
    dt = k.dt
    # midpoint gate estimate keeps the feedback consistent with the
    # (midpoint) speed deviation supplied by the caller
    gate_mid = s.gate + 0.5 * s.servo_vel * dt
    feedback = params.droop * (gate_mid - s.gate_ref) * params.turbine_gain
    err = -delta_omega - feedback

    at_max = (s.gate >= s.gate_cap - 1e-12) & (err > 0)
    at_min = (s.gate <= GATE_FLOOR) & (err < 0)
    pid_int = np.where(at_max | at_min, s.pid_int, s.pid_int + params.ki * err * dt)
    u = params.kp * err + 0.5 * (s.pid_int + pid_int)
    # servomotor: first-order lag commanding gate velocity, then integration
    # to gate position (the gate itself holds when the PI output is zero)
    vel = _lag(s.servo_vel, params.servo_gain * u, k.servo)
    # trapezoidal gate integration keeps the position second-order accurate
    s.gate = np.minimum(np.maximum(s.gate + 0.5 * (s.servo_vel + vel) * dt, 0.0),
                        s.gate_cap)
    s.pid_int, s.servo_vel = pid_int, vel


def hydro_turbine_step(s: HydroGovState, params: HydroParams, k: HydroConstants,
                       gate_prev: float) -> float:
    """Advance the penstock flow (RK4, gate held at its step average);
    returns P_m.  ``gate_prev`` is the gate position at the start of the
    step.
    """
    dt = k.dt
    g = np.maximum(0.5 * (gate_prev + s.gate), GATE_FLOOR)
    tw = params.t_water

    # squares are products: a scalar ** 2 goes through libm pow, which can
    # differ in the last bit from the product an array power computes
    def dq(q):
        r = q / g
        return (1.0 - r * r) / tw

    q = s.flow
    k1 = dq(q)
    k2 = dq(q + 0.5 * dt * k1)
    k3 = dq(q + 0.5 * dt * k2)
    k4 = dq(q + dt * k3)
    s.flow = q_new = np.maximum(q + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0, 0.0)
    r = q_new / np.maximum(s.gate, GATE_FLOOR)      # at the endpoint gate
    head = r * r
    return params.turbine_gain * head * (q_new - params.q_nl)
