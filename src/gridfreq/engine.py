"""Fixed-step time-domain simulation coupling machines, network, profiles,
dispatch and protection, plus contingency handling and scenario runs.

Integration uses a fixed step (default 10 ms): swing and penstock states
advance by 4th-order explicit stages, all scalar lags by exact
discretization.  Profiles have 1 s resolution and are held constant
within each second.  A scenario run is fully determined by
(grid config, scenario, seed) and replays bit-identically.  Scenarios
that share an event schedule can run as one ensemble, stepped side by
side through one factorization; each member's trajectory is bit for bit
its solo run's.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import yaml

from . import dispatch as dispatch_mod
from . import machines as mach
from .grid import GridModel, GridConfigError, IslandingError, build_full_susceptance_matrix, solve_dc_flow, build_susceptance_matrix
from .profiles import (ProfileError, resample_wind, scale_wind, make_load_profile,
                       synthetic_minute_walk, synthetic_second_multiplier)
from .protection import UflsRelayState, estimate_frequency, ufls_step

logger = logging.getLogger(__name__)


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class ContingencyEvent:
    time_s: float
    generator: str


@dataclass(frozen=True)
class Scenario:
    name: str
    case: str                       # 'A' (stochastic) | 'B' (dispatched-by-design)
    events: tuple[ContingencyEvent, ...] = ()
    duration_s: float = 600.0
    dt_s: float = 0.01
    seed: int = 1
    output_dt_s: float = 0.1

    def __post_init__(self):
        if self.case not in ("A", "B"):
            raise ScenarioError(f"scenario {self.name}: case must be 'A' or 'B'")
        if self.duration_s <= 0 or self.dt_s <= 0:
            raise ScenarioError(f"scenario {self.name}: nonpositive duration or dt")
        steps = self.duration_s / self.dt_s
        if abs(steps - self.n_steps) > 1e-9 * steps:
            raise ScenarioError(f"scenario {self.name}: dt_s {self.dt_s} does not "
                                f"divide duration_s {self.duration_s}")
        dec = self.output_dt_s / self.dt_s
        if self.steps_per_record < 1 or abs(dec - self.steps_per_record) > 1e-9 * dec:
            raise ScenarioError(f"scenario {self.name}: output_dt_s {self.output_dt_s} "
                                f"is not a whole multiple of dt_s {self.dt_s}")
        for ev in self.events:
            # an event fires before its step, and the last step is n_steps - 1
            if ev.time_s < 0.0 or self.event_step(ev) >= self.n_steps:
                raise ScenarioError(
                    f"scenario {self.name}: event at {ev.time_s}s outside horizon")

    @property
    def n_steps(self) -> int:
        return round(self.duration_s / self.dt_s)

    @property
    def steps_per_record(self) -> int:
        """Integration steps per recorded output step."""
        return round(self.output_dt_s / self.dt_s)

    @property
    def n_seconds(self) -> int:
        """Samples per 1-s profile; steps read seconds 0 to ceil(duration_s) - 1."""
        return math.ceil(self.duration_s) + 2

    def event_step(self, ev: ContingencyEvent) -> int:
        """The step before which ``ev`` fires."""
        return round(ev.time_s / self.dt_s)

    def validate_against(self, model: GridModel) -> None:
        gen_ids = {g.id for g in model.generators}
        for ev in self.events:
            if ev.generator not in gen_ids:
                raise ScenarioError(
                    f"scenario {self.name}: unknown generator {ev.generator}")


def load_scenario(source: str | Path | dict) -> Scenario:
    if isinstance(source, dict):
        doc = source
    else:
        try:
            doc = yaml.safe_load(Path(source).read_text())
        except yaml.YAMLError as exc:
            raise ScenarioError(f"cannot parse {source}: {exc}") from exc
    if not isinstance(doc, dict) or "name" not in doc or "case" not in doc:
        raise ScenarioError("scenario document needs at least 'name' and 'case'")
    events = tuple(ContingencyEvent(time_s=float(e["time_s"]),
                                    generator=str(e["generator"]))
                   for e in doc.get("events", []))
    # keys the document leaves out take the Scenario defaults
    optional = {key: conv(doc[key]) for key, conv in (
        ("duration_s", float), ("dt_s", float), ("seed", int), ("output_dt_s", float))
        if key in doc}
    return Scenario(name=str(doc["name"]), case=str(doc["case"]), events=events,
                    **optional)


@dataclass(frozen=True)
class SimParams:
    """Engine defaults; every value can be overridden from the grid config's
    'simulation' section or per generator."""

    h_thermal: float = 5.0          # inertia, s on machine base
    h_hydro: float = 3.5
    damping: float = 2.0            # p.u. on machine base (lumped damper
                                    # winding + load relief in a classical model)
    coupling_x: float = 0.3         # machine coupling reactance, machine p.u.
    reserve_fraction: float = 0.25  # primary reserve, fraction of set-point
    droop: float = 0.05             # permanent speed droop (both unit types)
    load_scale: float = 1.0         # operating point: forecast = load_mw * scale
    wind_schedule_pu: float = 0.8   # scheduled wind, p.u. of rating
    wind_minute_sigma: float = 0.03     # synthetic minute-walk step std
    wind_resample_sigma: float = 0.002  # per-second increment std (resampler)
    load_slow_sigma: float = 0.004      # load multiplier minute-walk std
    load_fast_sigma: float = 0.002      # load multiplier per-second std
    ufls_enabled: bool = True
    ufls_delay: float = 0.15
    # Restoration is committed only after the local frequency has held
    # above the threshold this long; practical schemes reconnect load far
    # more cautiously than they shed it.
    ufls_restore_delay: float = 10.0
    freq_filter_tau: float = 0.05
    error_cdf: str = "placeholder"  # 'placeholder' | 'zero' | CSV path

    @classmethod
    def from_model(cls, model: GridModel, **overrides) -> "SimParams":
        known = {f.name for f in fields(cls)}
        unknown = set(model.sim_params) - known
        if unknown:
            raise GridConfigError(f"unknown simulation parameters: {sorted(unknown)}")
        return cls(**{**model.sim_params, **overrides})


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def _bus_seed(master: int, bus: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=(master, bus, stream))


@dataclass(frozen=True)
class ProfileSet:
    """Per-bus 1 s series for one scenario run (shared by paired A/B runs)."""

    wind_mw: dict[int, np.ndarray]         # realized wind per wind bus
    load_mw: dict[int, np.ndarray]         # realized (pre-shed) load per load bus
    battery_eps: dict[int, np.ndarray]     # per dispatched bus, per second

    def fingerprint(self) -> str:
        """Hash of the stochastic wind/load realizations (seed-pairing check)."""
        h = hashlib.sha256()
        for bus in sorted(self.wind_mw):
            h.update(self.wind_mw[bus].tobytes())
        for bus in sorted(self.load_mw):
            h.update(self.load_mw[bus].tobytes())
        return h.hexdigest()


def build_profiles(model: GridModel, scenario: Scenario, params: SimParams,
                   overrides: dict | None = None) -> ProfileSet:
    """Generate (or take over) all per-bus profiles for one run.

    ``overrides`` maps bus id to {'wind': array, 'load': array} of 1-s
    values in MW, bypassing synthesis for that bus; an override for a
    profile the grid does not have is an error.  With the four noise
    sigmas at 0 every profile is flat at its schedule.
    """
    overrides = overrides or {}
    for bus, ov in overrides.items():
        spec = model.buses[model.bus_pos[bus]] if bus in model.bus_pos else None
        have = {"wind": spec.wind_mw, "load": spec.load_mw} if spec else {}
        for key in ov:
            if have.get(key) is None:
                raise ProfileError(f"bus {bus}: no {key!r} profile to override")
    n_seconds = scenario.n_seconds
    n_minutes = n_seconds // 60 + 2
    wind_mw: dict[int, np.ndarray] = {}
    load_mw: dict[int, np.ndarray] = {}
    eps: dict[int, np.ndarray] = {}

    cdf = _resolve_error_cdf(params)

    for b in model.buses:
        ov = overrides.get(b.id, {})
        if b.wind_mw is not None:
            if "wind" in ov:
                wind_mw[b.id] = _checked_override(ov["wind"], n_seconds, b.id)
            else:
                src = synthetic_minute_walk(
                    n_minutes, start=params.wind_schedule_pu,
                    sigma=params.wind_minute_sigma,
                    seed=_bus_seed(scenario.seed, b.id, 1))
                pu = resample_wind(src, params.wind_resample_sigma,
                                   _bus_seed(scenario.seed, b.id, 2))
                wind_mw[b.id] = scale_wind(pu, b.wind_mw)
        if b.load_mw is not None:
            if "load" in ov:
                load_mw[b.id] = _checked_override(ov["load"], n_seconds, b.id)
            else:
                mult = synthetic_second_multiplier(
                    n_seconds, sigma_slow=params.load_slow_sigma,
                    sigma_fast=params.load_fast_sigma,
                    seed=_bus_seed(scenario.seed, b.id, 3))
                load_mw[b.id] = make_load_profile(mult, b.load_mw * params.load_scale)
        if b.dispatched:
            rng = np.random.default_rng(_bus_seed(scenario.seed, b.id, 4))
            eps[b.id] = cdf.sample(rng, n_seconds)

    return ProfileSet(wind_mw=wind_mw, load_mw=load_mw, battery_eps=eps)


def _checked_override(values, n_seconds: int, bus: int) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or len(v) < n_seconds or not np.all(np.isfinite(v)):
        raise ProfileError(f"bus {bus}: a profile override needs {n_seconds} "
                           f"finite 1-s samples in one dimension, got shape {v.shape}")
    return v


def _resolve_error_cdf(params: SimParams) -> dispatch_mod.ErrorCdf:
    if params.error_cdf == "zero":
        return dispatch_mod.zero_error_cdf()
    if params.error_cdf == "placeholder":
        return dispatch_mod.placeholder_error_cdf()
    return dispatch_mod.ErrorCdf.from_csv(params.error_cdf)


# ---------------------------------------------------------------------------
# system state: flat per-member arrays and per-kind governor banks
# ---------------------------------------------------------------------------

@dataclass
class _Bank:
    """The units of one machine kind in every member, fixed for the run:
    positions in the flat machine arrays, parameters, step constants and
    governor state, each field an array over those entries or a scalar
    they share.  A tripped unit's governor keeps stepping; nothing reads
    its output."""

    idx: np.ndarray
    params: object                  # SteamParams | HydroParams
    k: object                       # SteamConstants | HydroConstants
    gov: object                     # SteamGovState | HydroGovState


@dataclass
class _Online:
    """Per-machine values of the online machines, fixed until a trip."""

    idx: np.ndarray                 # flat machine positions
    off: np.ndarray                 # bool mask of the tripped machines
    bus: np.ndarray                 # their flat bus positions
    b_coupling: np.ndarray
    rating: np.ndarray
    two_h: np.ndarray
    d: np.ndarray


@dataclass
class _Injections:
    """Net non-machine bus injections of one profile second at the
    current shed levels, fixed until the second changes or a relay commits."""

    sec: int
    mw: np.ndarray                  # flat per bus
    pu: np.ndarray                  # mw / base_mva
    member_mw: np.ndarray           # sum over each member's buses


@dataclass
class SystemState:
    """Mutable state of members that share grid, parameters and events.

    Per-machine and per-bus arrays are flat and member-major (entry
    ``m * n_gen + g`` is generator ``g`` of member ``m``); per-second
    injection arrays have one row per profile second and, member-major,
    one column per bus of their kind.
    """

    model: GridModel
    params: SimParams
    n_members: int
    dt: float                       # integration step, s
    gen_bus: np.ndarray             # flat bus position of each machine
    rating: np.ndarray              # MVA
    two_h: np.ndarray               # twice the inertia, s on machine base
    d: np.ndarray                   # damping, machine p.u.
    b_coupling: np.ndarray          # p.u. on system base
    rotor: np.ndarray               # rows: rotor angle (rad), speed deviation (p.u.)
    p_mech: np.ndarray              # mechanical power, machine p.u. (0 once tripped)
    p_elec: np.ndarray              # last electrical power, machine p.u.
    online: np.ndarray              # bool; a trip takes a generator off in every member
    banks: dict[str, _Bank]         # governor bank per kind: 'thermal', 'hydro'
    relays: list[UflsRelayState]    # one per load bus of each member
    load_bus_idx: np.ndarray        # flat bus positions
    load_mw: np.ndarray             # expected (pre-shed) load
    wind_bus_idx: np.ndarray
    wind_mw: np.ndarray
    battery_bus_idx: np.ndarray     # dispatched buses
    battery_mw: np.ndarray          # zero in case A
    est_filt: np.ndarray            # filtered d(theta)/dt per bus, rad/s
    freq: np.ndarray                # estimated bus frequencies, Hz
    max_residual: np.ndarray        # largest solve residual per member
    _b_full: sp.csr_matrix
    theta: np.ndarray | None = None     # bus angles of the last solve, rad
    clock: float = 0.0
    # set by refactorize at every topology change
    _b_aug_lu: object = None
    _on: _Online | None = None
    # injections the next step reuses; None has it rebuild them
    _inj: _Injections | None = None

    @property
    def speed_dev(self) -> np.ndarray:
        return self.rotor[1]

    def refactorize(self) -> None:
        n_gen = len(self.model.generators)
        on = self.online[:n_gen]
        diag = np.zeros(len(self.model.buses))
        diag[self.gen_bus[:n_gen][on]] += self.b_coupling[:n_gen][on]
        b_aug = (self._b_full + sp.diags(diag)).tocsc()
        try:
            self._b_aug_lu = spla.splu(b_aug)
        except RuntimeError as exc:
            raise IslandingError(f"network solve singular: {exc}") from exc
        self._b_aug = b_aug
        idx = self.online.nonzero()[0]
        self._on = _Online(idx=idx, off=~self.online, bus=self.gen_bus[idx],
                           b_coupling=self.b_coupling[idx], rating=self.rating[idx],
                           two_h=self.two_h[idx], d=self.d[idx])

    def injections(self, sec: int) -> _Injections:
        """Net non-machine bus injections of profile second ``sec`` at the
        committed shed levels, accumulated load, wind, battery."""
        inj = np.zeros(len(self.freq))
        inj[self.load_bus_idx] -= self.load_mw[sec] * (1.0 - self.shed_levels())
        inj[self.wind_bus_idx] += self.wind_mw[sec]
        inj[self.battery_bus_idx] += self.battery_mw[sec]
        return _Injections(sec, inj, inj / self.model.base_mva,
                           self.per_member(inj).sum(axis=1))

    def per_member(self, flat: np.ndarray) -> np.ndarray:
        """A flat per-bus or per-machine array as one row per member."""
        return flat.reshape(self.n_members, -1)

    def shed_levels(self) -> np.ndarray:
        """Committed shed fraction per load bus, flat like ``load_bus_idx``."""
        return np.array([r.level for r in self.relays])


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def _machine_params(gen, params: SimParams):
    ov = gen.overrides
    if gen.kind == "thermal":
        base, h = mach.SteamParams(gain=1.0 / params.droop), params.h_thermal
    else:
        base, h = mach.HydroParams(droop=params.droop), params.h_hydro
    kind_keys = {f.name for f in fields(base)}
    unused = set(ov) - kind_keys - {"h", "d", "coupling_x"}
    if unused:
        raise GridConfigError(f"generator {gen.id}: {gen.kind} units take no "
                              f"parameters {sorted(unused)}")
    mp = replace(base, **{k: v for k, v in ov.items() if k in kind_keys})
    if gen.kind == "hydro":
        mp = replace(mp, a_t=mp.turbine_gain)
    h = float(ov.get("h", h))
    d = float(ov.get("d", params.damping))
    x = float(ov.get("coupling_x", params.coupling_x))
    return mp, h, d, x


def _stack(cls, units: list):
    """Array-valued ``cls`` parameters with one element per unit."""
    return cls(**{f.name: np.array([getattr(u, f.name) for u in units])
                  for f in fields(cls)})


def _per_second(values: list[np.ndarray], n_seconds: int) -> np.ndarray:
    out = np.empty((n_seconds, len(values)))
    for j, v in enumerate(values):
        out[:, j] = v[:n_seconds]
    return out


def init_system(model: GridModel, scenarios: list[Scenario], params: SimParams,
                profiles: list[ProfileSet]) -> SystemState:
    """Dispatch generation to the forecast operating point and build the
    equilibrium state of one member per (scenario, profiles) pair.

    The members step together, so their scenarios must share events,
    duration and step sizes, and name only generators of ``model``;
    otherwise this raises ``ScenarioError``.  The forecast operating point
    depends only on the grid and the parameters, so every member starts
    from the same equilibrium.
    """
    if not scenarios or len(profiles) != len(scenarios):
        raise ScenarioError(f"{len(scenarios)} scenarios and {len(profiles)} "
                            f"profile sets: need one per member, at least one")
    for sc in scenarios:
        sc.validate_against(model)
    if len({replace(sc, name="", case="A", seed=0) for sc in scenarios}) > 1:
        raise ScenarioError("an ensemble's members need the same events, "
                            "duration and steps")
    n = len(model.buses)
    n_members = len(scenarios)
    idx = model.bus_pos

    # scheduled wind and forecast load, summed by Python in bus order:
    # np.sum is pairwise and would move the operating point's last bit
    wind_sched = {b.id: b.wind_mw * params.wind_schedule_pu for b in model.wind_buses}
    load_sched = {b.id: b.load_mw * params.load_scale for b in model.load_buses}
    total_load = sum(load_sched.values())
    total_wind = sum(wind_sched.values())
    gens = model.generators
    total_rating = sum(g.rating_mva for g in gens)
    p_conv = total_load - total_wind
    if p_conv < 0:
        raise ScenarioError("scheduled wind exceeds scheduled load")
    loading = p_conv / total_rating          # identical machine p.u. set-point

    inj = np.zeros(n)
    for bus, w in wind_sched.items():
        inj[idx[bus]] += w
    for bus, l in load_sched.items():
        inj[idx[bus]] -= l
    for g in gens:
        inj[idx[g.bus]] += loading * g.rating_mva

    b_red = build_susceptance_matrix(model)
    theta0 = solve_dc_flow(b_red, inj, model)

    mp, h, d, x = zip(*(_machine_params(g, params) for g in gens))
    h, d, x = np.array(h), np.array(d), np.array(x)
    if np.any(h <= 0):
        raise GridConfigError("inertia constant must be positive")
    rating = np.array([g.rating_mva for g in gens])
    gen_bus = np.array([idx[g.bus] for g in gens], dtype=int)
    b_coupling = rating / (x * model.base_mva)
    p_e_sys = loading * rating / model.base_mva
    delta = theta0[gen_bus] + p_e_sys / b_coupling

    def flat(positions, width: int) -> np.ndarray:
        """``positions`` within one member, repeated for every member."""
        return np.array([m * width + i for m in range(n_members)
                         for i in positions], dtype=int)

    reserve = params.reserve_fraction * loading
    dt = scenarios[0].dt_s
    banks = {}
    for kind, cls, constants, gov_init in (
            ("thermal", mach.SteamParams, mach.steam_constants, mach.steam_init),
            ("hydro", mach.HydroParams, mach.hydro_constants, mach.hydro_init)):
        units = [j for j, g in enumerate(gens) if g.kind == kind]
        bank_params = _stack(cls, [mp[j] for _ in range(n_members) for j in units])
        banks[kind] = _Bank(idx=flat(units, len(gens)), params=bank_params,
                            k=constants(bank_params, dt),
                            gov=gov_init(np.full(n_members * len(units), loading),
                                         bank_params, reserve))

    # per-second non-machine injections; batteries act in case B only
    n_seconds = scenarios[0].n_seconds
    dispatched = [b.id for b in model.buses if b.dispatched]
    battery = np.zeros((n_seconds, n_members * len(dispatched)))
    for m, (sc, prof) in enumerate(zip(scenarios, profiles)):
        for j, bus in enumerate(dispatched if sc.case == "B" else ()):
            w_ts = prof.wind_mw[bus][:n_seconds] if bus in prof.wind_mw else 0.0
            l_ts = prof.load_mw[bus][:n_seconds] if bus in prof.load_mw else 0.0
            b_star = dispatch_mod.ideal_battery_injection(
                wind_sched.get(bus, 0.0), load_sched.get(bus, 0.0), w_ts, l_ts)
            battery[:, m * len(dispatched) + j] = dispatch_mod.perturb_injection(
                b_star, prof.battery_eps[bus][:n_seconds])
    n_gen = len(gens)
    state = SystemState(
        model=model, params=params, n_members=n_members, dt=dt,
        gen_bus=flat(gen_bus, n), rating=np.tile(rating, n_members),
        two_h=np.tile(2.0 * h, n_members), d=np.tile(d, n_members),
        b_coupling=np.tile(b_coupling, n_members),
        rotor=np.stack((np.tile(delta, n_members), np.zeros(n_members * n_gen))),
        p_mech=np.full(n_members * n_gen, loading),
        p_elec=np.full(n_members * n_gen, loading),
        online=np.ones(n_members * n_gen, dtype=bool), banks=banks,
        relays=[UflsRelayState(bus=b.id, f0=model.f0, delay=params.ufls_delay,
                               restore_delay=params.ufls_restore_delay)
                for _ in profiles for b in model.load_buses],
        load_bus_idx=flat([idx[b.id] for b in model.load_buses], n),
        load_mw=_per_second([p.load_mw[b.id] for p in profiles
                             for b in model.load_buses], n_seconds),
        wind_bus_idx=flat([idx[b.id] for b in model.wind_buses], n),
        wind_mw=_per_second([p.wind_mw[b.id] for p in profiles
                             for b in model.wind_buses], n_seconds),
        battery_bus_idx=flat([idx[bus] for bus in dispatched], n),
        battery_mw=battery,
        est_filt=np.zeros(n_members * n), freq=np.full(n_members * n, model.f0),
        max_residual=np.zeros(n_members),
        _b_full=build_full_susceptance_matrix(model))
    state.refactorize()
    return state


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def step_system(state: SystemState) -> dict:
    """Advance every member one step of ``state.dt``; returns per-step
    records, each the largest over the members.

    Order: profile values -> shed application -> network solve ->
    electrical powers -> machine dynamics -> frequency estimation -> relays.
    """
    model = state.model
    base = model.base_mva
    dt = state.dt
    sec = int(state.clock)
    if state._inj is None or state._inj.sec != sec:
        state._inj = state.injections(sec)
    inj = state._inj
    p_inj = inj.pu

    def solve(rhs):
        # one right-hand side per member
        return state._b_aug_lu.solve(state.per_member(rhs).T).T.ravel()

    on = state._on
    bus_on, b_on, rating = on.bus, on.b_coupling, on.rating
    x0 = state.rotor[:, on.idx]             # online angles and speeds
    rhs = p_inj.copy()
    rhs[bus_on] += b_on * x0[0]
    theta = solve(rhs)
    if not np.isfinite(theta).all():
        raise IslandingError(f"network solve produced non-finite angles at "
                             f"t={state.clock:.2f}s")
    residual = np.abs(state._b_aug @ state.per_member(theta).T
                      - state.per_member(rhs).T).max(axis=0)
    np.maximum(state.max_residual, residual, out=state.max_residual)

    pe_sys0 = b_on * (x0[0] - theta[bus_on])
    state.p_elec[on.idx] = pe_sys0 * base / rating

    # governors see a midpoint estimate of the speed deviation (one
    # explicit half-step of the swing equation), turbine stages couple
    # through step-averaged inputs, and the swing integration below uses
    # the average of the old and new mechanical power: every cross-block
    # coupling is second-order accurate in dt
    w = state.rotor[1]
    dw = w + 0.5 * dt * ((state.p_mech - state.p_elec - state.d * w) / state.two_h)
    p_m = np.zeros(len(state.online))
    steam, hydro = state.banks["thermal"], state.banks["hydro"]
    valve_prev = steam.gov.valve
    mach.steam_governor_step(steam.gov, steam.params, dw[steam.idx], steam.k)
    p_m[steam.idx] = mach.steam_turbine_step(steam.gov, steam.params, steam.k,
                                             valve_prev=valve_prev)
    gate_prev = hydro.gov.gate
    mach.hydro_governor_step(hydro.gov, hydro.params, dw[hydro.idx], hydro.k)
    p_m[hydro.idx] = mach.hydro_turbine_step(hydro.gov, hydro.params, hydro.k,
                                             gate_prev=gate_prev)
    # an assignment: scaling by ``online`` would write -0.0
    p_m[on.off] = 0.0
    p_m_eff = 0.5 * (state.p_mech[on.idx] + p_m[on.idx])

    # coupled RK4 over all rotor angles and speeds, stacked as rows of
    # one array; the network algebraic constraint is re-solved at every
    # stage so the synchronizing power is exact, not linearized about the
    # step's starting point
    ws = 2.0 * math.pi * model.f0

    def derivs(x, theta_stage=None):
        if theta_stage is None:
            stage_rhs = p_inj.copy()
            stage_rhs[bus_on] += b_on * x[0]
            theta_stage = solve(stage_rhs)
        pe = (b_on * (x[0] - theta_stage[bus_on])) * base / rating
        k = np.empty_like(x)
        np.multiply(ws, x[1], out=k[0])
        k[1] = (p_m_eff - pe - on.d * x[1]) / on.two_h
        return k

    k1 = derivs(x0, theta_stage=theta)
    k2 = derivs(x0 + 0.5 * dt * k1)
    k3 = derivs(x0 + 0.5 * dt * k2)
    k4 = derivs(x0 + dt * k3)
    state.rotor[:, on.idx] = x0 + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    state.p_mech = p_m

    state.est_filt, state.freq = estimate_frequency(
        theta, state.theta, state.est_filt, dt, state.params.freq_filter_tau,
        model.f0)
    state.theta = theta

    if state.params.ufls_enabled:
        f_load = state.freq[state.load_bus_idx].tolist()
        relays = [ufls_step(r, f, dt) for r, f in zip(state.relays, f_load)]
        # an idle relay returns itself, so the lists are mostly identical
        if relays != state.relays and any(
                new.level != old.level for new, old in zip(relays, state.relays)):
            state._inj = None
        state.relays = relays

    state.clock += dt
    # lossless DC bookkeeping: machine generation balances the net
    # non-machine injections exactly (Laplacian row sums are zero)
    balance_mw = inj.member_mw + state.per_member(pe_sys0).sum(axis=1) * base
    return {"residual": float(residual.max()),
            "balance_mw": float(np.abs(balance_mw).max())}


def apply_contingency(state: SystemState, event: ContingencyEvent) -> None:
    """Trip a generator in every member: take it off the network."""
    gens = state.model.generators
    ids = [g.id for g in gens]
    if event.generator not in ids:
        raise ScenarioError(f"unknown generator {event.generator}")
    g = ids.index(event.generator)
    if not state.online[g]:
        logger.warning("generator %s already offline; trip ignored",
                       event.generator)
        return
    n_gen = len(gens)
    state.online[g::n_gen] = False
    state.p_mech[g::n_gen] = state.p_elec[g::n_gen] = 0.0
    state.refactorize()
    logger.info("t=%.2fs: tripped %s (%.0f MVA)", state.clock,
                event.generator, state.rating[g])


# ---------------------------------------------------------------------------
# trajectory and scenario runner
# ---------------------------------------------------------------------------

_CSV_BLOCK_ROWS = 1000


@dataclass
class Trajectory:
    """Uniform-grid record of one scenario run."""

    scenario_name: str
    case: str
    seed: int
    dt_out: float
    bus_ids: list[int]
    gen_ids: list[str]
    load_bus_ids: list[int]
    wind_bus_ids: list[int]
    dispatched_bus_ids: list[int]
    times: np.ndarray
    bus_freq: np.ndarray            # (n_rec, n_bus)
    gen_p_mech: np.ndarray          # (n_rec, n_gen), machine p.u.
    gen_p_elec: np.ndarray
    gen_speed_dev: np.ndarray
    gen_online: np.ndarray
    load_expected_mw: np.ndarray    # (n_rec, n_load)
    load_served_mw: np.ndarray
    shed_level: np.ndarray
    wind_mw: np.ndarray             # (n_rec, n_wind)
    battery_mw: np.ndarray          # (n_rec, n_dispatched)
    max_residual: float = 0.0
    profile_fingerprint: str = ""

    def min_frequency(self) -> float:
        return float(self.bus_freq.min())

    def to_csv(self, path: str | Path) -> None:
        cols = ["time"]
        cols += [f"f_bus{b}" for b in self.bus_ids]
        for g in self.gen_ids:
            cols += [f"{g}_pm", f"{g}_pe", f"{g}_dw"]
        for b in self.load_bus_ids:
            cols += [f"load{b}_expected", f"load{b}_served", f"load{b}_shed"]
        cols += [f"wind{b}" for b in self.wind_bus_ids]
        cols += [f"bat{b}" for b in self.dispatched_bus_ids]
        triples = ((self.gen_p_mech, self.gen_p_elec, self.gen_speed_dev),
                   (self.load_expected_mw, self.load_served_mw, self.shed_level))
        n_wind = self.wind_mw.shape[1]
        # written in blocks of rows, each filled in place: a copy of the
        # whole table, or stacked copies of the triples, would raise the
        # peak memory of an export
        with open(path, "w", newline="") as f:
            f.write(",".join(cols) + "\n")
            for start in range(0, len(self.times), _CSV_BLOCK_ROWS):
                rows = slice(start, start + _CSV_BLOCK_ROWS)
                block = np.empty((len(self.times[rows]), len(cols)))
                c = 1 + len(self.bus_ids)
                block[:, 0], block[:, 1:c] = self.times[rows], self.bus_freq[rows]
                for triple in triples:
                    width = 3 * triple[0].shape[1]
                    for k, a in enumerate(triple):
                        block[:, c + k:c + width:3] = a[rows]
                    c += width
                block[:, c:c + n_wind] = self.wind_mw[rows]
                block[:, c + n_wind:] = self.battery_mw[rows]
                np.savetxt(f, block, fmt="%.10g", delimiter=",")


def run_scenario(model: GridModel, scenario: Scenario,
                 params: SimParams | None = None,
                 profiles: ProfileSet | None = None) -> Trajectory:
    """Run one scenario to completion.

    Case A and Case B runs with the same seed consume identical wind and
    load realizations; Case B additionally activates batteries at the
    dispatched buses (paired-comparison design).
    """
    return run_ensemble(model, [scenario], params,
                        None if profiles is None else [profiles])[0]


def run_ensemble(model: GridModel, scenarios: list[Scenario],
                 params: SimParams | None = None,
                 profiles: list[ProfileSet] | None = None) -> list[Trajectory]:
    """Run scenarios that share an event schedule as one batch.

    The members (any mix of seeds and cases) step side by side through
    one factorization and one Python loop per step; each member's
    trajectory is bit for bit the one ``run_scenario`` gives for it.
    """
    if params is None:
        params = SimParams.from_model(model)
    if profiles is None:
        profiles = [build_profiles(model, sc, params) for sc in scenarios]

    state = init_system(model, scenarios, params, profiles)
    first = scenarios[0]
    dt = first.dt_s
    dec = first.steps_per_record
    n_rec = first.n_steps // dec + 1
    due: dict[int, list[ContingencyEvent]] = {}
    for ev in sorted(first.events, key=lambda e: e.time_s):
        due.setdefault(first.event_step(ev), []).append(ev)

    def channels() -> dict[str, np.ndarray]:
        """Each recorded ``Trajectory`` field as a flat state array."""
        sec = int(min(state.clock, first.duration_s - dt))
        shed = state.shed_levels()
        return {"bus_freq": state.freq, "gen_p_mech": state.p_mech,
                "gen_p_elec": state.p_elec, "gen_speed_dev": state.speed_dev,
                "gen_online": state.online,
                "load_expected_mw": state.load_mw[sec],
                "load_served_mw": state.load_mw[sec] * (1.0 - shed),
                "shed_level": shed, "wind_mw": state.wind_mw[sec],
                "battery_mw": state.battery_mw[sec]}

    times = np.empty(n_rec)
    recorded = {name: np.empty((state.n_members, n_rec, a.size // state.n_members))
                for name, a in channels().items()}

    def record(k_rec: int) -> None:
        times[k_rec] = round(state.clock, 9)
        for name, a in channels().items():
            recorded[name][:, k_rec] = state.per_member(a)

    record(0)
    for k in range(first.n_steps):
        for ev in due.get(k, ()):
            apply_contingency(state, ev)
        step_system(state)
        if (k + 1) % dec == 0:
            record((k + 1) // dec)

    return [Trajectory(
        scenario_name=sc.name, case=sc.case, seed=sc.seed,
        dt_out=dec * dt, bus_ids=[b.id for b in model.buses],
        gen_ids=[g.id for g in model.generators],
        load_bus_ids=[b.id for b in model.load_buses],
        wind_bus_ids=[b.id for b in model.wind_buses],
        dispatched_bus_ids=[b.id for b in model.buses if b.dispatched],
        times=times.copy(), **{name: a[j] for name, a in recorded.items()},
        max_residual=float(state.max_residual[j]),
        profile_fingerprint=profiles[j].fingerprint(),
    ) for j, sc in enumerate(scenarios)]
