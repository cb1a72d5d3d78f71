"""Per-layer tracing by patching gridfreq's module attributes in-process.

The program's source is left unchanged: each layer's public functions
are replaced by timing wrappers for the life of a ``Tracer.installed()``
block and restored afterwards.  Coarse boundaries (workload, member,
run_scenario, init, trip, export) are recorded as spans; the roughly one
million machine and relay calls of a run only bump counters, and step
latency goes into a log-spaced histogram.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import math
import time

_clock = time.perf_counter

# step-latency histogram: bin k holds latencies in [G^k, G^(k+1)) microseconds
_HIST_GROWTH = 1.01
_HIST_BINS = 2000


class _Layer:
    __slots__ = ("calls", "s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0


class _CountingLU:
    """Stands in for the SuperLU object so each solve is counted and timed."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        return self._tracer._leaf_call(self._tracer.solve, self._lu.solve,
                                       rhs, *args, **kwargs)


class _SplaProxy:
    """``scipy.sparse.linalg`` as the engine sees it, with ``splu`` wrapped."""

    def __init__(self, spla, tracer: "Tracer"):
        self._spla = spla
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._spla, name)

    def splu(self, *args, **kwargs):
        lu = self._tracer._leaf_call(self._tracer.factor, self._spla.splu,
                                     *args, **kwargs)
        return _CountingLU(lu, self._tracer)


class Tracer:
    """Counters, a step-latency histogram and coarse spans for one process.

    A disabled tracer records nothing and patches nothing, so the same
    workload code runs with tracing off.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._nested = 0.0          # leaf time inside the current step
        self.load = _Layer()        # load_grid_config
        self.profiles = _Layer()    # build_profiles
        self.factor = _Layer()      # splu
        self.solve = _Layer()       # SuperLU.solve
        self.hydro = _Layer()       # hydro governor and turbine steps
        self.steam = _Layer()       # steam governor and turbine steps
        self.relay = _Layer()       # ufls_step
        self.dispatch = _Layer()    # battery injection
        self.init = _Layer()        # init_system
        self.trip = _Layer()        # apply_contingency
        self.step = _Layer()        # step_system
        self.metrics = _Layer()     # compute_metrics
        self.run = _Layer()         # run_scenario, timed by the caller's span
        self.to_csv = _Layer()      # Trajectory.to_csv, timed by the caller's span
        self.to_csv_bytes = 0
        self.commits = 0
        self.metrics_errors = 0
        self.step_self_s = 0.0
        self.balance_mw_max = 0.0
        self.residual_max = 0.0
        self.hist = [0] * _HIST_BINS

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, layer: _Layer | None = None):
        """Record a span around the block, its parent being the open span."""
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append({"name": name, "start": _clock(), "end": None,
                           "parent": parent})
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            rec = self.spans[idx]
            rec["end"] = _clock()
            if layer is not None:
                layer.calls += 1
                layer.s += rec["end"] - rec["start"]

    # -- wrappers ----------------------------------------------------------

    def _leaf_call(self, layer: _Layer, fn, *args, **kwargs):
        t = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _clock() - t
            layer.calls += 1
            layer.s += dt
            self._nested += dt

    def _leaf(self, layer: _Layer, fn):
        def wrapper(*args, **kwargs):
            return self._leaf_call(layer, fn, *args, **kwargs)
        return wrapper

    def _spanned(self, name: str, layer: _Layer, fn):
        def wrapper(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)
        return wrapper

    def _relay(self, fn):
        layer = self.relay

        def wrapper(r, f_meas, dt):
            out = self._leaf_call(layer, fn, r, f_meas, dt)
            if out.level != r.level:
                self.commits += 1
            return out
        return wrapper

    def _step(self, fn):
        layer, hist = self.step, self.hist
        log_growth = math.log(_HIST_GROWTH)

        def wrapper(*args, **kwargs):
            self._nested = 0.0
            t = _clock()
            out = fn(*args, **kwargs)
            dt = _clock() - t
            layer.calls += 1
            layer.s += dt
            self.step_self_s += dt - self._nested
            k = int(math.log(max(dt * 1e6, 1.0)) / log_growth)
            hist[min(k, _HIST_BINS - 1)] += 1
            self.balance_mw_max = max(self.balance_mw_max, abs(out["balance_mw"]))
            self.residual_max = max(self.residual_max, out["residual"])
            return out
        return wrapper

    def _metrics(self, fn):
        def wrapper(*args, **kwargs):
            try:
                return self._leaf_call(self.metrics, fn, *args, **kwargs)
            except Exception:
                self.metrics_errors += 1
                raise
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch gridfreq's layer functions for the duration of the block."""
        if not self.enabled:
            yield self
            return
        import gridfreq
        from gridfreq import dispatch, engine, grid, machines, metrics

        patches = [
            (gridfreq, "load_grid_config", self._leaf(self.load, grid.load_grid_config)),
            (gridfreq, "build_profiles", self._leaf(self.profiles, engine.build_profiles)),
            (engine, "spla", _SplaProxy(engine.spla, self)),
            (engine, "init_system", self._spanned("init", self.init, engine.init_system)),
            (engine, "apply_contingency",
             self._spanned("trip", self.trip, engine.apply_contingency)),
            (engine, "step_system", self._step(engine.step_system)),
            (engine, "ufls_step", self._relay(engine.ufls_step)),
            (metrics, "compute_metrics", self._metrics(metrics.compute_metrics)),
        ]
        patches += [(machines, fn, self._leaf(self.hydro, getattr(machines, fn)))
                    for fn in ("hydro_governor_step", "hydro_turbine_step")]
        patches += [(machines, fn, self._leaf(self.steam, getattr(machines, fn)))
                    for fn in ("steam_governor_step", "steam_turbine_step")]
        patches += [(dispatch, fn, self._leaf(self.dispatch, getattr(dispatch, fn)))
                    for fn in ("ideal_battery_injection", "perturb_injection")]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, new in patches:
                setattr(mod, attr, new)
            yield self
        finally:
            for mod, attr, old in saved:
                setattr(mod, attr, old)

    # -- results -----------------------------------------------------------

    def step_us_quantile(self, q: float) -> float:
        """Step latency at quantile ``q`` from the histogram, in microseconds."""
        cum = list(itertools.accumulate(self.hist))
        if cum[-1] == 0:
            return 0.0
        k = bisect.bisect_left(cum, q * cum[-1])
        return _HIST_GROWTH ** (k + 0.5)

    def results(self) -> dict:
        """Per-layer figures as ``{name: {"value", "unit"}}``, bar the overhead."""
        steps = self.step.calls
        figures = [
            ("grid.load_s", self.load.s, "s"),
            ("profiles.build_s", self.profiles.s, "s"),
            ("profiles.members", self.profiles.calls, "count"),
            ("grid.factorizations", self.factor.calls, "count"),
            ("grid.factor_s", self.factor.s, "s"),
            ("grid.solves", self.solve.calls, "count"),
            ("grid.solves_per_step", self.solve.calls / steps if steps else 0.0,
             "1/step"),
            ("grid.solve_s", self.solve.s, "s"),
            ("grid.residual_max", self.residual_max, "pu"),
            ("machines.hydro_calls", self.hydro.calls, "count"),
            ("machines.hydro_s", self.hydro.s, "s"),
            ("machines.steam_calls", self.steam.calls, "count"),
            ("machines.steam_s", self.steam.s, "s"),
            ("protection.relay_steps", self.relay.calls, "count"),
            ("protection.relay_s", self.relay.s, "s"),
            ("protection.commits", self.commits, "count"),
            ("dispatch.calls", self.dispatch.calls, "count"),
            ("dispatch.s", self.dispatch.s, "s"),
            ("engine.init_s", self.init.s, "s"),
            ("engine.trips", self.trip.calls, "count"),
            ("engine.trip_s", self.trip.s, "s"),
            ("engine.steps", steps, "count"),
            ("engine.step_s", self.step.s, "s"),
            ("engine.step_us.p50", self.step_us_quantile(0.50), "us"),
            ("engine.step_us.p99", self.step_us_quantile(0.99), "us"),
            ("engine.step_self_s", self.step_self_s, "s"),
            ("engine.balance_mw_max", self.balance_mw_max, "MW"),
            ("engine.loop_other_s",
             self.run.s - self.init.s - self.step.s - self.trip.s, "s"),
            ("engine.to_csv_s", self.to_csv.s, "s"),
            ("engine.to_csv_mb", self.to_csv_bytes / 1e6, "MB"),
            ("metrics.calls", self.metrics.calls, "count"),
            ("metrics.errors", self.metrics_errors, "count"),
            ("metrics.s", self.metrics.s, "s"),
        ]
        return {name: {"value": value, "unit": unit} for name, value, unit in figures}
