"""Reliability metrics and case-comparison reporting.

Three metrics summarize a run: the maximum shed fraction of total
expected load (R_ls), the total duration with any load shed (T_ls), and
the energy not served (EENS, trapezoidal integral of curtailed power).
The expected (unshed) load realization is the counterfactual baseline
for EENS.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .engine import Trajectory
from .schema import METRICS, METRICS_VERSION as SCHEMA_VERSION, check

class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class ShedEvent:
    trigger_s: float
    clear_s: float
    max_level: float

    @property
    def duration_s(self) -> float:
        return self.clear_s - self.trigger_s


@dataclass(frozen=True)
class Metrics:
    r_ls: float                      # max shed fraction of expected load
    t_ls_s: float                    # total shedding duration
    eens_mwh: float
    events: tuple[ShedEvent, ...] = ()
    scenario: str = ""
    case: str = ""
    seed: int = 0

    def __post_init__(self):
        check(METRICS, {**vars(self), "events": [vars(e) for e in self.events]},
              "metrics", MetricsError)


def compute_metrics(tr: Trajectory) -> Metrics:
    """Shed-rate, duration and EENS metrics from one trajectory."""
    if tr.load_expected_mw.size == 0:
        raise MetricsError("trajectory has no expected-load channel")
    t = tr.times
    expected = tr.load_expected_mw.sum(axis=1)
    served = tr.load_served_mw.sum(axis=1)
    level = tr.shed_level.max(axis=1)           # the deepest shed of each record
    unserved = expected - served
    if np.any(expected <= 0):
        raise MetricsError("expected load must be positive")

    r_ls = float((unserved / expected).max())
    dt = tr.dt_out
    shedding = level > 0
    t_ls = float(np.count_nonzero(shedding) * dt)
    eens = float(np.trapezoid(unserved, t)) / 3600.0

    # an event is a run of shedding records, from where the mask rises to
    # where it falls, at the latest one output step after the last record
    edges = np.diff(shedding, prepend=False, append=False).nonzero()[0]
    t_clear = np.append(t, t[-1] + dt)
    events = tuple(ShedEvent(trigger_s=float(t[a]), clear_s=float(t_clear[b]),
                             max_level=float(level[a:b].max()))
                   for a, b in zip(edges[::2], edges[1::2]))

    return Metrics(r_ls=r_ls, t_ls_s=t_ls, eens_mwh=max(eens, 0.0),
                   events=events, scenario=tr.scenario_name,
                   case=tr.case, seed=tr.seed)


@dataclass(frozen=True)
class CaseComparison:
    a: Metrics
    b: Metrics

    @property
    def eens_ratio(self) -> float:
        return self.a.eens_mwh / self.b.eens_mwh if self.b.eens_mwh > 0 else float("inf")

    @property
    def t_ls_reduction_pct(self) -> float:
        return 100.0 * (1.0 - self.b.t_ls_s / self.a.t_ls_s) if self.a.t_ls_s > 0 else 0.0

    @property
    def eens_reduction_pct(self) -> float:
        return 100.0 * (1.0 - self.b.eens_mwh / self.a.eens_mwh) if self.a.eens_mwh > 0 else 0.0


def format_comparison(cmp: CaseComparison) -> str:
    """Summary table of the two runs and their ratios."""
    rows = [
        ("", "Max shed R_ls", "Duration T_ls [s]", "EENS [MWh]"),
        (f"case {cmp.a.case} ({cmp.a.scenario})",
         f"{cmp.a.r_ls:.1%}", f"{cmp.a.t_ls_s:.1f}", f"{cmp.a.eens_mwh:.3f}"),
        (f"case {cmp.b.case} ({cmp.b.scenario})",
         f"{cmp.b.r_ls:.1%}", f"{cmp.b.t_ls_s:.1f}", f"{cmp.b.eens_mwh:.3f}"),
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
             for r in rows]
    lines.append(f"EENS ratio a/b: {cmp.eens_ratio:.2f} "
                 f"(reduction {cmp.eens_reduction_pct:.1f}%), "
                 f"T_ls reduction {cmp.t_ls_reduction_pct:.1f}%")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def metrics_to_dict(m: Metrics) -> dict:
    d = asdict(m)
    d["schema_version"] = SCHEMA_VERSION
    return d


def metrics_from_dict(d: dict) -> Metrics:
    d = check(METRICS, d, "metrics", MetricsError)
    d.pop("schema_version", None)           # a missing version reads as 1
    events = tuple(ShedEvent(**e) for e in d.pop("events", ()))
    return Metrics(**d, events=events)


def load_metrics(path: str | Path) -> Metrics:
    try:
        with open(path, "rb") as f:
            return metrics_from_dict(json.load(f))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MetricsError(f"{path}: not valid JSON: {exc}") from exc


def export_results(tr: Trajectory, m: Metrics, outdir: str | Path) -> list[Path]:
    """Write trajectory CSV, metrics JSON and events CSV; returns the paths."""
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        traj_path = outdir / "trajectory.csv"
        tr.to_csv(traj_path)
        metrics_path = outdir / "metrics.json"
        with open(metrics_path, "w") as f:
            json.dump(metrics_to_dict(m), f, indent=2, sort_keys=True)
            f.write("\n")
        events_path = outdir / "events.csv"
        with open(events_path, "w") as f:
            f.write("trigger_s,clear_s,max_level\n")
            for ev in m.events:
                f.write(f"{ev.trigger_s:.10g},{ev.clear_s:.10g},{ev.max_level:.10g}\n")
    except OSError as exc:
        raise OSError(f"cannot write results under {outdir}: {exc}") from exc
    return [traj_path, metrics_path, events_path]
