"""Result check for benchmark members, independent of gridfreq.metrics.

The reliability figures (R_ls, T_ls, EENS) and the frequency nadir are
computed here from the trajectory itself, so the check keeps working
when the program's own metrics module does not.
"""

from __future__ import annotations

import math

import numpy as np

RESIDUAL_GATE = 1e-9        # the numerical-hygiene test's network residual gate
REFERENCE_RTOL = 1e-8       # seed-1 figures must replay this closely
CSV_RTOL = 1e-9             # the CSV writes 10 significant digits


def summarize(tr) -> dict:
    """R_ls, T_ls [s], EENS [MWh] and nadir [Hz] of one trajectory."""
    expected = tr.load_expected_mw.sum(axis=1)
    unserved = expected - tr.load_served_mw.sum(axis=1)
    shedding = np.any(tr.shed_level > 0, axis=1)
    return {
        "r_ls": float((unserved / expected).max()),
        "t_ls_s": float(np.count_nonzero(shedding) * tr.dt_out),
        "eens_mwh": float(np.trapezoid(unserved, tr.times)) / 3600.0,
        "nadir_hz": float(tr.bus_freq.min()),
        "records": int(len(tr.times)),
        "fingerprint": tr.profile_fingerprint,
    }


def check_member(tr, scenario, expect_shed: bool, summary: dict,
                 reference: dict | None) -> list[str]:
    """Problems found in one member's trajectory; empty when it is correct."""
    problems = [f"{name} is not finite" for name, arr in vars(tr).items()
                if isinstance(arr, np.ndarray) and not np.all(np.isfinite(arr))]
    problems += [f"{k}={v} is not finite" for k, v in summary.items()
                 if isinstance(v, float) and not math.isfinite(v)]
    if not tr.max_residual < RESIDUAL_GATE:
        problems.append(f"max_residual {tr.max_residual:.3g} >= {RESIDUAL_GATE}")
    n_steps = round(scenario.duration_s / scenario.dt_s)
    dec = round(scenario.output_dt_s / scenario.dt_s)
    if summary["records"] != n_steps // dec + 1:
        problems.append(f"{summary['records']} records, want {n_steps // dec + 1}")
    if expect_shed != (summary["r_ls"] > 0):
        problems.append(f"R_ls={summary['r_ls']:.4g} but expect_shed={expect_shed}")
    if reference is not None:
        for key, want in reference.items():
            got = summary[key]
            if isinstance(want, (str, int)):
                ok = got == want
            else:
                ok = abs(got - want) <= REFERENCE_RTOL * abs(want)
            if not ok:
                problems.append(f"{key}={got!r} differs from reference {want!r}")
    return problems


def mismatched_pairs(members: list[dict]) -> set[str]:
    """A/B pairs whose members did not consume identical profiles."""
    by_pair: dict[str, set[str]] = {}
    for m in members:
        by_pair.setdefault(m["pair"], set()).add(m["fingerprint"])
    return {pair for pair, prints in by_pair.items() if len(prints) > 1}


def check_csv(path, tr) -> list[str]:
    """The exported CSV has one row per record and matches the trajectory."""
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        first = f.readline()
        rows, last = 1, first
        for line in f:
            rows, last = rows + 1, line
    problems = []
    if rows != len(tr.times):
        problems.append(f"CSV has {rows} rows, want {len(tr.times)}")
    for label, line, k in (("first", first, 0), ("last", last, len(tr.times) - 1)):
        got = np.array(line.split(","), dtype=float)
        want = np.concatenate([
            [tr.times[k]], tr.bus_freq[k],
            np.column_stack([tr.gen_p_mech[k], tr.gen_p_elec[k],
                             tr.gen_speed_dev[k]]).ravel(),
            np.column_stack([tr.load_expected_mw[k], tr.load_served_mw[k],
                             tr.shed_level[k]]).ravel(),
            tr.wind_mw[k], tr.battery_mw[k]])
        if len(got) != len(header) or len(got) != len(want):
            problems.append(f"CSV {label} row has {len(got)} fields, header "
                            f"{len(header)}, trajectory {len(want)}")
        elif not np.allclose(got, want, rtol=CSV_RTOL, atol=0.0):
            problems.append(f"CSV {label} row differs from the trajectory")
    return problems
