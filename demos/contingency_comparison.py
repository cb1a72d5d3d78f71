#!/usr/bin/env python3
"""Compare reliability with and without dispatched buses under outages.

Runs the four bundled 39-bus scenarios — two double-generator trips
(S1: G4+G5, S2: G4+G6), each once with plain stochastic wind/load buses
(case A) and once with every such bus held on its schedule by a battery
(case B) — and prints the reliability metrics side by side.

Both cases of a scenario replay the *same* wind and load realizations
(the profile seed is shared), so every difference in the outcome is
attributable to the dispatched-bus batteries alone.

Usage:
    python demos/contingency_comparison.py [--out results/] [--seed N]

Expect roughly a minute of compute: each A/B pair integrates 600 s of
10-machine dynamics at a 10 ms step as one two-member batch.
"""

import argparse
import time
from dataclasses import replace
from importlib.resources import files

import gridfreq as gf
from gridfreq.engine import SimParams, load_scenario, run_ensemble
from gridfreq.metrics import (CaseComparison, compute_metrics, export_results,
                              format_comparison)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="directory for trajectory/metrics exports")
    ap.add_argument("--seed", type=int,
                    help="override the bundled scenarios' profile seed")
    args = ap.parse_args()

    data = files("gridfreq.data")
    model = gf.load_grid_config(str(data.joinpath("ieee39.yaml")))
    params = SimParams.from_model(model)

    print(f"grid: {len(model.buses)} buses, {len(model.generators)} "
          f"generators, f0 = {model.f0:g} Hz")
    print(f"operating point: load x{params.load_scale:g}, wind scheduled at "
          f"{params.wind_schedule_pu:.0%} of rating\n")

    for trip_name in ("s1", "s2"):
        # the A and B cases share one trip schedule, so they step as one batch
        pair = [load_scenario(str(data.joinpath(f"{trip_name}{case}.yaml")))
                for case in "ab"]
        if args.seed is not None:
            pair = [replace(sc, seed=args.seed) for sc in pair]
        t0 = time.monotonic()
        trajectories = run_ensemble(model, pair, params=params)
        print(f"{trip_name.upper()}: trip "
              f"{', '.join(ev.generator for ev in pair[0].events)} at t=300s  "
              f"({time.monotonic() - t0:.0f}s compute for the pair)")
        metrics = {}
        for case, sc, tr in zip("ab", pair, trajectories):
            metrics[case] = m = compute_metrics(tr)
            print(f"  {sc.name}: nadir {tr.min_frequency():.3f} Hz")
            if args.out:
                outdir = f"{args.out}/{sc.name}"
                export_results(tr, m, outdir)
                print(f"  wrote {outdir}/")
        print()
        print(format_comparison(CaseComparison(metrics["a"], metrics["b"])))
        print()

    print("Case B sheds less energy because its buses never deviate from "
          "schedule:\nthe batteries absorb the wind/load fluctuations that "
          "otherwise deepen the\npost-trip deficit and re-trigger the "
          "shedding relays during recovery.")


if __name__ == "__main__":
    main()
