"""Command-line driver: batch scenario runs, comparisons, validation.

Subcommands:
    run             run scenarios on one grid and export results
    compare         compare two metrics JSON files
    validate        validate a grid config and scenario files

Exit codes: 0 success, 2 validation error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import engine, grid, metrics

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


def _load_inputs(grid_spec: str, scenario_paths: list[str], seed: int | None = None):
    """The grid model and the scenarios, after every check that a run makes
    before its first step; raises ``GridConfigError`` or ``ScenarioError``."""
    model = grid.ieee39() if grid_spec == "ieee39" else grid.load_grid_config(grid_spec)
    engine.operating_point(model, engine.SimParams.from_model(model))
    scenarios = []
    for p in scenario_paths:
        try:
            sc = engine.load_scenario(p)
            sc.validate_against(model)
        except engine.ScenarioError as exc:
            raise engine.ScenarioError(f"{p}: {exc}") from None
        if seed is not None:
            try:
                sc = dataclasses.replace(sc, seed=seed)
            except engine.ScenarioError as exc:
                raise engine.ScenarioError(f"--seed: {exc}") from None
        scenarios.append(sc)
    # each scenario writes into the directory of its name
    names = [sc.name for sc in scenarios]
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise engine.ScenarioError(f"scenario.name: scenario names must be unique: "
                                   f"{', '.join(repeated)}")
    return model, scenarios


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    try:
        if not args.scenario:
            raise engine.ScenarioError("no scenarios given (--scenario)")
        model, scenarios = _load_inputs(args.grid, args.scenario, args.seed)
    except (grid.GridConfigError, engine.ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    outdir = Path(args.out)
    paths = (outdir, *(outdir / sc.name for sc in scenarios))
    try:    # every output directory before any compute, and none if one is a file
        for path in paths:
            if path.exists() and not path.is_dir():
                raise FileExistsError(None, "File exists", str(path))
        for path in paths:
            path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: output directory {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_RUNTIME
    # members of one ensemble share a horizon and steps, whatever they
    # trip; each batch keeps every member's trajectory in memory until it ends
    batches: dict[tuple, list[engine.Scenario]] = {}
    for sc in scenarios:
        batches.setdefault(sc.schedule, []).append(sc)
    results = {}
    try:
        for batch in batches.values():
            for sc, tr in zip(batch, engine.run_ensemble(model, batch)):
                results[sc.name] = m = metrics.compute_metrics(tr)
                metrics.export_results(tr, m, outdir / sc.name)
    except Exception as exc:  # noqa: BLE001 - surface any scenario failure
        print(f"error: scenario run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    lines = ["scenario  case  R_ls     T_ls[s]   EENS[MWh]"]
    for sc in scenarios:
        m = results[sc.name]
        lines.append(f"{sc.name:<9} {m.case:<5} {m.r_ls:<8.1%} "
                     f"{m.t_ls_s:<9.1f} {m.eens_mwh:.3f}")
    summary = "\n".join(lines) + "\n"
    (outdir / "summary.txt").write_text(summary)
    print(summary, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args) -> int:
    try:
        a = metrics.load_metrics(args.a)
        b = metrics.load_metrics(args.b)
    except (metrics.MetricsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(metrics.format_comparison(metrics.CaseComparison(a, b)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    try:
        model, scenarios = _load_inputs(args.grid, args.scenario or [])
    except (grid.GridConfigError, engine.ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"grid ok: {len(model.buses)} buses, {len(model.lines)} lines, "
          f"{len(model.generators)} generators")
    for sc in scenarios:
        print(f"scenario ok: {sc.name} (case {sc.case}, "
              f"{len(sc.events)} events, {sc.duration_s:.0f}s)")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gridfreq", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run scenarios and export results")
    p.add_argument("--grid", default="ieee39", help="grid config path or 'ieee39' (the default)")
    p.add_argument("--scenario", action="append", help="scenario YAML (repeatable)")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--seed", type=int, help="override the scenario seeds")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="compare two metrics JSON files")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("validate", help="validate configs without running")
    p.add_argument("--grid", default="ieee39")
    p.add_argument("--scenario", action="append")
    p.set_defaults(func=cmd_validate)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
