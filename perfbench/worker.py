"""One workload execution in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only] [--trace]

run.py starts one worker per execution, so that set-up time includes
the imports a fresh process pays.  Set-up runs from this module's first
line to the first ``run_scenario``; the timed operation is every
member's ``run_scenario`` plus the CSV export where the workload does it.
"""

import time

_T0 = time.perf_counter()   # set-up starts here, before any import below

import argparse
import json
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference_seed1.json"
_clock = time.perf_counter


def _import_gridfreq():
    """Import gridfreq from this checkout's sources, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import gridfreq
    if not Path(gridfreq.__file__).resolve().is_relative_to(src):
        raise ImportError(f"gridfreq came from {gridfreq.__file__}, not {src}")


def execute(workload: str, seed: int, tracer, references: dict | None,
            setup_only: bool = False) -> dict:
    """Set up and run one workload; returns timings and per-member results.

    ``references`` maps member name to the figures recorded at seed 1;
    None skips the comparison.
    """
    import gridfreq
    import checks
    import workloads

    out = {"workload": workload, "seed": seed}
    with tracer.span("workload"):
        plan = workloads.plan(workload, seed)
        model = gridfreq.load_grid_config(plan.grid)
        params = gridfreq.SimParams.from_model(model)
        prepared = [(m, gridfreq.build_profiles(model, m.scenario, params))
                    for m in plan.members]
        out["setup_s"] = _clock() - _T0
        if setup_only:
            return out

        tmp = Path(tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT))
        run_s = export_s = 0.0
        steps = 0
        members = []
        try:
            for member, profiles in prepared:
                sc = member.scenario
                rec = {"name": sc.name, "seed": sc.seed, "case": sc.case,
                       "pair": member.pair, "error": None, "problems": []}
                members.append(rec)
                with tracer.span("member"):
                    try:
                        t = _clock()
                        with tracer.span("run_scenario", tracer.run):
                            tr = gridfreq.run_scenario(model, sc, params=params,
                                                       profiles=profiles)
                        run_s += _clock() - t
                        if plan.export:
                            csv_path = tmp / f"{sc.name}.csv"
                            t = _clock()
                            with tracer.span("export", tracer.to_csv):
                                tr.to_csv(csv_path)
                            export_s += _clock() - t
                    except Exception as exc:    # a failed member is counted, not fatal
                        rec["error"] = f"{type(exc).__name__}: {exc}"
                        continue
                # everything below is outside the timed operation
                rec["steps"] = round(sc.duration_s / sc.dt_s)
                steps += rec["steps"]
                summary = checks.summarize(tr)
                rec.update(summary)
                ref = None if references is None else references.get(sc.name)
                rec["problems"] = checks.check_member(tr, sc, member.expect_shed,
                                                      summary, ref)
                if references is not None and ref is None:
                    rec["problems"].append("no seed-1 reference recorded")
                if plan.export:
                    tracer.to_csv_bytes += csv_path.stat().st_size
                    rec["problems"] += checks.check_csv(csv_path, tr)
                    csv_path.unlink()
                if tracer.enabled:
                    try:
                        gridfreq.metrics.compute_metrics(tr)
                    except Exception:   # counted by the tracer as metrics.errors
                        pass
                del tr
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    bad_pairs = checks.mismatched_pairs([m for m in members if m["error"] is None])
    for rec in members:
        if rec["pair"] in bad_pairs:
            rec["problems"].append("profile fingerprint differs from its A/B pair")
    out.update(
        wall_s=run_s + export_s, run_s=run_s, export_s=export_s, steps=steps,
        attempted=len(members),
        failed=sum(1 for m in members if m["error"] or m["problems"]),
        members=members,
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop before the first run_scenario")
    ap.add_argument("--trace", action="store_true",
                    help="patch gridfreq's layers and report per-layer figures")
    args = ap.parse_args(argv)

    _import_gridfreq()
    import numpy
    import scipy
    import tracing

    references = None
    if args.seed == 1:
        references = json.loads(REFERENCE.read_text()).get(args.workload, {})
    tracer = tracing.Tracer(args.trace)
    with tracer.installed():
        out = execute(args.workload, args.seed, tracer, references,
                      setup_only=args.setup_only)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = {"python": platform.python_version(),
                       "numpy": numpy.__version__, "scipy": scipy.__version__}
    if tracer.enabled:
        out["trace"] = tracer.results()
        out["spans"] = [dict(s, start=s["start"] - _T0, end=s["end"] - _T0)
                        for s in tracer.spans]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
