"""Outside-in benchmark of gridfreq: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and README.md): single_s2b, ensemble_ab, areas4.

With ``--trace 0`` it times fresh-process set-ups, then repeats whole
workload executions, each in a fresh worker process, for about
``--seconds`` seconds, and reports the medians of the end-to-end metrics.
With ``--trace 1`` it makes one plain and one traced execution and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
line before it is the run record.  Any worker that cannot run makes the
benchmark exit with status 1 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5            # extra set-up-only workers, so setup_s is a median
TIME_LIMIT_S = 170.0        # a run must end within 180 s
# one thread per worker: steadier figures, and within the machine's nproc
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS")}


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV},
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def plain_run(workload: str, seed: int, seconds: float, deadline: float):
    """Set-up probes, then executions for about ``seconds``; end-to-end metrics."""
    probes = [run_worker(workload, seed, deadline, "--setup-only")
              for _ in range(SETUP_PROBES)]
    execs = []
    t0 = time.monotonic()
    while True:
        execs.append(run_worker(workload, seed, deadline))
        elapsed = time.monotonic() - t0
        # stop when one more execution of average length would overrun
        if elapsed * (len(execs) + 1) / len(execs) > seconds:
            break
    med = statistics.median
    figures = [
        ("setup_s", med(e["setup_s"] for e in probes + execs), "s"),
        ("wall_s", med(e["wall_s"] for e in execs), "s"),
        ("steps_per_s", med(e["steps"] / e["run_s"] for e in execs), "1/s"),
        ("peak_rss_mb", med(e["peak_rss_mb"] for e in execs), "MB"),
    ]
    metrics = {name: {"value": value, "unit": unit} for name, value, unit in figures}
    record = {"setup_s": [e["setup_s"] for e in probes + execs],
              "wall_s": [e["wall_s"] for e in execs]}
    return execs, metrics, record


def traced_run(workload: str, seed: int, deadline: float):
    """One plain and one traced execution; per-layer metrics."""
    plain = run_worker(workload, seed, deadline)
    traced = run_worker(workload, seed, deadline, "--trace")
    metrics = traced["trace"]
    metrics["trace.overhead_frac"] = {
        "value": traced["wall_s"] / plain["wall_s"] - 1.0, "unit": "frac"}
    record = {"wall_s": {"plain": plain["wall_s"], "traced": traced["wall_s"]},
              "spans": traced["spans"]}
    return [plain, traced], metrics, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    load_start = os.getloadavg()
    try:
        if args.trace:
            execs, metrics, record = traced_run(args.workload, args.seed, deadline)
        else:
            execs, metrics, record = plain_run(args.workload, args.seed,
                                               args.seconds, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(e["attempted"] for e in execs)
    failed = sum(e["failed"] for e in execs)
    first = execs[0]
    record.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        versions=first["versions"], nproc=os.cpu_count(),
        loadavg_start=load_start, executions=len(execs),
        failed_frac=failed / attempted,
        members=[{k: m.get(k) for k in ("name", "seed", "case", "fingerprint",
                                        "steps", "r_ls", "t_ls_s", "eens_mwh",
                                        "nadir_hz", "error", "problems")}
                 for m in first["members"]],
        problems=sorted({f"{m['name']}: {p}" for e in execs for m in e["members"]
                         for p in m["problems"] + ([m["error"]] if m["error"] else [])}),
    )
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
