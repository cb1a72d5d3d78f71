"""Record the seed-1 reference figures the result check compares against.

    python3 perfbench/record_reference.py

Runs every workload once at seed 1, in this process and without tracing,
and rewrites reference_seed1.json.  Run it only on a commit whose results
are trusted; a later change that moves these figures must explain why.
"""

import json
import sys

import worker

KEYS = ("r_ls", "t_ls_s", "eens_mwh", "nadir_hz", "records", "fingerprint")


def main() -> int:
    worker._import_gridfreq()
    import tracing
    import workloads

    refs = {}
    for name in workloads.NAMES:
        out = worker.execute(name, 1, tracing.Tracer(False), references=None)
        bad = [m for m in out["members"] if m["error"] or m["problems"]]
        if bad:
            print(f"{name}: not recording, members failed: {bad}", file=sys.stderr)
            return 1
        refs[name] = {m["name"]: {k: m[k] for k in KEYS} for m in out["members"]}
    worker.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {worker.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
