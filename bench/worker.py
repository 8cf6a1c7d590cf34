"""One fresh process running the job list of one workload once.

Started by ``run.py``; prints one JSON line with the set-up time, the wall
time of the list and of each job, the peak resident set, per-job outcomes
and, when traced, the per-layer metrics; with ``--setup-only``, the
set-up time alone.  Set-up time runs from the parent's clock reading just
before it started this process (``--t0``, on the system-wide monotonic
clock) to the moment the inputs are built.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t0", type=float, required=True)
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import combtester

    if Path(combtester.__file__).resolve().parent != ROOT / "src" / "combtester":
        raise RuntimeError(f"imported combtester from {combtester.__file__}, not from src/")
    import tracer
    import workloads

    build, job = workloads.WORKLOADS[args.workload]
    layers = tracer.Tracer() if args.trace else None
    if layers:
        layers.install()
    inputs = build(args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    jobs = []
    t = time.perf_counter()
    for item in inputs:
        t_job = time.perf_counter()
        try:
            result = job(item)
        except Exception as exc:  # a raising job is a failed job; the list goes on
            result = {"ok": False, "why": traceback.format_exception_only(exc)[-1].strip(),
                      "verdict": None, "value": None, "gap": None, "fingerprint": None}
        result["s"] = time.perf_counter() - t_job
        jobs.append(result)
    wall_s = time.perf_counter() - t
    if layers:
        layers.uninstall()

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": jobs,
        "layers": layers.metrics() if layers else None,
        "env": _environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
