"""Repeat the benchmark over seeds and summarise each end-to-end metric.

    python3 bench/repeat.py --seeds 1-10 [--out FILE]

Runs ``run.py --trace 0`` once per seed on every workload of
``BENCHMARK.json``, for its ``run_seconds``, one run at a time,
and prints for every metric its median, quartiles and spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median.  With ``--out`` it also writes every run's result and
environment line as JSON, which is how ``BENCH_baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            env = json.loads(next(l for l in lines if l.startswith("# env "))[6:])
            runs.append({"seed": seed, "env": env, "result": result,
                         "lines": [l for l in lines[:-1] if not l.startswith("#")]})
            values = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
            print(f"{workload} seed {seed} correct {result['correct']} {values}", flush=True)
        names = runs[0]["result"]["metrics"]
        stats = {name: summary([r["result"]["metrics"][name]["value"] for r in runs])
                 for name in names}
        for name, s in stats.items():
            print(f"{workload} {name}: median {s['median']:.4f} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.4f}")
        report["workloads"][workload] = {"summary": stats, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
