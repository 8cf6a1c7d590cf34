"""combtester benchmark: one command, four workloads, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of paper-d4, causal-d3, memory-qubit, cb-haar, or ``all``.
Run it from anywhere; it benchmarks the package under ``src/`` next to
this directory and nothing installed elsewhere.

A run repeats the seed's job list a fixed number of times (``rounds``), each
time in a fresh worker process (``worker.py``), so every repetition pays
interpreter start, ``import combtester`` and input building.  ``wall_s`` sums
each job's shortest time over the repetitions (see ``floor_wall`` for why
floors and not medians).  Between repetitions, set-up-only workers bring the
set-up measurements to at least ``SETUPS``; ``setup_s`` is the least of them.
With ``--trace 1`` an untraced and a traced repetition alternate, and the
per-layer metrics come from the traced ones.  Every repetition, traced or
not, must produce bit-identical outputs.

Every line but the last is for people: workload, environment, and each
metric by name, value and unit.  The last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when a result was printed, also when a check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

# job lists in a run of 30 s, keyed like workloads.WORKLOADS (which this
# process does not import): about as many as fit in 30 s on the 2-core host
# the baseline was taken on; fixed, so that the parent and a change take their
# floors over the same number of repetitions
LISTS_PER_30_S = {"paper-d4": 4, "causal-d3": 6, "memory-qubit": 3, "cb-haar": 14}
WORKLOADS = tuple(LISTS_PER_30_S)
# set-up measurements an untraced run takes at least
SETUPS = 20
# a run of one workload ends by this many seconds after it started
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(_nproc())
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left before the run's deadline")
    t0 = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--t0", repr(t0), *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_worker_env(),
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed("a worker did not finish before the deadline") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"a worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rounds(workload: str, seconds: float, trace: int) -> int:
    """Job lists per run: fixed by the workload and ``--seconds`` alone.

    A traced round runs the list twice, so a traced run makes half as many.
    """
    n = round(LISTS_PER_30_S[workload] * seconds / 30)
    return max(1, n // 2 if trace else n)


def measure(workload: str, seed: int, seconds: float, trace: int,
            deadline: float) -> tuple[list[dict], list[dict], list[float]]:
    """Untraced lists, traced lists, and every untraced set-up time.

    Stops early only where another round would pass the deadline.
    """
    n = rounds(workload, seconds, trace)
    extra = 0 if trace else max(0, math.ceil(SETUPS / n) - 1)
    start = time.monotonic()
    plain, traced, setups = [], [], []
    for done in range(1, n + 1):
        plain.append(run_worker(workload, seed, deadline, "--trace", "0"))
        setups.append(plain[-1]["setup_s"])
        for _ in range(extra):
            setups.append(run_worker(workload, seed, deadline, "--setup-only")["setup_s"])
        if trace:
            traced.append(run_worker(workload, seed, deadline, "--trace", "1"))
        now = time.monotonic()
        if done < n and now + (now - start) / done > deadline:
            break
    return plain, traced, setups


def floor_wall(lists: list[dict]) -> float:
    """Sum over the jobs of each job's shortest time among the repetitions.

    On a shared 2-core host the same work runs 30-90 % slower in bursts of
    5-15 s.  A job's shortest time over repetitions spread across the run
    excludes the bursts and varied by about 2 % between runs of identical
    work; the median over a 30 s run varied by 20-30 %.
    """
    return sum(min(times) for times in zip(*([j["s"] for j in l["jobs"]] for l in lists)))


def outcome_metrics(lists: list[dict]) -> list[tuple[str, float | None, str]]:
    """The four check-derived metrics; None where a workload has no such output."""
    jobs = [j for l in lists for j in l["jobs"]]
    verdicts = [j["verdict"] for j in jobs if j["verdict"] is not None]
    gaps = [j["gap"] for j in jobs if j["gap"] is not None]
    values = [j["value"] for j in jobs if j["value"] is not None]
    return [
        ("failed_share", sum(not j["ok"] for j in jobs) / len(jobs), "ratio"),
        ("undetermined_share",
         verdicts.count("undetermined") / len(verdicts) if verdicts else None, "ratio"),
        ("oracle_gap_max", max(gaps) if gaps else None, "-"),
        ("distance_mean", statistics.fmean(values) if values else None, "-"),
    ]


def end_to_end(lists: list[dict], setups: list[float]) -> list[tuple[str, float | None, str]]:
    return [
        ("wall_s", floor_wall(lists), "s"),
        # the floor, for the reason given in floor_wall
        ("setup_s", min(setups), "s"),
        ("peak_rss_mb", statistics.median(l["peak_rss_mb"] for l in lists), "MB"),
    ] + outcome_metrics(lists)


def per_layer(plain: list[dict], traced: list[dict]) -> list[tuple[str, float, str]]:
    """Times are the least over the traced repetitions; counts are the first's."""
    rows = []
    for name in tracer.metric_names():
        unit = tracer.unit_of(name)
        if unit == "s":
            value = min(t["layers"][name] for t in traced)
        else:
            value = traced[0]["layers"][name]
        rows.append((name, value, unit))
    rows.append(("trace.overhead_s", floor_wall(traced) - floor_wall(plain), "s"))
    return rows


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    plain, traced, setups = measure(workload, seed, seconds, trace, deadline)
    lists = plain + traced
    fingerprints = {json.dumps([(j["ok"], j["fingerprint"]) for j in l["jobs"]]) for l in lists}
    identical = len(fingerprints) == 1
    notes = [f"repetitions {len(plain)} untraced, {len(traced)} traced, "
             f"{len(setups)} set-ups; outputs bit-identical across all: {identical}",
             "medians: untraced list wall "
             f"{statistics.median(l['wall_s'] for l in plain)!r} s, set-up "
             f"{statistics.median(setups)!r} s"]
    if trace:
        rows = per_layer(plain, traced) + outcome_metrics(lists)
        layers = traced[0]["layers"]
        notes.append("dykstra count identity project_psd = project_affine + project: "
                     f"{layers['optim.project_psd.calls']} = "
                     f"{layers['optim.XiChainSet.project_affine.calls']} + "
                     f"{layers['optim.XiChainSet.project.calls']}")
        reported = set(tracer.metric_names()) | {"trace.overhead_s"}
    else:
        rows = end_to_end(lists, setups)
        reported = {"wall_s", "setup_s", "peak_rss_mb"}

    jobs = [j for l in lists for j in l["jobs"]]
    failed = [j for j in jobs if not j["ok"]]
    print(f"# workload {workload} seed {seed} trace {trace} jobs {len(jobs)} failed {len(failed)}")
    print("# env " + json.dumps({**lists[0]["env"], "seed": seed, "commit": git_commit()}))
    for note in notes:
        print("# " + note)
    for j in failed[:10]:
        print(f"# failed job: {j['why']}")
    for name, value, unit in rows:
        print(f"{name} {'n/a' if value is None else repr(value)} {unit}")
    return {
        "correct": not failed and identical,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in rows if name in reported},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "combtester" / "__init__.py").is_file():
        print(f"error: no combtester package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
