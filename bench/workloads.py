"""The benchmark's workloads: inputs drawn from a seed, jobs and their checks.

A workload's *job list* is what one worker process runs.  The inputs of
seed S come from ``numpy.random.default_rng(S)``, so the numbers quoted for a
seed can be reproduced through the public API alone.  Every job calls
combtester through module attributes at call time, so a tracer installed
beforehand sees each call.

Each job returns a dict with its check outcome (``ok``), the decision
verdict or the estimate it produced, and a ``fingerprint`` of every output
that must be bit-identical across repetitions, traced or not.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from combtester import (
    channels, cli, discrimination, distances, sampling, separation, testers, unitary,
)
from combtester.optim import XiChainSet


def _job(ok: bool, fingerprint, *, verdict=None, value=None, gap=None, why="") -> dict:
    return {"ok": bool(ok), "why": why, "verdict": verdict, "value": value,
            "gap": gap, "fingerprint": repr(fingerprint)}


def _failures(checks: dict) -> str:
    return ", ".join(name for name, passed in checks.items() if not passed)


# -- paper-d4: the CLI pipeline on the d = 4 counterexample ------------------

def paper_inputs(seed: int) -> list:
    return [["paper-example", "--d", "4", "--seed", str(seed)]]


def paper_job(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    text = out.getvalue()
    if code != 0:
        return _job(False, (code, text), why=f"exit code {code}")
    report = json.loads(text)
    imp = report["parallel_impossibility"]
    protocol = report["protocol"]
    checks = {
        "c0 valid": report["combs"]["c0"]["valid"],
        "c1 valid": report["combs"]["c1"]["valid"],
        "identity_residual": imp["identity_residual"] <= 1e-12,
        "proportionality_residual": imp["proportionality_residual"] <= 1e-12,
        "max_delta_error": protocol["max_delta_error"] <= 1e-9,
        "tester_valid": protocol["tester_valid"],
    }
    return _job(all(checks.values()), (code, text), verdict=imp["solver"]["status"],
                why=_failures(checks))


# -- causal-d3: causal decision, tester synthesis and its check -------------

def causal_inputs(seed: int) -> list:
    inst = separation.build_example(3)
    seeds = np.random.default_rng(seed).integers(2**31, size=3)
    return [(inst, int(s)) for s in seeds]


def causal_job(job) -> dict:
    inst, solver_seed = job
    rep = discrimination.causal_discriminable(
        inst.c0, inst.c1, restarts=4, max_iter=1500, seed=solver_seed)
    fingerprint = [rep.status, rep.residual.hex(), rep.iterations]
    if rep.status != "feasible":
        return _job(False, fingerprint, verdict=rep.status, why=f"verdict {rep.status}")
    tester = discrimination.synthesize_tester(inst.c0, inst.c1, rep.witness)
    table = discrimination.delta_matrix(tester, [inst.c0, inst.c1])
    fingerprint.append([float(x).hex() for x in table.ravel()])
    checks = {
        "delta table": float(np.abs(table - np.eye(2)).max()) <= 1e-6,
        "tester valid": testers.validate_tester(tester, 1e-8).valid,
    }
    return _job(all(checks.values()), fingerprint, verdict=rep.status, why=_failures(checks))


# -- memory-qubit: memory distance of random two-use qubit combs ------------

def _random_qubit_channel(rng) -> channels.Channel:
    return channels.Channel(tuple(sampling.random_kraus(2, 2, 2, rng)), 2, 2)


def memory_inputs(seed: int) -> list:
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(3):
        a = channels.comb_from_sequence([_random_qubit_channel(rng), _random_qubit_channel(rng)])
        b = channels.comb_from_sequence([_random_qubit_channel(rng), _random_qubit_channel(rng)])
        pairs.append((a, b))
    return pairs


def memory_job(pair) -> dict:
    a, b = pair
    est = distances.memory_distance(a, b, restarts=1, max_iter=40)
    residual = XiChainSet(a.choi.dims[:-1]).membership_residual(est.achiever.matrix)
    checks = {
        "value in (0, 2]": 0.0 < est.value <= 2.0 + 1e-9,
        "achiever membership": residual <= 1e-8,
    }
    return _job(all(checks.values()), (est.value.hex(), est.iterations), value=est.value,
                why=_failures(checks))


# -- cb-haar: seesaw cb distance of Haar qutrit unitaries vs the oracle -----

# seesaw steps per restart, a little above the median a default-stopped
# restart takes on these pairs (23)
CB_STEPS = 30


def cb_inputs(seed: int) -> list:
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(20):
        u, v = sampling.haar_unitary(3, rng), sampling.haar_unitary(3, rng)
        a = channels.comb_from_sequence([channels.unitary_channel(u)]).choi
        b = channels.comb_from_sequence([channels.unitary_channel(v)]).choi
        pairs.append((u, v, a, b, int(rng.integers(2**31))))
    return pairs


def cb_job(pair) -> dict:
    u, v, a, b, solver_seed = pair
    # With the default stopping rule the seesaw takes 7 to 300 steps per
    # restart depending on the pair, so list times vary fourfold between
    # seeds.  Every restart runs exactly CB_STEPS steps instead (tol = -inf
    # never stops early); the seesaw is monotone, so more steps never lower
    # the estimate.
    est = distances.cb_distance(a, b, restarts=10, seed=solver_seed,
                                max_iter=CB_STEPS, tol=-math.inf)
    oracle = distances.unitary_cb_oracle(u, v)
    spread_form = 2.0 * np.sqrt(max(0.0, 1.0 - unitary.discriminability(u.conj().T @ v) ** 2))
    checks = {
        # criterion-4 tolerance
        "oracle relative error": abs(est.value - oracle) <= 1e-3 * max(oracle, 1e-6),
        "oracle vs spread": abs(oracle - spread_form) <= 1e-9,
    }
    return _job(all(checks.values()), (est.value.hex(), est.iterations),
                gap=oracle - est.value, why=_failures(checks))


WORKLOADS = {
    "paper-d4": (paper_inputs, paper_job),
    "causal-d3": (causal_inputs, causal_job),
    "memory-qubit": (memory_inputs, memory_job),
    "cb-haar": (cb_inputs, cb_job),
}
