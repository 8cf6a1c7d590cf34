"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import combtester  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from combtester import matcore, optim  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _traced(workload: str, seed: int, pairs=slice(None)) -> dict:
    build, job = workloads.WORKLOADS[workload]
    with tracer.Tracer() as t:
        for item in build(seed)[pairs]:
            assert job(item)["ok"]
    return t.metrics()


def test_install_patches_every_namespace_and_uninstall_restores():
    modules = [m for n, m in sys.modules.items() if n.startswith("combtester")]
    before = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    init = matcore.LabeledOperator.__init__
    project = optim.XiChainSet.project
    with tracer.Tracer():
        assert optim.partial_trace is matcore.partial_trace
        assert optim.partial_trace is not before[(id(matcore), "partial_trace")]
        assert combtester.link is matcore.link
        assert matcore.LabeledOperator.__init__ is not init
        assert optim.XiChainSet.project is not project
    after = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    assert after == before
    assert matcore.LabeledOperator.__init__ is init
    assert optim.XiChainSet.project is project


def test_self_time_excludes_timed_callees():
    # both factors need reordering before they are contracted
    a = matcore.identity([1, 0], [3, 2])
    b = matcore.identity([2, 1], [2, 3])
    with tracer.Tracer() as t:
        matcore.link(a, b)
    m = t.metrics()
    assert m["matcore.link.calls"] == 1
    assert m["matcore.LabeledOperator.calls"] == 3
    assert 0 < m["matcore.link.self_s"] < m["matcore.link.s"]
    # two reordered 6x6 copies and the 4x4 result, complex128
    assert m["matcore.LabeledOperator.bytes"] == 16 * (36 + 36 + 16)


def test_dykstra_count_identity_on_causal_d3():
    m = _traced("causal-d3", 0)
    assert m["optim.project_psd.calls"] == (
        m["optim.XiChainSet.project_affine.calls"] + m["optim.XiChainSet.project.calls"])
    assert m["optim.dykstra.inner"] == m["optim.XiChainSet.project_affine.calls"]
    assert m["optim.XiChainSet.project_affine.first_s"] > 0
    assert 0 < m["optim.projected_gradient_min.accept_ratio"] <= 1
    assert m["discrimination.solver_iterations"] > 0
    assert m["separation.build_example.calls"] == 1


def test_memory_qubit_seed0_first_pair_hits_the_dykstra_cap():
    m = _traced("memory-qubit", 0, pairs=slice(0, 1))
    assert m["optim.dykstra.capped"] > 0
    assert m["optim.dykstra.inner_max"] == tracer.DYKSTRA_CAP
    assert m["optim.project_psd.calls"] == (
        m["optim.XiChainSet.project_affine.calls"] + m["optim.XiChainSet.project.calls"])


def test_benchmark_json_matches_what_run_reports():
    spec = _spec()
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names() + ["trace.overhead_s"]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    for m in spec["per_layer"]:
        assert m["unit"] == tracer.unit_of(m["name"])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line(trace, key):
    out = _run("--workload", "cb-haar", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in _spec()[key]}
    for m in _spec()[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        note = next(l for l in out.stdout.splitlines() if l.startswith("# repetitions"))
        assert f"1 untraced, 0 traced, {run.SETUPS} set-ups" in note


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "cb-haar", "--seed", "0", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout
