"""Every function the benchmark tracer times still exists in the package.

The tracer (``bench/tracer.py``) patches functions by name; a name that no
longer resolves would only fail a traced benchmark run, so it is checked here,
as is the tracer's count of the projection steps of a causal decision and
of the solver iterations of a parallel one.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracer  # noqa: E402
from combtester import discrimination  # noqa: E402
from combtester.discrimination import causal_discriminable  # noqa: E402
from combtester.separation import build_example  # noqa: E402


def _resolve(module: str, qual: str):
    owner = importlib.import_module(f"combtester.{module}")
    for attr in qual.split("."):
        owner = getattr(owner, attr)
    return owner


@pytest.mark.parametrize("module,qual", tracer.TIMED + (("optim", "partial_trace"),))
def test_traced_name_resolves(module, qual):
    assert callable(_resolve(module, qual))


def test_tracer_sees_every_step_of_the_causal_decision():
    inst = build_example(2)
    with tracer.Tracer() as t:
        causal_discriminable(inst.c0, inst.c1, restarts=1)
    m = t.metrics()
    assert m["optim.project_psd.calls"] == (
        m["optim.XiChainSet.project_affine.calls"] + m["optim.XiChainSet.project.calls"])
    assert m["optim.dykstra.inner"] == m["optim.XiChainSet.project_affine.calls"]
    assert m["discrimination._ProductObjective.value_and_grad.calls"] > 0


def test_tracer_counts_the_iterations_of_a_parallel_decision_once():
    # the parallel decision runs the shared private driver, so the solver
    # iteration hook on causal_discriminable does not fire a second time;
    # the call goes through the module attribute, which the tracer patches
    inst = build_example(3)
    with tracer.Tracer() as t:
        rep = discrimination.parallel_discriminable(
            inst.c0.choi, inst.c1.choi, restarts=3, seed=1)
    m = t.metrics()
    assert m["discrimination.solver_iterations"] == rep.iterations
    assert m["discrimination.causal_discriminable.calls"] == 0
