import tracemalloc

import numpy as np
import pytest

from combtester import cli, matcore
from combtester.channels import comb_from_isometries, validate_comb
from combtester.distances import memory_distance
from combtester.separation import (
    build_example,
    causal_protocol,
    comb_validation_summary,
    dilation_blocks,
    protocol_circuit,
    shift_clock,
    shift_multiply,
    verify_parallel_impossible,
)
from combtester.testers import born_probabilities, simulate_tester_circuit, validate_tester


def test_shift_multiply_identity():
    assert np.abs(shift_multiply(0, 0, 3) - np.eye(3)).max() == 0.0


def test_shift_multiply_cyclic_shift():
    w = shift_multiply(1, 0, 2)
    assert np.abs(w - np.array([[0, 1], [1, 0]])).max() == 0.0


def test_shift_multiply_trace_orthogonal_basis():
    d = 3
    ws = [shift_multiply(p, q, d) for p in range(d) for q in range(d)]
    for i, a in enumerate(ws):
        for j, b in enumerate(ws):
            overlap = np.trace(a.conj().T @ b)
            expected = d if i == j else 0.0
            assert abs(overlap - expected) < 1e-12


def test_shift_multiply_range_check():
    with pytest.raises(ValueError):
        shift_multiply(2, 0, 2)


def test_shift_clock_definitions():
    z, u = shift_clock(3)
    for n in range(3):
        e = np.zeros(3)
        e[n] = 1.0
        assert np.abs(z @ e - np.eye(3)[:, (n + 1) % 3]).max() < 1e-12
        assert abs(u[n, n] - np.exp(2j * np.pi * n / 3)) < 1e-12


def test_build_example_traces_and_validity():
    for d in (2, 3):
        inst = build_example(d)
        for mc in (inst.c0, inst.c1):
            assert abs(mc.choi.trace().real - d * d) < 1e-10
            v = validate_comb(mc, 1e-12)
            assert v.valid, v.max_residual
        summary = comb_validation_summary(inst)
        assert summary["c0"]["valid"] and summary["c1"]["valid"]


def test_dilation_matches_closed_form():
    for d in (2, 3):
        inst = build_example(d, cross_check=False)
        for which, mc in ((0, inst.c0), (1, inst.c1)):
            built = comb_from_isometries(dilation_blocks(d, which))
            assert np.abs(built.choi.matrix - mc.choi.matrix).max() < 1e-10


@pytest.mark.parametrize("which", [0, 1])
def test_dilation_d4_matches_closed_form(which):
    # build_example cross-checks the dilations for d <= 3 only
    closed = getattr(build_example(4, cross_check=False), f"c{which}").choi
    built = comb_from_isometries(dilation_blocks(4, which)).choi
    assert built.labels == closed.labels and built.dims == closed.dims
    assert np.linalg.norm(built.matrix - closed.matrix) <= 1e-10


def test_parallel_impossibility_identity():
    for d in (2, 3):
        inst = build_example(d)
        rep = verify_parallel_impossible(inst, seed=0, solver_restarts=3)
        assert rep.identity_residual <= 1e-12
        assert rep.proportionality_residual <= 1e-12
        assert abs(rep.fitted_constant - 1.0 / d**3) < 1e-12
        # the solver minimum is the purity bound, far from feasibility
        assert rep.solver.residual > 1e-8
        assert abs(rep.solver.residual - 1.0 / d**8) < 1e-6
        assert rep.solver.status in ("infeasible", "undetermined")


def test_quoted_constant_mismatch_is_reported():
    # the commonly quoted 1/d^2 does not match these Choi normalizations;
    # the report carries the discrepancy explicitly
    inst = build_example(2)
    rep = verify_parallel_impossible(inst, seed=0, solver_restarts=1)
    assert rep.quoted_constant_residual > 0.2


def test_protocol_reaches_exact_discrimination():
    for d in (2, 3):
        inst = build_example(d)
        psi = np.zeros(d, dtype=complex)
        psi[0] = 1.0
        tester, table = causal_protocol(inst, psi)
        assert np.abs(table - np.eye(2)).max() <= 1e-10
        assert validate_tester(tester, 1e-9).valid


def test_protocol_independent_of_input_state():
    rng = np.random.default_rng(0)
    inst = build_example(2)
    for _ in range(5):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        _, table = causal_protocol(inst, psi)
        assert np.abs(table - np.eye(2)).max() <= 1e-10


def test_protocol_large_dimension_random_state():
    inst = build_example(4)
    rng = np.random.default_rng(1)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    _, table = causal_protocol(inst, psi)
    assert np.abs(table - np.eye(2)).max() <= 1e-10


def test_protocol_d4_peak_memory():
    # the tester elements are contracted from the protocol's kets: the largest
    # arrays are the 1024-side elements (16 MB each) and their contraction's
    # intermediate of the same size; one 4096-side network (268 MB) alone
    # would break the bound
    inst = build_example(4)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    tracemalloc.start()
    try:
        causal_protocol(inst, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2 ** 20


def test_protocol_simulation_agrees_with_born():
    inst = build_example(2)
    psi = np.array([1.0, 0.0], dtype=complex)
    tc = protocol_circuit(inst, psi)
    tester, _ = causal_protocol(inst, psi)
    for which, mc in ((0, inst.c0), (1, inst.c1)):
        sim = simulate_tester_circuit(tc, dilation_blocks(2, which))
        born = born_probabilities(tester, mc)
        assert np.abs(sim - born).max() <= 1e-10


def test_protocol_rejects_unnormalized_state():
    inst = build_example(2)
    with pytest.raises(ValueError):
        causal_protocol(inst, np.array([1.0, 1.0]))


def test_memory_distance_saturated_by_instance():
    inst = build_example(2)
    est = memory_distance(inst.c0, inst.c1, restarts=2, seed=0, max_iter=200)
    assert est.value >= 2 - 1e-3


def test_protocol_reduced_states_are_orthogonal():
    from combtester.testers import reduced_state

    inst = build_example(2)
    tester, _ = causal_protocol(inst, np.array([1.0, 0.0], dtype=complex))
    t0 = reduced_state(inst.c0, tester)
    t1 = reduced_state(inst.c1, tester)
    overlap = abs(np.trace(t0.matrix @ t1.permuted(t0.labels).matrix))
    assert overlap <= 1e-10


def test_protocol_tester_matches_hand_built_elements():
    # closed form of the protocol's tester elements, assembled directly:
    # (input state)^T on 0, index projector on 1, the transposed prepared
    # probe on 2, and the outcome projector on 3
    from combtester.matcore import LabeledOperator, tensor

    d = 2
    inst = build_example(d)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    tester, _ = causal_protocol(inst, psi)

    ket1 = np.zeros((d, d), dtype=complex)
    ket1[1, 1] = 1.0
    core = np.zeros((d * d * d, d * d * d), dtype=complex)
    for pq in range(d * d):
        p, q = divmod(pq, d)
        probe = shift_multiply(p, q, d).conj().T @ np.eye(d)[:, 1]
        proj1 = np.zeros((d * d, d * d), dtype=complex)
        proj1[pq, pq] = 1.0
        core += np.kron(proj1, np.outer(probe, probe.conj()).T)
    rho0 = LabeledOperator(np.outer(psi, psi.conj()).T, (0,), (d,))
    mid = LabeledOperator(core, (1, 2), (d * d, d))
    for element, out_proj in zip(
        tester.elements, (ket1, np.eye(d) - ket1)
    ):
        hand = tensor(tensor(rho0, mid), LabeledOperator(out_proj, (3,), (d,)))
        assert np.abs(element.matrix - hand.sorted().matrix).max() < 1e-12


def test_paper_example_labels_each_full_side_operator_once(monkeypatch, capsys):
    # C0 and C1 are labelled once each: their regrouped forms in the parallel
    # objective and the comb checks read those partitions; the other two
    # full-side labellings are the protocol tester's elements
    labelled = []
    block_groups = matcore.block_groups

    def counting(h):
        labelled.append(h)
        return block_groups(h)

    monkeypatch.setattr(matcore, "block_groups", counting)
    assert cli.main(["paper-example", "--d", "3", "--seed", "1"]) == 0
    capsys.readouterr()
    full = [h for h in labelled if h.shape[0] == 3 * 9 * 3 * 3]
    # a rearranged copy has the same entries: compare them as sorted lists
    entries = [np.sort_complex(h.ravel()) for h in full]
    assert not any(np.array_equal(a, b) for i, a in enumerate(entries) for b in entries[:i])
    assert len(full) == 4
    # with the two POVM elements, the input state and the parallel start
    assert len(labelled) == 8
