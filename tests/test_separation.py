import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import combtester
from combtester import cli, matcore, separation, testers
from combtester.channels import comb_from_isometries, validate_comb
from combtester.discrimination import (
    causal_discriminable, parallel_discriminable, synthesize_tester,
)
from combtester.distances import memory_distance, one_use_upper
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
from combtester.channels import _ket_chain
from combtester.testers import (
    Tester, TesterCircuit, born_probabilities, povm_from_tester, reduced_state,
    simulate_tester_circuit, validate_tester,
)
from test_testers import _reference_elements, assert_entry_built_as
from util import matrix_built, traced_peak


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


def test_cross_check_keeps_the_combs_entry_built():
    # the d <= 3 cross-check compares with a temporary matrix of the closed
    # form, so the returned combs hold their entries alone
    inst = build_example(3)
    assert "matrix" not in vars(inst.c0.choi) and "matrix" not in vars(inst.c1.choi)


def test_cross_check_rejects_a_dilation_off_the_closed_form(monkeypatch):
    # each channel checked against the other's dilation
    original = separation.dilation_blocks
    monkeypatch.setattr(separation, "dilation_blocks", lambda d, which: original(d, 1 - which))
    with pytest.raises(RuntimeError, match="deviates from the closed form"):
        build_example(2)


def test_dilation_matches_closed_form():
    for d in (2, 3):
        inst = build_example(d)
        for which, mc in ((0, inst.c0), (1, inst.c1)):
            built = comb_from_isometries(dilation_blocks(d, which))
            assert np.abs(built.choi.matrix - mc.choi.matrix).max() < 1e-10


@pytest.mark.parametrize("which", [0, 1])
def test_dilation_d4_matches_closed_form(which):
    # build_example cross-checks the dilations for d <= 3 only
    closed = getattr(build_example(4), f"c{which}").choi
    built = comb_from_isometries(dilation_blocks(4, which)).choi
    assert built.labels == closed.labels and built.dims == closed.dims
    assert np.linalg.norm(built.matrix - closed.matrix) <= 1e-10


def test_parallel_impossibility_identity():
    for d in (2, 3):
        inst = build_example(d)
        rep = verify_parallel_impossible(inst)
        assert rep.identity_residual <= 1e-12
        assert rep.proportionality_residual <= 1e-12
        assert abs(rep.fitted_constant - 1.0 / d**3) < 1e-12
        # the solver minimum is the purity bound, far from feasibility
        assert rep.solver.residual > 1e-8
        assert abs(rep.solver.residual - 1.0 / d**8) < 1e-6
        assert rep.solver.status in ("infeasible", "undetermined")


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_parallel_distance_of_the_counterexample_is_its_closed_form(d):
    # the dual bound at the maximally mixed input is the fitted closed form
    # (d - 1 + sqrt((d - 1)(d + 3))) / d, below 2 by far more than its
    # allowance: a certified parallel distance, read from the entries
    inst = build_example(d)
    mixed = matcore.Blocks.of(np.eye(d * d))
    upper, allowance = one_use_upper(inst.c0.choi, inst.c1.choi, [1, 3], mixed,
                                     mixed.pack(np.eye(d * d)))
    assert abs(upper - (d - 1 + np.sqrt((d - 1) * (d + 3))) / d) <= 1e-12
    assert allowance < 1e-8 and upper < 2 - 1e-2
    assert "matrix" not in inst.c0.choi.__dict__


def test_parallel_decision_on_d5_is_proven_without_descent():
    inst = build_example(5)
    rep = parallel_discriminable(inst.c0.choi, inst.c1.choi, restarts=3, seed=0)
    assert rep.status == "infeasible"
    assert (rep.iterations, rep.capped) == (0, 0)
    assert abs(rep.upper - (4 + np.sqrt(32)) / 5) <= 1e-12
    assert rep.residual == pytest.approx(1 / 5 ** 8, rel=1e-9)


def test_quoted_constant_mismatch_is_reported():
    # the commonly quoted 1/d^2 does not match these Choi normalizations;
    # the report carries the discrepancy explicitly
    inst = build_example(2)
    rep = verify_parallel_impossible(inst)
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
    # the tester elements are contracted from the protocol's kets and held
    # as their entries, and its chain is walked on them; the contraction's
    # two factors hold what the basis input and each POVM element reach
    # (16 kB and at most 48 kB, where unrestricted they had 256 kB each),
    # and one side-256 block of the contraction or of the chain is 1 MB
    inst = build_example(4)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    _, peak = traced_peak(causal_protocol, inst, psi)
    assert peak < 2 * 2 ** 20, peak / 2 ** 20


def test_protocol_tester_holds_no_temporary_of_element_size():
    # the d = 4 elements are held as their entries: building the tester
    # holds the rows and columns of the contraction that the state and the
    # POVM reach, and checking it reads the entries; a whole-element
    # contraction result and a dense element sum would take them to about
    # 3.1 and 1.3 elements (16 MB each)
    inst = build_example(4)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    causal_protocol(build_example(2), psi[:2])  # numpy's lazy imports, untraced
    (tester, _), peak = traced_peak(causal_protocol, inst, psi)
    element = tester.elements[0].matrix.nbytes
    assert peak < 0.125 * element, peak / element
    v, peak = traced_peak(validate_tester, tester, 1e-9)
    assert v.valid
    assert peak < 0.05 * element, peak / element
    # one element wrapped as its matrix, the other entry-built: both are
    # read as their entries, and the entry-built one never forms its matrix
    fresh, _ = causal_protocol(inst, psi)
    mixed = Tester((matrix_built(tester.elements[0]), fresh.elements[1]), fresh.chain, 2)
    v, peak = traced_peak(validate_tester, mixed, 1e-9)
    assert v.valid
    assert peak < 0.25 * element, peak / element
    table, peak = traced_peak(born_probabilities, mixed, inst.c0)
    assert abs(table.sum() - 1.0) <= 1e-9
    assert peak < 0.25 * element, peak / element
    assert "matrix" not in vars(mixed.elements[1])


def test_repr_names_the_spaces_and_forms_no_matrix():
    # a repr (or hypothesis logging a drawn operator) would otherwise form
    # and cache the 16 MB matrix of an entry-built d = 4 element
    inst = build_example(4)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    tester, _ = causal_protocol(inst, psi)
    e = tester.elements[1]
    text = repr(e), repr(tester), repr(inst.c0)
    assert "matrix" not in vars(e) and "matrix" not in vars(inst.c0.choi)
    assert text[0] == (f"LabeledOperator(labels={e.labels}, dims={e.dims}, "
                       f"blocks=1024, entries={e.entries.size})")
    assert text[0] in text[1] and repr(inst.c0.choi) in text[2]


def test_protocol_d4_reduction_holds_no_side_1024_matrix():
    # the POVM reduction and the reduced state sandwich the entry-built
    # elements and comb block by block: each holds less than one side-1024
    # complex matrix (16 MB), where dense sandwiches peaked at 105 and 49 MB
    inst = build_example(4)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    tester, _ = causal_protocol(inst, psi)
    povm, peak = traced_peak(povm_from_tester, tester)
    assert peak < 16 * 2 ** 20, peak / 2 ** 20
    assert abs(sum(p.trace() for p in povm) - tester.elements[0].side) <= 1e-9
    reduced, peak = traced_peak(reduced_state, inst.c0, tester)
    assert peak < 16 * 2 ** 20, peak / 2 ** 20
    # Tr[(Xi^1/2 ⊗ I) C (Xi^1/2 ⊗ I)] = Tr[(Xi ⊗ I) C], the sum of the Born table
    assert abs(reduced.trace() - 1.0) <= 1e-9


def test_protocol_d4_reduction_roots_the_level_on_its_partition():
    # both reductions take the root of the top chain level (side 256) from
    # its entries on its own partition, so neither forms or caches its 1 MB
    # matrix; reading the level as a matrix held 2.5 and 2.8 MB
    inst = build_example(4)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    tester, _ = causal_protocol(inst, psi)
    _, peak = traced_peak(povm_from_tester, tester)
    assert peak <= 1.3e6, peak
    _, peak = traced_peak(reduced_state, inst.c0, tester)
    assert peak <= 1.3e6, peak
    assert "matrix" not in tester.chain[-1].__dict__


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
    # C0 and C1 are built as their block entries, so they are never
    # labelled; the three full-side labellings are the union partition of
    # C0 - C1 that the parallel decision's distance bound reads, and the
    # protocol tester's elements, from the entries collected while
    # contracting them; its two chain levels are labelled from the entries
    # of the chain walk
    labelled = []
    edge_groups = matcore.edge_groups

    def counting(rows, cols, n):
        labelled.append((n, np.sort(rows * n + cols)))
        return edge_groups(rows, cols, n)

    monkeypatch.setattr(matcore, "edge_groups", counting)
    assert cli.main(["paper-example", "--d", "3", "--seed", "1"]) == 0
    capsys.readouterr()
    full = [flat for n, flat in labelled if n == 3 * 9 * 3 * 3]
    assert not any(np.array_equal(a, b) for i, a in enumerate(full) for b in full[:i])
    assert len(full) == 3
    # with the two chain levels (sides 81 and 3), the two POVM elements
    # (27), the input state (3) and the uniform input state (9) whose roots
    # the distance bound packs on its partition; the bound proves the
    # parallel decision at the uniform point, so no start is labelled
    assert sorted(n for n, _ in labelled if n != 3 * 9 * 3 * 3) == [3, 3, 9, 27, 27, 81]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_combs_and_protocol_elements_are_entry_built_as_their_matrices(d):
    # the closed-form combs against the dense sums that define them, and the
    # protocol elements against one dense einsum each
    d2 = d * d
    c0 = np.zeros((d ** 5, d ** 5), dtype=complex)
    for pq in range(d2):
        v = shift_multiply(*divmod(pq, d), d).T.reshape(-1)
        c0 += np.kron(np.eye(d), np.kron(np.diag(np.arange(d2) == pq), np.outer(v, v.conj())))
    c1 = np.kron(np.eye(d ** 4), np.diag(np.arange(d) == 0))
    chois = separation._closed_form_chois(d)
    for op, dense in zip(chois, (c0 / d2, c1 / d2)):
        assert not op.blocks.whole and "matrix" not in vars(op) and op.dims == (d, d2, d, d)
        assert_entry_built_as(op, dense)
    rng = np.random.default_rng(d)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    tc = protocol_circuit(build_example(d), psi / np.linalg.norm(psi))
    for e, ref in zip(testers.tester_from_circuit(tc).elements, _reference_elements(tc)):
        assert not e.blocks.whole and "matrix" not in vars(e)
        assert_entry_built_as(e, ref)
    if d < 4:  # the synthesized elements, on the partitions of their matrices
        inst = build_example(d)
        rep = causal_discriminable(inst.c0, inst.c1, restarts=4, seed=1)
        for e in synthesize_tester(inst.c0, inst.c1, rep.witness).elements:
            assert not e.blocks.whole and "matrix" not in vars(e)
            fresh = matcore.Blocks.of(e.matrix)
            assert [g.tolist() for g in e.blocks.groups] == [g.tolist() for g in fresh.groups]


@pytest.mark.parametrize("argv", [["--d", "2"], ["--d", "3", "--seed", "1"]])
def test_paper_example_prints_the_same_from_entries_and_from_matrices(monkeypatch, capsys,
                                                                        argv):
    # the same combs and tester elements, wrapped as matrices, are read as
    # their entries on their partitions; the report must not change by a bit
    assert cli.main(["paper-example"] + argv) == 0
    from_entries = capsys.readouterr().out
    chois, circuit = separation._closed_form_chois, separation.tester_from_circuit
    dense_reads = []

    def dense_tester(tc):
        t = circuit(tc)
        dense_reads.append(t)
        return testers.tester_from_elements([matrix_built(e) for e in t.elements], t.uses)

    monkeypatch.setattr(separation, "_closed_form_chois",
                        lambda d: tuple(matrix_built(op) for op in chois(d)))
    monkeypatch.setattr(separation, "tester_from_circuit", dense_tester)
    assert cli.main(["paper-example"] + argv) == 0
    assert dense_reads and capsys.readouterr().out == from_entries


def test_paper_example_d4_holds_no_side_1024_matrix():
    # the combs and the protocol elements are held as their block entries
    # (C0: 64 blocks of 4 and 768 zero singletons; C1 and the elements:
    # diagonal), and the comb and tester chains are walked on them, so no
    # stage of the run needs a 16 MB side-1024 matrix, nor a 1 MB side-256
    # level of a chain: the dense walk and contraction held three of those
    argv = ["paper-example", "--d", "4", "--seed", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["paper-example", "--d", "2"])  # numpy's lazy imports, untraced
        code, peak = traced_peak(cli.main, argv)
    assert code == 0
    assert peak < 2.5 * 2 ** 20, peak / 2 ** 20
    summary, peak = traced_peak(comb_validation_summary, build_example(4))
    assert summary["c0"]["valid"] and summary["c1"]["valid"]
    assert peak < 0.5 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("d", [6, 8])
def test_paper_example_peak_rss_in_a_child_process(d):
    # the whole run, interpreter and numpy included, in a fresh process; an
    # intermediate process reads its peak resident set (RUSAGE_CHILDREN), so
    # no other child of the test run is counted.  At d = 6 the dense chain
    # walk and contraction, with their side-1296 arrays, took it to 144 MB;
    # at d = 8, G and B contracted on every block and pair and Tr_13 gathered
    # on every row took it to 150 MB, where it is now near 60 MB
    script = ("import resource, subprocess, sys; "
              "subprocess.run([sys.executable, '-m', 'combtester.cli', 'paper-example', "
              f"'--d', '{d}'], stdout=subprocess.DEVNULL, check=True); "
              "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    env = dict(os.environ, PYTHONPATH=str(Path(combtester.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    assert int(out.stdout) < 80 * 1024, int(out.stdout) / 1024  # kB on Linux


def unrestricted_elements(tc: TesterCircuit) -> list[matcore.LabeledOperator]:
    """The tester elements of a circuit with ``G`` contracted on every block
    ``(X, x)`` of space 0 and ``B`` on every pair ``(z, Z)`` of the last
    space, ``d⁷`` entries each on the protocol: the reference that
    ``tester_from_circuit``, contracting only what the state and each POVM
    element reach, must match bit for bit."""
    n = tc.uses
    sd, ad = tc.system_dims, tc.ancilla_dims
    ket = _ket_chain(tc.blocks, sd, ad, 1)
    state = tc.input_state.reshape(sd[0], ad[0], sd[0], ad[0])
    side, dz, ny = int(np.prod(sd)), sd[-1], ket.shape[1]
    w = side // sd[0]
    g = np.einsum("syt,XSxs->XxSty", ket.conj(), state, order="C")
    g = g.reshape(sd[0], sd[0], -1, ny)
    elements = []
    for m in tc.povm:
        b = np.einsum("ztZT,SYT->StzYZ", m.reshape(dz, ad[-1], dz, ad[-1]), ket, order="C")
        b = b.reshape(g.shape[2], -1)
        reach = np.flatnonzero(b.any(axis=0))
        z, Y, Z = np.unravel_index(reach, (dz, ny, dz))
        b = b[:, reach]
        flat, values = [], []
        for X, x in np.ndindex(sd[0], sd[0]):
            ys = np.flatnonzero(g[X, x].any(axis=0))
            part = g[X, x][:, ys].T @ b
            i, j = np.nonzero(part)
            flat.append((x * w + ys[i] * dz + z[j]) * side + X * w + Y[j] * dz + Z[j])
            values.append(part[i, j])
        rows, cols = np.divmod(np.concatenate(flat), side)
        elements.append(matcore.LabeledOperator._nonzeros(rows, cols, np.concatenate(values),
                                                          range(2 * n), sd))
    return elements


def assert_same_bits(op: matcore.LabeledOperator, reference: matcore.LabeledOperator) -> None:
    """``op`` is ``reference``: the same partition and the same entry bits."""
    assert [g.tolist() for g in op.blocks.groups] == [g.tolist() for g in reference.blocks.groups]
    assert op.entries.tobytes() == reference.entries.tobytes()


def gathered_trace_13(c0: matcore.LabeledOperator, c1: matcore.LabeledOperator) -> np.ndarray:
    """``Tr_13[C0 C1]`` from a ``(d⁵, d²)`` array: for each entry of C1, the
    column of C0 it meets, gathered on all ``d²`` rows of spaces (0, 2); the
    reference that the join of the stored entries must match bit for bit."""
    dims = c0.dims
    side = dims[0] * dims[2]
    m, col = c1.blocks.index
    k0, j1, k2, j3 = np.unravel_index(col, dims)
    i0, i2 = np.divmod(np.arange(side), dims[2])
    rows = np.ravel_multi_index((i0, j1[:, None], i2, j3[:, None]), dims)
    terms = c0.at(rows, m[:, None]) * c1.entries[:, None]
    t = np.zeros((side, side), dtype=complex)
    np.add.at(t.T, k0 * dims[2] + k2, terms)
    return t


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_protocol_tester_is_the_unrestricted_contraction_bit_for_bit(d):
    # basis inputs reach one block of space 0, a random one all d² blocks;
    # the two POVM elements reach 1 and d - 1 pairs of the last space
    inst = build_example(d)
    rng = np.random.default_rng(d)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    for psi in (np.eye(d)[0], np.eye(d)[d - 1], psi / np.linalg.norm(psi)):
        tc = protocol_circuit(inst, psi)
        for e, ref in zip(testers.tester_from_circuit(tc).elements, unrestricted_elements(tc)):
            assert_same_bits(e, ref)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_trace_13_join_is_the_gathered_form_bit_for_bit(d):
    # on the combs' own partitions, and (d <= 3) held as one block each, so
    # that every zero of both is a stored entry and joins
    inst = build_example(d)
    pairs = [(inst.c0.choi, inst.c1.choi)]
    if d <= 3:
        whole = matcore.Blocks([np.arange(d ** 5)[None]], d ** 5)
        pairs.append(tuple(matcore.LabeledOperator(c.matrix.reshape(-1), c.labels, c.dims,
                                                   blocks=whole) for c in pairs[0]))
    for c0, c1 in pairs:
        t = separation._trace_13(c0, c1)
        assert t.tobytes() == gathered_trace_13(c0, c1).tobytes()
        assert np.abs(t - np.eye(d * d) / d ** 3).max() <= 1e-15


def test_protocol_tester_d6_holds_less_than_one_d7_array():
    # G is contracted on the one block of space 0 a basis input reaches and B
    # on the pairs of the last space each POVM element reaches; the
    # unrestricted G and B have 6⁷ entries each (4.5 MB), and peaked at 9.6 MB
    testers.tester_from_circuit(protocol_circuit(build_example(2), np.eye(2)[0]))  # lazy imports
    tc = protocol_circuit(build_example(6), np.eye(6)[0])
    tester, peak = traced_peak(testers.tester_from_circuit, tc)
    assert peak < 16 * 6 ** 7, peak / 2 ** 20
    assert validate_tester(tester, 1e-9).valid

