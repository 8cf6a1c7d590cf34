import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combtester import matcore
from combtester.channels import (
    Channel,
    comb_from_isometries,
    comb_from_sequence,
    identity_channel,
    unitary_channel,
)
from combtester.discrimination import (
    _ProductObjective,
    causal_discriminable,
    delta_matrix,
    kraus_orthogonality,
    min_entanglement_rank,
    parallel_discriminable,
    product_residual,
    synthesize_tester,
)
from combtester.distances import cb_distance, memory_distance
from combtester.matcore import LabeledOperator
from combtester.optim import XiChainSet
from combtester.sampling import haar_unitary, random_density, random_kraus
from combtester.separation import build_example, causal_protocol
from combtester.testers import povm_from_tester, reduced_state, validate_tester
from util import random_isometric_comb

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_parallel_identical_channels_infeasible():
    c = comb_from_sequence([identity_channel(2)]).choi
    rep = parallel_discriminable(c, c, restarts=4, seed=0)
    assert rep.status == "infeasible"
    assert rep.residual > 1.0
    # no start reaches zero, so every one of them runs
    assert rep.restarts == 4


def test_parallel_identity_vs_exchange_feasible():
    ci = comb_from_sequence([identity_channel(2)]).choi
    cx = comb_from_sequence([unitary_channel(X)]).choi
    rep = parallel_discriminable(ci, cx, restarts=4, seed=0)
    assert rep.feasible
    assert rep.residual <= 1e-10
    ok, viol = kraus_orthogonality(identity_channel(2), unitary_channel(X),
                                   rep.witness.matrix)
    assert ok, viol


def test_parallel_counterexample_infeasible():
    inst = build_example(2)
    rep = parallel_discriminable(inst.c0.choi, inst.c1.choi, restarts=4, seed=0)
    assert rep.status == "infeasible"
    # the exact minimum is purity/d^6, attained at the maximally mixed input
    assert abs(rep.residual - 1.0 / 2**8) < 1e-9


def test_objective_history_monotone():
    inst = build_example(2)
    rep = parallel_discriminable(inst.c0.choi, inst.c1.choi, restarts=2, seed=1)
    h = np.asarray(rep.objective_history)
    assert np.all(np.diff(h) <= 1e-15)


def test_kraus_orthogonality_cases():
    idc = identity_channel(2)
    xc = unitary_channel(X)
    ok, viol = kraus_orthogonality(idc, xc, np.eye(2) / 2)
    assert ok and viol < 1e-15
    ok, viol = kraus_orthogonality(idc, idc, np.eye(2) / 2)
    assert not ok and abs(viol - 1.0) < 1e-12


def test_phase_gate_never_orthogonal_below_pi():
    idc = identity_channel(2)
    for theta in (0.3, 1.2, np.pi - 0.2):
        u = np.diag([1.0, np.exp(1j * theta)])
        uc = unitary_channel(u)
        floor = np.cos(theta / 2)  # hull distance of {1, e^{i theta}}
        rng = np.random.default_rng(0)
        best = min(
            kraus_orthogonality(idc, uc, random_density(2, rng))[1] for _ in range(200)
        )
        assert best > floor - 1e-9
        rep = parallel_discriminable(
            comb_from_sequence([idc]).choi, comb_from_sequence([uc]).choi,
            restarts=4, seed=0,
        )
        assert rep.status in ("infeasible", "undetermined")


def test_orthogonality_iff_zero_objective():
    rng = np.random.default_rng(1)
    idc = identity_channel(2)
    ci = comb_from_sequence([idc]).choi
    for _ in range(20):
        u = haar_unitary(2, rng)
        uc = unitary_channel(u)
        cu = comb_from_sequence([uc]).choi
        rho = random_density(2, rng)
        witness = LabeledOperator(rho, (0,), (2,))
        f = product_residual(ci, cu, [1], witness)
        ok, viol = kraus_orthogonality(idc, uc, rho.T)
        # f = d^2 |Tr[U rho^T]|^2 for unitary channels
        assert abs(f - 4 * viol**2) < 1e-10
        assert ok == (f <= 1e-16 * max(1.0, f + 1.0))


def test_min_entanglement_rank_examples():
    idc = identity_channel(2)
    assert min_entanglement_rank(idc, unitary_channel(X)) == 1
    assert min_entanglement_rank(idc, identity_channel(2)) is None
    flip = unitary_channel(np.diag([1.0, np.exp(1j * np.pi)]))
    assert min_entanglement_rank(idc, flip) == 1


def test_min_entanglement_rank_none_below_threshold():
    # spread below pi: no input state of any rank gives orthogonal outputs
    idc = identity_channel(2)
    u = np.diag([1.0, 1j])
    assert min_entanglement_rank(idc, unitary_channel(u)) is None


def test_causal_identical_infeasible():
    mc = comb_from_sequence([identity_channel(2), identity_channel(2)])
    rep = causal_discriminable(mc, mc, restarts=3, seed=0, max_iter=150)
    assert rep.status == "infeasible"
    assert rep.restarts == 3


def test_causal_counterexample_feasible_and_synthesis():
    inst = build_example(2)
    rep = causal_discriminable(inst.c0, inst.c1, restarts=4, seed=0, max_iter=1500)
    assert rep.feasible, rep.residual
    t = synthesize_tester(inst.c0, inst.c1, rep.witness)
    dm = delta_matrix(t, [inst.c0, inst.c1])
    assert np.abs(dm - np.eye(2)).max() <= 1e-6
    assert validate_tester(t, 1e-8).valid


def test_causal_draws_random_starts_only_when_they_run(monkeypatch):
    drawn = []
    draw = XiChainSet.random_feasible

    def counted(self, rng):
        drawn.append(rng)
        return draw(self, rng)

    monkeypatch.setattr(XiChainSet, "random_feasible", counted)
    inst = build_example(2)
    rep = causal_discriminable(inst.c0, inst.c1, restarts=4, seed=0)
    assert rep.feasible and rep.restarts == 1
    assert drawn == []


def test_causal_counterexample_d4_feasible_and_synthesis():
    inst = build_example(4)
    rep = causal_discriminable(inst.c0, inst.c1, restarts=1, seed=0, max_iter=1500)
    assert rep.status == "feasible", rep.residual
    t = synthesize_tester(inst.c0, inst.c1, rep.witness)
    assert np.abs(delta_matrix(t, [inst.c0, inst.c1]) - np.eye(2)).max() <= 1e-6
    assert validate_tester(t, 1e-8).valid


def test_causal_consistent_with_parallel_on_memoryless():
    # two-use memoryless combs of perfectly discriminable unitaries
    ci = comb_from_sequence([identity_channel(2), identity_channel(2)])
    cx = comb_from_sequence([unitary_channel(X), unitary_channel(X)])
    prep = parallel_discriminable(ci.choi, cx.choi, restarts=4, seed=0)
    crep = causal_discriminable(ci, cx, restarts=4, seed=0, max_iter=800)
    assert prep.feasible and crep.feasible


def test_parallel_witness_embeds_as_causal_witness():
    ci = comb_from_sequence([identity_channel(2), identity_channel(2)])
    cx = comb_from_sequence([unitary_channel(X), unitary_channel(X)])
    rep = parallel_discriminable(ci.choi, cx.choi, restarts=4, seed=0)
    assert rep.feasible
    xi_set = XiChainSet(ci.choi.dims[:-1])
    embedded = xi_set.embed_state(rep.witness)
    assert xi_set.membership_residual(embedded) < 1e-9
    xi = LabeledOperator(embedded, xi_set.labels, xi_set.dims)
    g = product_residual(ci.choi, cx.choi, [3], xi)
    f = product_residual(ci.choi, cx.choi, [1, 3], rep.witness)
    assert abs(g - f) < 1e-10
    t = synthesize_tester(ci, cx, xi)
    assert np.abs(delta_matrix(t, [ci, cx]) - np.eye(2)).max() <= 1e-6


def _memoryless_unequal_pair(rng):
    """Two random three-use memoryless combs with (d_in, d_out) 2->3, 3->2, 2->2."""
    shapes = [(2, 3), (3, 2), (2, 2)]
    return [comb_from_sequence([Channel(tuple(random_kraus(i, o, 2, rng)), i, o)
                                for i, o in shapes]) for _ in range(2)]


@pytest.mark.parametrize("case", ["example-2", "example-3", "memoryless-3"])
def test_parallel_is_causal_on_the_regrouped_comb(case):
    if case == "memoryless-3":
        c0, c1 = _memoryless_unequal_pair(np.random.default_rng(11))
    else:
        inst = build_example(int(case[-1]))
        c0, c1 = inst.c0, inst.c1
    par = parallel_discriminable(c0.choi, c1.choi, restarts=3, seed=1)
    cau = causal_discriminable(c0.as_single_use(), c1.as_single_use(),
                               restarts=3, seed=1, max_iter=400)
    assert (par.status, par.residual, par.iterations, par.restarts) == (
        cau.status, cau.residual, cau.iterations, cau.restarts)
    assert np.array_equal(par.witness.matrix, cau.witness.matrix)
    assert par.witness.labels == c0.choi.labels[0::2]
    assert par.witness.dims == c0.input_dims
    # the witness still lifts into the causal chain set of the N-use comb
    xi_set = XiChainSet(c0.dims[:-1])
    assert xi_set.membership_residual(xi_set.embed_state(par.witness)) < 1e-9


def test_parallel_rejects_mismatched_operands():
    rng = np.random.default_rng(12)

    def comb(*shapes):
        return comb_from_sequence([Channel(tuple(random_kraus(i, o, 2, rng)), i, o)
                                   for i, o in shapes]).choi

    one, wide = comb((2, 2)), comb((3, 3))
    two = comb((2, 2), (2, 2))
    pairs = [
        (one, two),                   # different label sets
        (comb((4, 4)), two),          # different label sets, equal grouped dims
        (one, wide),                  # equal labels, different dims
        (comb((2, 3), (3, 2)), comb((3, 2), (2, 3))),  # ... equal grouped dims
        (LabeledOperator(np.eye(8) / 2, (0, 1, 2), (2, 2, 2)), one),  # not a comb
    ]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError):
                parallel_discriminable(x, y, restarts=1)


def test_synthesize_refuses_bad_witness():
    mc = comb_from_sequence([identity_channel(2), identity_channel(2)])
    xi_set = XiChainSet(mc.choi.dims[:-1])
    xi = LabeledOperator(xi_set.uniform(), xi_set.labels, xi_set.dims)
    with pytest.raises(ValueError):
        synthesize_tester(mc, mc, xi)


def test_fast_objective_matches_direct_product():
    rng = np.random.default_rng(2)
    for _ in range(5):
        cha = Channel(tuple(random_kraus(2, 2, 2, rng)), 2, 2)
        chb = Channel(tuple(random_kraus(2, 2, 2, rng)), 2, 2)
        a = comb_from_sequence([cha]).choi
        b = comb_from_sequence([chb]).choi
        rho = random_density(2, rng)
        witness = LabeledOperator(rho, (0,), (2,))
        obj = _ProductObjective(a, b, [1])
        fast, _ = obj.value_and_grad(rho)
        assert abs(fast - product_residual(a, b, [1], witness)) < 1e-10


@st.composite
def _objective_cases(draw):
    """A random 1- or 2-use comb pair and the labels carrying the identity.

    Causal cases fix the top output, so ``df^2 < de^2``; parallel cases fix
    every output with outputs wider than inputs, so ``de^2 < df^2``.
    """
    uses = draw(st.integers(1, 2))
    parallel = draw(st.booleans())
    if parallel:
        ins = draw(st.lists(st.integers(2, 3), min_size=uses, max_size=uses))
        outs = [d + draw(st.integers(0, 1)) for d in ins]
        outs[-1] = ins[-1] + 1
    elif uses == 1:
        ins, outs = [3], [2]
    else:
        ins = draw(st.lists(st.integers(2, 3), min_size=2, max_size=2))
        outs = draw(st.lists(st.integers(2, 3), min_size=2, max_size=2))
    system = tuple(d for pair in zip(ins, outs) for d in pair)
    ancillas, anc_in = [], 1
    for j in range(uses):
        need = -(-system[2 * j] * anc_in // system[2 * j + 1])
        ancillas.append(need + draw(st.integers(0, 1)))
        anc_in = ancillas[-1]
    fixed = [2 * j + 1 for j in range(uses)] if parallel else [2 * uses - 1]
    return system, tuple(ancillas), fixed, parallel, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40, deadline=None)
@given(case=_objective_cases())
def test_product_objective_value_and_gradient(case):
    system, ancillas, fixed, parallel, seed = case
    rng = np.random.default_rng(seed)
    a, b = (comb_from_isometries(random_isometric_comb(system, ancillas, rng)).choi
            for _ in range(2))
    obj = _ProductObjective(a, b, fixed)
    small, large = (obj.de, obj.df) if parallel else (obj.df, obj.de)
    assert small < large
    # a dense comb keeps all df^2 fixed pairs, so the rank is k = small^2
    assert obj.q_.shape == (obj.de, obj.de * small ** 2)
    _check_value_and_gradient(obj, a, b, fixed, rng)


@pytest.mark.parametrize("d", [2, 3])
def test_product_objective_drops_zero_fixed_pairs(d):
    inst = build_example(d)
    a, b = inst.c0.choi.sorted(), inst.c1.choi.sorted()
    causal = [2 * inst.c0.uses - 1]
    parallel = [l for l in a.labels if l % 2 == 1]
    rng = np.random.default_rng(d)
    for fixed in (causal, parallel):
        obj = _ProductObjective(a, b, fixed)
        kept = obj.q_.shape[1] // obj.de
        assert kept < obj.df ** 2
        _check_value_and_gradient(obj, a, b, fixed, rng)


def _check_value_and_gradient(obj, a, b, fixed, rng):
    """The value against the direct product, the gradient by polarization."""
    x = random_density(obj.de, rng)
    y = rng.normal(size=(obj.de, obj.de)) + 1j * rng.normal(size=(obj.de, obj.de))
    y = y + y.conj().T
    fx, grad = obj.value_and_grad(x)
    direct = product_residual(a, b, fixed, LabeledOperator(x, obj.free_labels, obj.free_dims))
    assert abs(fx - direct) <= 1e-10 * max(1.0, direct)
    assert np.abs(grad - grad.conj().T).max() == 0.0
    # f is a real quadratic form, so its polarization is exact
    fy, fxy = obj.value(y), obj.value(x + y)
    cross = float(np.einsum("ij,ji->", grad, y).real)
    assert abs(fxy - fx - fy - cross) <= 1e-10 * max(1.0, fxy, fy)


@pytest.mark.parametrize("restarts", [0, -3])
def test_solvers_reject_fewer_than_one_restart(restarts):
    mc = comb_from_sequence([identity_channel(2)])
    solvers = [
        lambda: parallel_discriminable(mc.choi, mc.choi, restarts=restarts),
        lambda: causal_discriminable(mc, mc, restarts=restarts),
        lambda: cb_distance(mc.choi, mc.choi, restarts=restarts),
        lambda: memory_distance(mc, mc, restarts=restarts),
    ]
    for solve in solvers:
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            solve()


def _dense_map(h, f):
    w, v = np.linalg.eigh(h)
    return (v * f(w)) @ v.conj().T


def _dense_sandwich(root, m):
    lift = np.kron(root, np.eye(len(m) // len(root)))
    return lift @ m @ lift


def test_causal_decision_and_synthesis_stay_blockwise(monkeypatch):
    # the counterexample's iterates and witness are diagonal and its
    # sandwiched difference has blocks of side d, so no dense eigh runs;
    # synthesis, POVM reduction and reduced state lift the root of the top
    # chain element on its blocks, with no product of labeled operators
    shapes = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def refuse(self, other):
        raise AssertionError("a labeled operator product ran")

    monkeypatch.setattr(np.linalg, "eigh", spy)
    monkeypatch.setattr(LabeledOperator, "__matmul__", refuse)
    inst = build_example(3)
    rep = causal_discriminable(inst.c0, inst.c1, restarts=4, seed=1)
    assert rep.feasible, rep.residual
    # the decision labelled C0; synthesis labels the witness, once for its
    # residual and its root, and the sandwiched difference
    labelled = []
    block_groups = matcore.block_groups
    monkeypatch.setattr(matcore, "block_groups", lambda h: labelled.append(h) or block_groups(h))
    t = synthesize_tester(inst.c0, inst.c1, rep.witness)
    assert [h.shape[0] for h in labelled] == [81, 243]
    assert shapes
    assert max(shape[-1] for shape in shapes) <= 3, sorted(set(shapes))
    povm = povm_from_tester(t)
    reduced = reduced_state(inst.c0, t)
    monkeypatch.undo()

    xi = rep.witness.sorted().matrix
    root = _dense_map(xi, lambda w: np.sqrt(np.clip(w, 0.0, None)))
    tilted = _dense_sandwich(root, inst.c0.choi.matrix - inst.c1.choi.matrix)
    pos = _dense_map(tilted, lambda w: w > 1e-12 * max(1.0, np.abs(w).max()))
    p0 = _dense_sandwich(root, pos)
    p1 = np.kron(xi, np.eye(3)) - p0
    for element, dense in zip(t.elements, (p0, p1)):
        assert np.abs(element.matrix - dense).max() <= 1e-12

    chain_top = t.chain[-1].matrix
    inv = _dense_map(chain_top, lambda w: np.where(w > 1e-12, 1 / np.sqrt(np.abs(w)), 0.0))
    dense_povm = [_dense_sandwich(inv, e.matrix) for e in t.elements]
    dense_povm[-1] += np.eye(len(inv) * 3) - sum(dense_povm)
    for element, dense in zip(povm, dense_povm):
        assert np.abs(element.matrix - dense).max() <= 1e-12
    chain_root = _dense_map(chain_top, lambda w: np.sqrt(np.clip(w, 0.0, None)))
    dense_reduced = _dense_sandwich(chain_root, inst.c0.choi.matrix)
    assert np.abs(reduced.matrix - dense_reduced).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_synthesis_from_rank_deficient_protocol_chain(d):
    # the protocol tester's top chain element has rank d^2 of d^4
    inst = build_example(d)
    protocol, _ = causal_protocol(inst, np.eye(d, dtype=complex)[0])
    witness = protocol.chain[-1]
    assert np.linalg.matrix_rank(witness.matrix) == d ** 2
    t = synthesize_tester(inst.c0, inst.c1, witness)
    assert validate_tester(t, 1e-8).valid
    assert np.abs(delta_matrix(t, [inst.c0, inst.c1]) - np.eye(2)).max() <= 1e-12
    for tester in (protocol, t):
        povm = povm_from_tester(tester)
        side = povm[0].side
        assert np.abs(sum(p.matrix for p in povm) - np.eye(side)).max() <= 1e-12
        for p in povm:
            assert np.linalg.eigvalsh(p.matrix)[0] >= -1e-12


@pytest.mark.parametrize("case", ["uses", "dims", "witness labels", "witness dims",
                                  "fixed label"])
def test_synthesis_and_residual_name_mismatched_spaces(case):
    one = comb_from_sequence([identity_channel(2)])
    two = comb_from_sequence([identity_channel(2), unitary_channel(X)])
    wide = comb_from_sequence([identity_channel(2), identity_channel(3)])
    xi_set = XiChainSet(two.dims[:-1])
    xi = LabeledOperator(xi_set.uniform(), xi_set.labels, xi_set.dims)
    calls = {
        "uses": (lambda: synthesize_tester(one, two, LabeledOperator(np.eye(2) / 2, (0,), (2,))),
                 "combs differ: dims \\(2, 2\\) on \\(0, 1\\)"),
        "dims": (lambda: product_residual(two.choi, wide.choi, [3], xi),
                 "combs differ: .* \\(2, 2, 3, 3\\) on"),
        # the witness lacks a free space, or splits the free side otherwise
        "witness labels": (
            lambda: synthesize_tester(two, two, LabeledOperator(np.eye(4) / 4, (0, 1), (2, 2))),
            "witness dims \\(2, 2\\) on \\(0, 1\\) are not"),
        "witness dims": (
            lambda: synthesize_tester(two, two, LabeledOperator(xi.matrix, (0, 1, 2), (4, 1, 2))),
            "witness dims \\(4, 1, 2\\) on \\(0, 1, 2\\)"),
        "fixed label": (lambda: product_residual(two.choi, two.choi, [3, 7], xi),
                        "fixed labels \\[7\\]"),
    }
    call, message = calls[case]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("d,options", [(3, dict(restarts=4, seed=1)),
                                       (4, dict(restarts=1, seed=0, max_iter=1500))])
def test_causal_decision_steps_on_packed_iterates(d, options, monkeypatch):
    # the counterexample's invariant partition is d^4 blocks of side 1, so
    # every iterate holds d^4 entries rather than the chain side squared
    sizes = []
    value_and_grad = _ProductObjective.value_and_grad

    def spy(self, x):
        sizes.append(np.size(x))
        return value_and_grad(self, x)

    monkeypatch.setattr(_ProductObjective, "value_and_grad", spy)
    inst = build_example(d)
    rep = causal_discriminable(inst.c0, inst.c1, **options)
    assert rep.feasible, rep.residual
    assert sizes and set(sizes) == {d ** 4}


def test_parallel_decision_makes_no_full_side_copy():
    # the objective squares the combs' blocks and reads their regrouping
    # through an index map, so the decision never holds a regrouped or
    # squared copy of a side-243 comb
    inst = build_example(3)
    c0, c1 = inst.c0.choi, inst.c1.choi
    # a first decision runs numpy's lazy imports, which tracing would count
    parallel_discriminable(c0, c1, restarts=1, max_iter=1)
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        rep = parallel_discriminable(c0, c1, restarts=2, seed=1, max_iter=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.status != "feasible"
    assert peak - live < c0.matrix.nbytes, (peak - live, c0.matrix.nbytes)
