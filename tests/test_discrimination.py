import dataclasses
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import combtester
from combtester import discrimination, matcore, optim
from combtester.channels import (
    Channel,
    comb_from_isometries,
    comb_from_sequence,
    identity_channel,
    unitary_channel,
)
from combtester.discrimination import (
    FEASIBLE_TOL,
    INFEASIBLE_TOL,
    _pair_slices,
    _ProductObjective,
    causal_discriminable,
    delta_matrix,
    kraus_orthogonality,
    parallel_discriminable,
    product_residual,
    synthesize_tester,
)
from combtester.distances import cb_distance, memory_distance, unitary_cb_oracle
from combtester.matcore import LabeledOperator
from combtester.optim import XiChainSet, invariant_blocks
from combtester.sampling import haar_unitary, random_density, random_kraus, random_psd
from combtester.separation import build_example, causal_protocol
from combtester.testers import povm_from_tester, reduced_state, validate_tester
from combtester.unitary import _arc_sorted_eigensystem, angular_spread
from util import random_isometric_comb, traced_peak

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_parallel_identical_channels_infeasible():
    c = comb_from_sequence([identity_channel(2)]).choi
    rep = parallel_discriminable(c, c, restarts=4, seed=0)
    assert rep.status == "infeasible"
    assert rep.residual > 1.0
    # the distance bound at the uniform point is 0, a proof before any start
    assert rep.upper == 0.0
    assert (rep.iterations, rep.capped) == (0, 0)


def test_parallel_identity_vs_exchange_feasible():
    ci = comb_from_sequence([identity_channel(2)]).choi
    cx = comb_from_sequence([unitary_channel(X)]).choi
    rep = parallel_discriminable(ci, cx, restarts=4, seed=0)
    assert rep.feasible
    assert rep.residual <= 1e-10
    ok, viol = kraus_orthogonality(identity_channel(2), unitary_channel(X),
                                   rep.witness.matrix)
    assert ok, viol
    # halved, the pair is no pair of channels and its distance is 1, but the
    # product still vanishes: the bound is read against the pair's own
    # normalization, so it proves nothing and the descent finds the zero
    half = parallel_discriminable(0.5 * ci, 0.5 * cx, restarts=4, seed=0)
    assert half.feasible and abs(half.upper - 2.0) <= 1e-12


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
    # below pi no input of any rank gives orthogonal outputs, and the
    # decision proves it at the uniform point (at pi/2, upper is sqrt 2)
    for theta in (0.3, 1.2, np.pi / 2, np.pi - 0.2):
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
        assert rep.status == "infeasible" and rep.iterations == 0
        assert abs(rep.upper - unitary_cb_oracle(np.eye(2), u)) <= 1e-12


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


def _unitary_pair(u):
    return tuple(comb_from_sequence([c]).choi
                 for c in (identity_channel(len(u)), unitary_channel(u)))


def _pure_input(u, witness):
    """The pure state with the weights of ``witness^T`` on the eigenbasis of
    ``u``: ``Tr[rho u]`` is the same weighted mean of the eigenvalues, so it
    has the witness's orthogonality violation."""
    _, basis = _arc_sorted_eigensystem(u)
    weights = np.einsum("ik,ij,jk->k", basis.conj(), witness.matrix.T, basis).real
    psi = basis @ np.sqrt(np.clip(weights, 0, None))
    return np.outer(psi, psi.conj())


@pytest.mark.parametrize("u", [X, np.diag([1.0, -1.0])], ids=["X", "Z"])
def test_unitary_pair_discriminable_with_a_pure_input(u):
    # for a unitary pair a pure input works whenever any input does: the
    # numerical range of a normal matrix is the hull of its eigenvalues
    rep = parallel_discriminable(*_unitary_pair(u), seed=0)
    assert rep.feasible, rep.residual
    idc, uc = identity_channel(2), unitary_channel(u)
    ok, viol = kraus_orthogonality(idc, uc, rep.witness.matrix.T)
    assert ok, viol
    pure = _pure_input(u, rep.witness)
    assert abs(np.trace(pure) - 1) <= 1e-12 and np.linalg.matrix_rank(pure) == 1
    ok, pure_viol = kraus_orthogonality(idc, uc, pure)
    assert ok and abs(pure_viol - viol) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_unitary_pair_one_use_law(d, seed):
    # the paper's claim at one use: I and U are perfectly discriminable iff
    # the angular spread of U reaches pi, and each verdict is certified
    u = haar_unitary(d, np.random.default_rng(seed))
    spread = angular_spread(u)
    assume(abs(spread - np.pi) >= 0.05)
    rep = parallel_discriminable(*_unitary_pair(u), seed=0)
    assert rep.feasible == (spread >= np.pi), (rep.status, spread)
    oracle = unitary_cb_oracle(np.eye(d), u)
    if not rep.feasible:
        assert rep.status == "infeasible"
        assert oracle - 1e-9 <= rep.upper < 2
        if d == 2:
            assert abs(rep.upper - oracle) <= 1e-12
        return
    # the residual is d^2 |Tr[w^T U]|^2 at the witness w; the identity is
    # checked squared, since a square root magnifies the residual's rounding
    idc, uc = identity_channel(d), unitary_channel(u)
    viol = kraus_orthogonality(idc, uc, rep.witness.matrix.T)[1]
    assert abs(d**2 * viol**2 - rep.residual) <= 1e-14
    pure_viol = kraus_orthogonality(idc, uc, _pure_input(u, rep.witness))[1]
    assert abs(pure_viol - viol) <= 1e-12


def test_causal_identical_infeasible():
    mc = comb_from_sequence([identity_channel(2), identity_channel(2)])
    rep = causal_discriminable(mc, mc, restarts=3, seed=0, max_iter=150)
    assert rep.status == "infeasible"
    assert rep.capped == 0


def test_capped_multi_use_decision_is_undetermined():
    # a start stopped at max_iter above INFEASIBLE_TOL was still descending,
    # so its residual proves nothing
    rng = np.random.default_rng(3)
    a, b = (Channel(tuple(random_kraus(2, 2, 2, rng)), 2, 2) for _ in range(2))
    rep = causal_discriminable(comb_from_sequence([a, a]), comb_from_sequence([b, b]),
                               restarts=1, max_iter=10, seed=0)
    assert (rep.status, rep.capped) == ("undetermined", 1)
    assert rep.residual > INFEASIBLE_TOL


def test_causal_counterexample_feasible_and_synthesis():
    inst = build_example(2)
    rep = causal_discriminable(inst.c0, inst.c1, restarts=4, seed=0, max_iter=1500)
    assert rep.feasible, rep.residual
    t = synthesize_tester(inst.c0, inst.c1, rep.witness)
    dm = delta_matrix(t, [inst.c0, inst.c1])
    assert np.abs(dm - np.eye(2)).max() <= 1e-6
    assert validate_tester(t, 1e-8).valid


def test_settled_decision_imports_no_random_generator():
    # no step of a decision is random, so it never imports numpy.random
    script = ("import sys; from combtester.separation import build_example; "
              "from combtester.discrimination import causal_discriminable; "
              "inst = build_example(2); rep = causal_discriminable(inst.c0, inst.c1); "
              "print(rep.status, rep.capped, 'numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(combtester.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == ["feasible", "0", "False"]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_causal_counterexample_settles_in_a_few_steps(d):
    # the first step is the exact line minimizer along -g, so the uniform
    # start reaches the target in a few steps (20, 30 and 37 from a unit step)
    inst = build_example(d)
    rep = causal_discriminable(inst.c0, inst.c1, restarts=1, seed=0)
    assert rep.capped == 0
    assert rep.iterations <= 5, rep.iterations
    assert rep.residual <= FEASIBLE_TOL * 1e-4
    assert np.all(np.diff(rep.objective_history) <= 0)


def test_capped_starts_are_counted():
    inst = build_example(3)
    capped = causal_discriminable(inst.c0, inst.c1, restarts=2, seed=0, max_iter=1)
    assert (capped.capped, capped.iterations) == (1, 1)
    settled = causal_discriminable(inst.c0, inst.c1)
    assert settled.feasible and settled.capped == 0


def test_unconverged_projection_never_yields_feasible(monkeypatch):
    # the d = 2 counterexample is feasible; with the Dykstra loop cut at one
    # step, the descent still drives the residual below FEASIBLE_TOL, but
    # through projections that stopped unconverged, so the point may lie off
    # the chain set and the decision is undetermined
    inst = build_example(2)
    assert causal_discriminable(inst.c0, inst.c1, restarts=1).status == "feasible"
    monkeypatch.setattr(optim, "DYKSTRA_CAP", 1)
    rep = causal_discriminable(inst.c0, inst.c1, restarts=1)
    assert rep.residual < FEASIBLE_TOL
    assert (rep.status, rep.feasible, rep.capped) == ("undetermined", False, 0)


def test_causal_counterexample_d4_feasible_and_synthesis():
    # synthesis, its check and the Born table run on block entries: together
    # they hold less than one side-1024 complex matrix (16 MB), where dense
    # sandwiches of the combs took synthesis alone to about 101 MB
    inst = build_example(4)
    rep = causal_discriminable(inst.c0, inst.c1, restarts=1, seed=0, max_iter=1500)
    assert rep.status == "feasible", rep.residual

    def synthesized():
        t = synthesize_tester(inst.c0, inst.c1, rep.witness)
        return validate_tester(t, 1e-8), delta_matrix(t, [inst.c0, inst.c1])

    (check, table), peak = traced_peak(synthesized)
    assert np.abs(table - np.eye(2)).max() <= 1e-6
    assert check.valid
    assert peak < 16 * 2 ** 20, peak / 2 ** 20


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
    assert (par.status, par.residual, par.iterations, par.capped) == (
        cau.status, cau.residual, cau.iterations, cau.capped)
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


def test_synthesize_refuses_a_tester_that_fails_validation():
    # a feasible witness scaled by 1.5 keeps its zero product residual, but
    # the tester built from it has a chain of trace 1.5
    inst = build_example(2)
    rep = causal_discriminable(inst.c0, inst.c1, restarts=4, seed=0, max_iter=1500)
    assert rep.feasible, rep.residual
    scaled = rep.witness * 1.5
    assert product_residual(inst.c0.choi, inst.c1.choi, [3], scaled) <= 1e-20
    with pytest.raises(ValueError, match="max_residual"):
        synthesize_tester(inst.c0, inst.c1, scaled)


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
        fast, _ = obj.value_and_grad(obj.blocks.pack(rho))
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
    blocks = obj.blocks

    def value(m):
        return obj.value_and_grad(blocks.pack(m))[0]

    fx, grad = obj.value_and_grad(blocks.pack(x))
    grad = blocks.unpack(grad)
    direct = product_residual(a, b, fixed, LabeledOperator(x, obj.free_labels, obj.free_dims))
    assert abs(fx - direct) <= 1e-10 * max(1.0, direct)
    assert np.abs(grad - grad.conj().T).max() == 0.0
    # f is a real quadratic form, so its polarization is exact
    fy, fxy = value(y), value(x + y)
    cross = float(np.einsum("ij,ji->", grad, y).real)
    assert abs(fxy - fx - fy - cross) <= 1e-10 * max(1.0, fxy, fy)


def _scattered_pair_slices(c: LabeledOperator, order, df: int):
    """The slot-table scatter :func:`_pair_slices` replaced, as the reference:
    each nonzero entry of the square is scattered to the slot of its pair."""
    index = matcore.regroup_index(c.dims, [c.labels.index(l) for l in order])
    blocks = c.blocks.permuted(index)
    de = c.side // df
    rows, cols = blocks.index
    v = c.at(index[rows], index[cols])
    square = blocks.product(v, v)
    on = np.flatnonzero(square != 0)
    (e, o), (f, b) = np.divmod(rows[on], df), np.divmod(cols[on], df)
    nonzero = np.zeros((df, df), dtype=bool)
    nonzero[o, b] = True

    def stack(ko, kb):
        slot = np.full((df, df), -1)
        slot[ko, kb] = np.arange(ko.size)
        at = slot[o, b]
        hit = at >= 0
        out = np.zeros((ko.size, de, de), dtype=complex)
        out[at[hit], e[hit], f[hit]] = square[on[hit]]
        return out

    return nonzero, stack


def _pair_slice_cases():
    """(c0, c1, fixed labels): the counterexample at d = 2, 3 in the causal
    and the parallel order, and dense random combs whose kept pairs outnumber
    ``de^2``, so that the objective folds them."""
    for d in (2, 3):
        inst = build_example(d)
        yield inst.c0.choi, inst.c1.choi, [3]
        yield inst.c0.choi, inst.c1.choi, inst.c0.choi.labels[1::2]
    rng = np.random.default_rng(64)
    for system, ancillas, fixed in [((2, 3), (2,), [1]), ((2, 3, 2, 3), (2, 2), [1, 3])]:
        a, b = (comb_from_isometries(random_isometric_comb(system, ancillas, rng)).choi
                for _ in range(2))
        yield a, b, fixed


def test_pair_slices_gather_what_the_slot_table_scattered():
    folded = 0
    for c0, c1, fixed in _pair_slice_cases():
        order = [l for l in c0.labels if l not in fixed] + [l for l in c0.labels if l in fixed]
        df = int(np.prod([c0.dim_of(l) for l in fixed]))
        (q_on, q), (r_on, r) = (_pair_slices(c, order, df) for c in (c0, c1))
        (q_ref_on, q_ref), (r_ref_on, r_ref) = (_scattered_pair_slices(c, order, df)
                                                for c in (c0, c1))
        assert np.array_equal(q_on, q_ref_on) and np.array_equal(r_on, r_ref_on)
        ko, kb = np.nonzero(q_on & r_on.T)
        folded += ko.size > (c0.side // df) ** 2
        for o, b in [(ko, kb), np.divmod(np.arange(df * df), df)]:
            for got, want in [(q(o, b), q_ref(o, b)), (r(b, o), r_ref(b, o))]:
                assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
    assert folded == 2


def _decided(decide, monkeypatch):
    """A decision's report, and its witness as the dense route built it:
    the final packed iterate scattered to a matrix and labelled anew."""
    seen = {}
    for name in ("invariant_blocks", "projected_gradient_min"):
        f = getattr(discrimination, name)
        monkeypatch.setattr(discrimination, name,
                            lambda *a, f=f, name=name, **k: seen.setdefault(name, f(*a, **k)))
    rep = decide()
    monkeypatch.undo()
    dense = seen["invariant_blocks"].unpack(seen["projected_gradient_min"].x)
    return rep, LabeledOperator(dense, rep.witness.labels, rep.witness.dims)


@pytest.mark.parametrize("case", ["causal d=2", "causal d=3", "parallel", "dense"])
def test_decision_witness_is_the_operator_the_dense_route_built(case, monkeypatch):
    inst = build_example(3 if case == "causal d=3" else 2)
    rng = np.random.default_rng(65)
    decide = {
        "causal d=2": lambda: causal_discriminable(inst.c0, inst.c1),
        "causal d=3": lambda: causal_discriminable(inst.c0, inst.c1),
        "parallel": lambda: parallel_discriminable(
            comb_from_sequence([identity_channel(2)]).choi,
            comb_from_sequence([unitary_channel(X)]).choi),
        "dense": lambda: causal_discriminable(
            *(comb_from_isometries(random_isometric_comb((2, 2, 2, 2), (2, 2), rng))
              for _ in range(2)), max_iter=20),
    }[case]
    rep, want = _decided(decide, monkeypatch)
    got = rep.witness
    assert rep.iterations > 0 and got.blocks.whole == (case == "dense")
    assert [g.tolist() for g in got.blocks.groups] == [g.tolist() for g in want.blocks.groups]
    assert got.entries.tobytes() == want.entries.tobytes()


@lru_cache(maxsize=None)
def _bound_objective(case: str, seed: int) -> _ProductObjective:
    """The causal objective of a qubit comb pair (one or two uses, or the
    d = 2 counterexample), bound to the invariant partition of the uniform
    start, as a decision binds it."""
    if case == "counterexample":
        inst = build_example(2)
        a, b, uses = inst.c0.choi, inst.c1.choi, 2
    else:
        uses = 1 if case == "one-use" else 2
        rng = np.random.default_rng(seed)
        a, b = (comb_from_isometries(random_isometric_comb((2,) * 2 * uses, (2,) * uses, rng)).choi
                for _ in range(2))
    fixed = [2 * uses - 1]
    obj = _ProductObjective(a, b, fixed)
    xi_set = XiChainSet(a.dims[:-1])
    return obj.on(invariant_blocks(xi_set.uniform(), (obj.reach, xi_set.reach)))


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(["one-use", "two-use", "counterexample"]),
       seed=st.integers(0, 3), data=st.integers(0, 2 ** 32 - 1),
       t=st.floats(-3.0, 3.0))
def test_product_objective_is_a_homogeneous_quadratic(case, seed, data, t):
    # the law the descent's first step relies on: along v the objective is
    # f(x) - t<g, v> + t^2 f(v), and Euler's identity <g, x> = 2 f(x)
    obj = _bound_objective(case, seed)
    rng = np.random.default_rng(data)

    def hermitian():
        m = rng.normal(size=(obj.de, obj.de)) + 1j * rng.normal(size=(obj.de, obj.de))
        return obj.blocks.pack(m + m.conj().T)

    x, v = hermitian(), hermitian()
    fx, g = obj.value_and_grad(x)
    fv = obj.value_and_grad(v)[0]
    gv = np.vdot(g, v).real
    scale = max(1.0, fx, abs(t * gv), t * t * fv)
    assert abs(obj.value_and_grad(x - t * v)[0] - (fx - t * gv + t * t * fv)) <= 1e-12 * scale
    assert abs(np.vdot(g, x).real - 2 * fx) <= 1e-12 * max(1.0, fx)


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


@pytest.mark.parametrize("entry", ["cb_distance", "memory_distance", "causal_discriminable",
                                   "parallel_discriminable"])
def test_solvers_reject_a_negative_iteration_cap(entry):
    mc, inst = comb_from_sequence([identity_channel(2)]), build_example(2)
    solve = {
        "cb_distance": lambda: cb_distance(mc.choi, mc.choi, max_iter=-1),
        "memory_distance": lambda: memory_distance(mc, mc, max_iter=-1),
        "causal_discriminable": lambda: causal_discriminable(inst.c0, inst.c1, restarts=2,
                                                             max_iter=-1),
        "parallel_discriminable": lambda: parallel_discriminable(inst.c0.choi, inst.c1.choi,
                                                                 max_iter=-1),
    }[entry]
    with pytest.raises(ValueError, match="max_iter must be at least 0, got -1"):
        solve()


_SOLVERS = ["cb_distance", "memory_distance", "causal_discriminable", "parallel_discriminable"]


def _spend(entry, **budget):
    """``entry`` on an input where it spends its whole step budget: the fields
    of its result, less its operator, and that operator's matrix."""
    rng = np.random.default_rng(3)
    a, b = (Channel(tuple(random_kraus(2, 2, 2, rng)), 2, 2) for _ in range(2))
    c0, c1 = comb_from_sequence([a, a]), comb_from_sequence([b, b])
    if entry == "cb_distance":  # a qutrit pair near distance 2 that closes slowly
        rng = np.random.default_rng(46)
        c0, c1 = (comb_from_sequence([Channel(tuple(random_kraus(3, 3, 2, rng)), 3, 3)])
                  for _ in "ab")
        result = cb_distance(c0.choi, c1.choi, **budget)
    elif entry == "memory_distance":
        result = memory_distance(c0, c1, **budget)
    elif entry == "causal_discriminable":
        result = causal_discriminable(c0, c1, **budget)
    else:
        result = parallel_discriminable(c0.choi, c1.choi, **budget)
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    operator = fields.pop("achiever" if "achiever" in fields else "witness")
    return fields, operator.matrix


@pytest.mark.parametrize("entry,steps", [("cb_distance", 40), ("memory_distance", 40),
                                         ("causal_discriminable", 10),
                                         ("parallel_discriminable", 10)])
def test_step_budget(entry, steps):
    # a distance's one start runs restarts x max_iter steps, a decision's
    # max_iter alone
    fields, operator = _spend(entry, restarts=4, max_iter=10)
    once, once_operator = _spend(entry, restarts=1, max_iter=steps)
    assert (fields["iterations"], fields["capped"]) == (steps, 1)
    assert fields == once
    assert np.array_equal(operator, once_operator)


@pytest.mark.parametrize("entry", _SOLVERS)
def test_solvers_ignore_their_seed(entry):
    fields, operator = _spend(entry, restarts=2, max_iter=10, seed=0)
    other, other_operator = _spend(entry, restarts=2, max_iter=10, seed=1)
    assert fields == other
    assert np.array_equal(operator, other_operator)


def test_solver_modules_import_no_sampling():
    # every solver runs one deterministic start, so no solver module binds
    # the sampling module, anything defined there, or numpy.random
    from combtester import discrimination, distances, sampling

    def random(value):
        home = getattr(value, "__module__", None) or ""
        return (value is sampling or value is np.random
                or home == sampling.__name__ or home.startswith("numpy.random"))
    assert not [f"{module.__name__}.{name}" for module in (distances, discrimination, optim)
                for name, value in vars(module).items() if random(value)]


def test_cb_distance_rejects_a_nan_tolerance():
    # a NaN stall tolerance would never stop the seesaw
    mc = comb_from_sequence([identity_channel(2)])
    with pytest.raises(ValueError, match="tol must be a number"):
        cb_distance(mc.choi, mc.choi, tol=np.nan)


def _dense_map(h, f):
    w, v = np.linalg.eigh(h)
    return (v * f(w)) @ v.conj().T


def _dense_sandwich(root, m):
    lift = np.kron(root, np.eye(len(m) // len(root)))
    return lift @ m @ lift


def test_causal_decision_and_synthesis_stay_blockwise(monkeypatch):
    # the counterexample's iterates and witness are diagonal and its
    # sandwiched difference has blocks of side d, so no dense eigh runs;
    # synthesis, POVM reduction and reduced state sandwich on the joint
    # partition of their operands and the lifted root, with no product of
    # labeled operators
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
    # synthesis labels nothing: the witness holds the partition it was built
    # on, for its residual and its root, and the sandwiched difference is
    # never a matrix
    labelled = []
    of = matcore.Blocks.of
    monkeypatch.setattr(matcore.Blocks, "of", staticmethod(lambda h: labelled.append(h) or of(h)))
    t = synthesize_tester(inst.c0, inst.c1, rep.witness)
    assert [h.shape[0] for h in labelled] == []
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
    rep, peak = traced_peak(parallel_discriminable, c0, c1, restarts=2, seed=1, max_iter=100)
    assert rep.status != "feasible"
    assert peak < c0.matrix.nbytes, (peak, c0.matrix.nbytes)


def test_product_residual_on_dense_combs_holds_what_dense_numpy_does():
    # dense two-use combs of dims (4, 4, 4, 4) (side 256) and a dense side-64
    # witness: a whole operand makes the joint partition whole, so the combs'
    # entries are read as they stand and the lift is one kron, and the call
    # holds what the plain dense product does (three side-256 matrices, 3 MB);
    # listing and gathering the side² positions of the joint partition held
    # 9.7 MB
    rng = np.random.default_rng(7)
    c0, c1 = (comb_from_isometries(random_isometric_comb((4, 4, 4, 4), (4, 4), rng)).choi
              for _ in range(2))
    x = LabeledOperator(random_psd(64, rng), (0, 1, 2), (4, 4, 4))

    def dense():
        lift = np.kron(x.matrix, np.eye(4))
        return float(np.linalg.norm(c0.matrix @ lift @ c1.matrix) ** 2)

    expected, numpy_peak = traced_peak(dense)
    value, peak = traced_peak(product_residual, c0, c1, [3], x)
    assert c0.blocks.whole and c1.blocks.whole and x.blocks.whole
    assert abs(value - expected) <= 1e-12 * expected
    assert peak <= 1.25 * numpy_peak, (peak, numpy_peak)
