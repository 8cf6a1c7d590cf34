"""Laws of the normalization-chain walk, seen through its callers.

A comb on spaces ``D`` is a normalization chain on ``(1,) + D`` and a tester
element sum is one on ``D + (1,)``.  ``validate_comb``, ``validate_tester``
and ``XiChainSet.chain_residuals`` all run on ``matcore.chain_levels``; here
each is checked against a textbook peel written with ``partial_trace`` and
``tensor`` on random isometric combs and tester circuits with unequal
per-space dimensions.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from combtester.channels import MemoryChannel, comb_from_isometries, validate_comb
from combtester.matcore import (
    Entries,
    LabeledOperator,
    chain_levels,
    hermitian_part,
    identity,
    partial_trace,
    tensor,
    tensor_many,
)
from combtester.optim import XiChainSet
from combtester.sampling import rng_from
from combtester import testers
from combtester.testers import Tester, TesterCircuit, validate_tester
from test_separation import assert_same_bits, unrestricted_elements
from util import matrix_built, random_isometric_comb, random_tester_circuit

TOL = 1e-12
EPS = 1e-3


def peel(x, steps, lowers=None):
    """Textbook chain peel.

    For each ``(tops, nxt)`` step: trace the labels ``tops``, take the
    normalized trace over ``nxt`` (or the supplied lower) as the lower level,
    and record ``(lower, Tr_tops X - lower ⊗ I_nxt)``.
    """
    out = []
    for j, (tops, nxt) in enumerate(steps):
        traced = partial_trace(x, tops)
        d = traced.dim_of(nxt)
        if lowers is None:
            lower = partial_trace(traced, [nxt]) * (1.0 / d)
        else:
            lower = lowers[j]
        out.append((lower, (traced - tensor(lower, identity([nxt], [d]))).matrix))
        x = lower
    return out


def _random_hermitian(labels, dims, rng):
    side = int(np.prod(dims)) if dims else 1
    h = hermitian_part(rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
    return LabeledOperator(h / np.linalg.norm(h), labels, dims)


def _traceless(label, d, rng):
    b = _random_hermitian((label,), (d,), rng)
    b = b - identity([label], [d]) * (b.trace().real / d)
    return b * (1.0 / np.linalg.norm(b.matrix))


def _ancillas(ins, outs, first):
    """Smallest ancilla chain that makes every block an isometry."""
    anc, out = first, []
    for d_in, d_out in zip(ins, outs):
        anc = -(-d_in * anc // d_out)
        out.append(anc)
    return tuple(out)


system_dims = st.integers(1, 3).flatmap(
    lambda uses: st.lists(st.integers(1, 3), min_size=2 * uses, max_size=2 * uses))


def _check_comb(mc):
    c, n_uses = mc.choi, mc.uses
    steps = [([2 * n - 1], 2 * n - 2) for n in range(n_uses, 0, -1)]
    expected = peel(c, steps)
    v = validate_comb(mc)
    current = c
    for n, (lower, residual) in zip(range(n_uses, 0, -1), expected):
        trace_res = abs(current.trace() - np.prod(current.dims[0::2]))
        assert abs(v.level_residuals[n] - max(np.linalg.norm(residual), trace_res)) <= TOL
        current = lower
    assert abs(v.level_residuals[0] - abs(current.matrix[0, 0] - 1.0)) <= TOL
    got = XiChainSet((1,) + c.dims).chain_residuals(c.matrix)
    assert len(got) == len(expected)
    for r, (_, residual) in zip(got, expected):
        assert np.abs(r - residual).max() <= TOL
    return v


def _check_tester(t):
    n_uses = t.uses
    total = sum(t.elements[1:], t.elements[0])
    steps = [([], 2 * n_uses - 1)] + [([2 * n - 2], 2 * n - 3) for n in range(n_uses, 1, -1)]
    expected = peel(total, steps, lowers=t.chain[::-1])
    v = validate_tester(t)
    assert abs(v.normalization_residual - np.linalg.norm(expected[0][1])) <= TOL
    for n, (_, residual) in zip(range(n_uses, 1, -1), expected[1:]):
        assert abs(v.chain_residuals[n] - np.linalg.norm(residual)) <= TOL
    assert abs(v.chain_residuals[1] - abs(t.chain[0].trace() - 1.0)) <= TOL
    # the derived chain of the same sum, as XiChainSet sees it
    got = XiChainSet(total.dims + (1,)).chain_residuals(total.matrix)
    derived = peel(total, steps)
    assert len(got) == len(derived)
    for r, (_, residual) in zip(got, derived):
        assert np.abs(r - residual).max() <= TOL
    return v


@settings(max_examples=100, deadline=None)
@given(sd=system_dims, extra=st.integers(0, 1), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_comb_walk_matches_peel(sd, extra, seed, data):
    assume(np.prod(sd) <= 72)
    rng = rng_from(seed)
    n_uses = len(sd) // 2
    ad = list(_ancillas(sd[0::2], sd[1::2], 1))
    ad[-1] += extra
    assume(max(ad) <= 6)
    mc = comb_from_isometries(random_isometric_comb(sd, ad, rng))
    v = _check_comb(mc)
    assert v.valid, v.max_residual
    assert XiChainSet((1,) + mc.dims).membership_residual(mc.choi.matrix) <= TOL
    # a rescaled comb fails its trace checks down to the scalar at level 0
    v = _check_comb(MemoryChannel(mc.choi * (1 + EPS), n_uses))
    assert abs(v.level_residuals[0] - EPS) <= TOL

    # A ⊗ B ⊗ I with B traceless on input 2k-2 breaks level k alone
    breakable = [k for k in range(1, n_uses + 1) if sd[2 * k - 2] > 1]
    if not breakable:
        return
    k = data.draw(st.sampled_from(breakable))
    parts = [_traceless(2 * k - 2, sd[2 * k - 2], rng),
             identity(range(2 * k - 1, 2 * n_uses), sd[2 * k - 1:])]
    if k > 1:
        parts.insert(0, _random_hermitian(tuple(range(2 * k - 2)), tuple(sd[:2 * k - 2]), rng))
    bad = MemoryChannel(mc.choi + tensor_many(parts) * EPS, n_uses)
    v = _check_comb(bad)
    assert not v.valid
    assert v.level_residuals[k] > EPS / 100
    assert all(r <= TOL for n, r in v.level_residuals.items() if n != k)


@settings(max_examples=100, deadline=None)
@given(sd=system_dims, first=st.integers(1, 2), outcomes=st.integers(2, 3),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_tester_walk_matches_peel(sd, first, outcomes, seed, data):
    assume(np.prod(sd) <= 72)
    rng = rng_from(seed)
    n_uses = len(sd) // 2
    ad = (first,) + _ancillas(sd[1:-1:2], sd[2::2], first)
    assume(max(ad) <= 6)
    t = testers.tester_from_circuit(random_tester_circuit(sd, ad, outcomes, rng))
    v = _check_tester(t)
    assert v.valid, v.max_residual
    assert XiChainSet(tuple(sd) + (1,)).membership_residual(
        sum(e.matrix for e in t.elements)) <= TOL

    # level 1 alone: rescale elements and chain together; level k >= 2
    # (k = N+1 is the element-sum normalization) alone: add a B traceless on
    # the top space of the stored level k-1, which is level k's lower
    breakable = [1] + [k for k in range(2, n_uses + 2) if sd[2 * k - 4] > 1]
    k = data.draw(st.sampled_from(breakable))
    if k == 1:
        bad = Tester(tuple(e * (1 + EPS) for e in t.elements),
                     tuple(x * (1 + EPS) for x in t.chain), n_uses)
    else:
        top = 2 * k - 4
        delta = _traceless(top, sd[top], rng)
        if top > 0:
            delta = tensor(_random_hermitian(tuple(range(top)), tuple(sd[:top]), rng), delta)
        chain = list(t.chain)
        chain[k - 2] = chain[k - 2] + delta * EPS
        bad = Tester(t.elements, tuple(chain), n_uses)
    v = _check_tester(bad)
    assert not v.valid
    reported = dict(v.chain_residuals)
    reported[n_uses + 1] = v.normalization_residual
    assert reported[k] > EPS / 100
    assert all(r <= TOL for n, r in reported.items() if n != k)


def _dense_reference(t):
    """Chain and check fields of ``t`` from its dense element sum: the
    normalized chain of the sum, ``||sum - Xi ⊗ I||``, the level residuals
    against the stored chain, and the sum's norm."""
    n_uses, dims = t.uses, t.elements[0].dims
    total = sum(t.elements[1:], t.elements[0])
    x = partial_trace(total, [2 * n_uses - 1]) * (1.0 / dims[-1])
    chain = [x]
    for n in range(n_uses, 1, -1):
        x = partial_trace(x, [2 * n - 2, 2 * n - 3]) * (1.0 / dims[2 * n - 3])
        chain.insert(0, x)
    last = identity([2 * n_uses - 1], [dims[-1]])
    fields = {n_uses + 1: np.linalg.norm((total - tensor(t.chain[-1], last)).matrix)}
    for n in range(n_uses, 1, -1):
        odd = identity([2 * n - 3], [dims[2 * n - 3]])
        residual = partial_trace(t.chain[n - 1], [2 * n - 2]) - tensor(t.chain[n - 2], odd)
        fields[n] = np.linalg.norm(residual.matrix)
    fields[1] = abs(t.chain[0].trace() - 1.0)
    return chain, fields, np.linalg.norm(total.matrix)


def _check_streamed(t):
    chain, fields, norm = _dense_reference(t)
    v = validate_tester(t)
    reported = dict(v.chain_residuals)
    reported[t.uses + 1] = v.normalization_residual
    assert reported.keys() == fields.keys()
    for n, r in fields.items():
        assert abs(reported[n] - r) <= TOL * max(1.0, norm), (n, reported[n], r)
    return chain, v


@settings(max_examples=100, deadline=None)
@given(sd=st.integers(1, 2).flatmap(
           lambda uses: st.lists(st.integers(1, 4), min_size=2 * uses, max_size=2 * uses)),
       first=st.integers(1, 2), outcomes=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_streamed_tester_sum_matches_dense_reference(sd, first, outcomes, seed, data):
    assume(np.prod(sd) <= 96)
    rng = rng_from(seed)
    n_uses = len(sd) // 2
    ad = (first,) + _ancillas(sd[1:-1:2], sd[2::2], first)
    assume(max(ad) <= 6)
    t = testers.tester_from_circuit(random_tester_circuit(sd, ad, outcomes, rng))
    # elements handed over in shuffled factor orders give the same tester
    orders = [data.draw(st.permutations(range(2 * n_uses))) for _ in t.elements]
    shuffled = testers.tester_from_elements(
        [e.permuted(order) for e, order in zip(t.elements, orders)], n_uses)
    chain, v = _check_streamed(shuffled)
    assert v.valid, v.max_residual
    for got, want in zip(shuffled.chain, chain):
        scale = max(1.0, np.abs(want.matrix).max())
        assert np.abs(got.matrix - want.matrix).max() <= TOL * scale

    # the same elements entry-built, wrapped as matrices or mixed: every
    # reader takes both kinds one way, so chain, check and Born table agree
    # bit for bit, and no read forms an entry-built element's matrix
    side = t.elements[0].side
    rows, cols = np.divmod(np.arange(side * side), side)
    built = [LabeledOperator._nonzeros(rows, cols, e.matrix.reshape(-1), e.labels, e.dims)
             for e in t.elements]
    wrapped = [matrix_built(e) for e in t.elements]
    mixed = [pair[data.draw(st.booleans())] for pair in zip(built, wrapped)]
    mc = comb_from_isometries(random_isometric_comb(sd, _ancillas(sd[::2], sd[1::2], 1), rng))
    reads = []
    for elements in (built, wrapped, mixed):
        form = testers.tester_from_elements(elements, n_uses)
        reads.append(([x.matrix for x in form.chain], validate_tester(form),
                      testers.born_probabilities(form, mc)))
    for chain, report, table in reads[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(chain, reads[0][0]))
        assert report == reads[0][1] and np.array_equal(table, reads[0][2])
    assert not any("matrix" in vars(e) for e in built)

    # invalid testers: rescaled elements, and one entry moved off the tail
    # diagonal, which leaves the traced sum as it was
    rescaled = Tester(tuple(e * (1 + EPS) for e in t.elements), t.chain, n_uses)
    _, v = _check_streamed(rescaled)
    assert not v.valid
    tail = sd[-1]
    i = data.draw(st.integers(0, side - 1))
    j = data.draw(st.integers(0, side - 1).filter(lambda j: tail == 1 or j % tail != i % tail))
    kick = np.zeros((side, side), dtype=complex)
    kick[i, j] += EPS
    kick[j, i] += EPS
    kicked = t.elements[0] + LabeledOperator(kick, t.elements[0].labels, t.elements[0].dims)
    _, v = _check_streamed(Tester((kicked,) + t.elements[1:], t.chain, n_uses))
    assert v.normalization_residual > EPS / 2


# -- the entry walk against dense reshapes, to 1e-14 --------------------------


def _traced(x, tail):
    """``Tr_last x`` over a last factor of dimension ``tail``, by a reshape."""
    s = x.shape[0] // tail
    return np.einsum("aibi->ab", x.reshape(s, tail, s, tail))


def _dense_levels(x, dims, lowers=None):
    """``(X_{n-1}, Tr_{2n-2} X_n - X_{n-1} ⊗ I)`` of each level of the chain
    of the matrix ``x`` on ``dims``, by dense reshapes."""
    out = []
    for n in range((len(dims) + 1) // 2, 1, -1):
        top, odd = dims[2 * n - 2], dims[2 * n - 3]
        traced = _traced(x, top)
        lower = _traced(traced, odd) / odd if lowers is None else lowers[n - 2]
        out.append((lower, traced - np.kron(lower, np.eye(odd))))
        x = lower
    return out


def _close(got, want, scale):
    assert np.abs(got - want).max() <= 1e-14 * scale, np.abs(got - want).max() / scale


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 1, 2), (2, 3, 1, 2, 3), (3, 2, 2, 1, 2)])
def test_entry_walk_matches_dense_levels(dims):
    # a sparse operator handed over as two summands on the same positions,
    # so every level adds up repeated entries
    rng = rng_from(int("".join(map(str, dims))))
    side = int(np.prod(dims))
    x = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    x[rng.random((side, side)) < 0.6] = 0
    flat = np.flatnonzero(x)
    part = x.reshape(-1)[flat] * rng.random(flat.size)
    summands = Entries(np.concatenate([flat, flat]),
                       np.concatenate([part, x.reshape(-1)[flat] - part]), side)
    walked = list(chain_levels(summands, dims))
    dense = _dense_levels(x, dims)
    assert len(walked) == len(dense) == len(dims) // 2
    scale = np.linalg.norm(x)
    for (lower, residual), (want_lower, want_residual) in zip(walked, dense):
        _close(lower.matrix(), want_lower, scale)
        level = residual()
        assert (np.diff(level.flat) > 0).all()
        _close(level.matrix(), want_residual, scale)
    # the same walk through XiChainSet, on the dense matrix
    for got, (_, want) in zip(XiChainSet(dims).chain_residuals(x), dense):
        _close(got, want, scale)


@pytest.mark.parametrize("sd", [(2, 3, 3, 2), (3, 2, 1, 2, 2, 3)])
def test_comb_check_matches_dense_levels(sd):
    # a random comb, and the same comb off its chain by 1e-3 at every level
    rng = rng_from(int("".join(map(str, sd))))
    n_uses, side = len(sd) // 2, int(np.prod(sd))
    mc = comb_from_isometries(
        random_isometric_comb(sd, _ancillas(sd[0::2], sd[1::2], 1), rng))
    kick = _random_hermitian(tuple(range(len(sd))), sd, rng) * EPS
    for comb in (mc, MemoryChannel(mc.choi + kick, n_uses)):
        c = comb.choi.matrix
        v = validate_comb(comb)
        trace, scale = np.trace(c), max(1.0, np.linalg.norm(c))
        dense = _dense_levels(c, (1,) + sd)
        for n, (lower, residual) in zip(range(n_uses, 0, -1), dense):
            want = max(np.linalg.norm(residual), abs(trace - np.prod(sd[0:2 * n:2])))
            assert abs(v.level_residuals[n] - want) <= 1e-14 * scale
            trace = np.trace(lower)
        assert abs(v.level_residuals[0] - abs(trace - 1.0)) <= 1e-14 * scale
    assert np.linalg.matrix_rank(mc.choi.matrix) < side


def _tester_cases(rng):
    """Random tester circuits on unequal dims for N = 2 and N = 3, and one
    whose chain is rank-deficient: a basis input state on space 0."""
    cases = []
    for sd, first in (((2, 3, 2, 3), 2), ((3, 2, 1, 2, 2, 2), 1), ((3, 2, 2, 3), 1)):
        ad = (first,) + _ancillas(sd[1:-1:2], sd[2::2], first)
        cases.append(random_tester_circuit(sd, ad, 2, rng))
    tc = cases[-1]
    state = np.zeros_like(tc.input_state)
    state[0, 0] = 1.0
    cases[-1] = TesterCircuit(state, tc.blocks, tc.povm, tc.system_dims, tc.ancilla_dims)
    return [testers.tester_from_circuit(tc) for tc in cases]


def test_tester_chain_and_check_match_dense_levels():
    # the chain the walk builds and the residuals of the check, for valid
    # testers and for the same testers with their top level scaled off
    for t in _tester_cases(rng_from(11)):
        total = sum(e.matrix for e in t.elements)
        dims, scale = t.elements[0].dims, max(1.0, np.linalg.norm(total))
        want = [x for x, _ in _dense_levels(total, dims + (1,))][::-1]
        for got, x in zip(t.chain, want):
            assert "matrix" not in vars(got)
            _close(got.matrix, x, scale)
        off = Tester(t.elements, t.chain[:-1] + (t.chain[-1] * (1 + EPS),), t.uses)
        for tester in (t, off):
            v = validate_tester(tester)
            chain = [x.matrix for x in tester.chain]
            dense = _dense_levels(total, dims + (1,), lowers=chain)
            reported = [v.normalization_residual] + [v.chain_residuals[n]
                                                     for n in range(t.uses, 1, -1)]
            for got, (_, residual) in zip(reported, dense):
                assert abs(got - np.linalg.norm(residual)) <= 1e-14 * scale
            assert abs(v.chain_residuals[1] - abs(np.trace(chain[0]) - 1.0)) <= 1e-14
    assert np.linalg.matrix_rank(t.chain[0].matrix) == 1 < t.chain[0].side


def test_circuit_elements_are_the_unrestricted_contraction_bit_for_bit():
    # mixed input states on unequal dims and dense POVMs reach every block
    # and pair, a basis input state one block: contracting only what is
    # reached sums the same products in the same order
    rng = rng_from(12)
    for sd, first in (((2, 3), 2), ((2, 3, 2, 3), 2), ((3, 2, 1, 2, 2, 2), 1),
                      ((3, 2, 2, 3), 2)):
        ad = (first,) + _ancillas(sd[1:-1:2], sd[2::2], first)
        for outcomes in (2, 3):
            tc = random_tester_circuit(sd, ad, outcomes, rng)
            basis = np.zeros_like(tc.input_state)
            basis[-1, -1] = 1.0
            for state in (tc.input_state, basis):
                circuit = TesterCircuit(state, tc.blocks, tc.povm, sd, ad)
                for e, ref in zip(testers.tester_from_circuit(circuit).elements,
                                  unrestricted_elements(circuit)):
                    assert_same_bits(e, ref)
