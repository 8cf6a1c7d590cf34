"""Laws of the normalization-chain walk, seen through its callers.

A comb on spaces ``D`` is a normalization chain on ``(1,) + D`` and a tester
element sum is one on ``D + (1,)``.  ``validate_comb``, ``validate_tester``
and ``XiChainSet.chain_residuals`` all run on ``matcore.chain_levels``; here
each is checked against a textbook peel written with ``partial_trace`` and
``tensor`` on random isometric combs and tester circuits with unequal
per-space dimensions.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from combtester.channels import MemoryChannel, comb_from_isometries, validate_comb
from combtester.matcore import (
    LabeledOperator,
    hermitian_part,
    identity,
    partial_trace,
    tensor,
    tensor_many,
)
from combtester.optim import XiChainSet
from combtester.sampling import rng_from
from combtester import testers
from combtester.testers import Tester, validate_tester
from util import random_isometric_comb, random_tester_circuit

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
