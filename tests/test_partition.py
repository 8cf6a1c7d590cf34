"""The invariant block partition of a decision and its packed kernels.

``invariant_blocks`` must return a partition that every map of the solve
keeps exactly: the gradient map, the affine step and the PSD and density
steps leave exact zeros off it.  The packed kernels must then agree with the
dense ones, and the packed decision with the one-block decision.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combtester import discrimination
from combtester.channels import Channel, comb_from_sequence
from combtester.discrimination import _ProductObjective, causal_discriminable
from combtester.matcore import Blocks
from combtester.optim import XiChainSet, invariant_blocks, project_psd, project_to_density
from combtester.sampling import random_kraus
from combtester.separation import build_example


def _channel(d_in: int, d_out: int, dense: bool, rng) -> Channel:
    """A random channel.  A sparse one has Kraus operators with at most one
    nonzero entry per column, in distinct rows, on a few columns each, so its
    Choi operator is sparse and its normalization is diagonal."""
    if dense:
        return Channel(tuple(random_kraus(d_in, d_out, d_in, rng)), d_in, d_out)
    kraus = []
    for _ in range(int(rng.integers(1, 3))):
        # each Kraus operator acts on a chunk of at most `width` inputs
        width = int(rng.integers(1, d_out + 1))
        columns = rng.permutation(d_in)
        for chunk in np.split(columns, range(width, d_in, width)):
            k = np.zeros((d_out, d_in), dtype=complex)
            k[rng.permutation(d_out)[:chunk.size], chunk] = (
                rng.normal(size=chunk.size) + 1j * rng.normal(size=chunk.size))
            kraus.append(k)
    scale = np.sqrt(sum(np.abs(k) ** 2 for k in kraus).sum(axis=0))
    return Channel(tuple(k / scale for k in kraus), d_in, d_out)


def _start(side: int, kind: str, rng) -> np.ndarray:
    """A Hermitian start: the diagonal and a few entries off it, or random
    blocks of side at most 2 under a random permutation of the indices."""
    g = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    if kind == "sparse":
        keep = np.eye(side, dtype=bool)
        keep[rng.integers(side, size=2), rng.integers(side, size=2)] = True
    else:
        label = rng.permutation(side) // 2
        keep = label[:, None] == label[None, :]
    g = g * keep
    return g + g.conj().T


@st.composite
def _cases(draw, max_uses=3):
    uses = draw(st.integers(1, max_uses))
    dims = draw(st.lists(st.integers(1, 3), min_size=2 * uses, max_size=2 * uses))
    dense = draw(st.lists(st.sampled_from([False] * 4 + [True]),
                          min_size=2 * uses, max_size=2 * uses))
    kind = draw(st.sampled_from(["sparse", "blocks"]))
    return dims, dense, kind, draw(st.integers(0, 2 ** 32 - 1))


def _random_on(blocks: Blocks, rng) -> np.ndarray:
    v = rng.normal(size=blocks.size) + 1j * rng.normal(size=blocks.size)
    y = blocks.unpack(v)
    return (y + y.conj().T) / 2


def _decision(case):
    """The objective and chain set of a random decision, a random start, its
    invariant partition, and the random generator that drew them."""
    dims, dense, kind, seed = case
    rng = np.random.default_rng(seed)
    uses = len(dims) // 2
    combs = [comb_from_sequence([_channel(dims[2 * j], dims[2 * j + 1], dense[2 * j + i], rng)
                                 for j in range(uses)]) for i in range(2)]
    obj = _ProductObjective(combs[0].choi, combs[1].choi, [2 * uses - 1])
    xi_set = XiChainSet(dims[:-1])
    x0 = _start(xi_set.side, kind, rng)
    return obj, xi_set, x0, invariant_blocks(x0, (obj.reach, xi_set.reach)), rng


@settings(max_examples=60, deadline=None)
@given(case=_cases())
def test_partition_is_kept_by_every_step(case):
    obj, xi_set, x0, blocks, rng = _decision(case)
    pattern = blocks.pattern()
    assert pattern[x0 != 0].all() and pattern.diagonal().all()

    y = _random_on(blocks, rng)
    packed = blocks.pack(y)
    assert np.array_equal(blocks.unpack(packed), y)
    assert np.array_equal(blocks.pack(blocks.unpack(packed)), packed)

    f, grad = obj.value_and_grad(y)
    f_packed, grad_packed = obj.on(blocks).value_and_grad(packed)
    assert abs(f_packed - f) <= 1e-12 * max(1.0, abs(f))
    steps = [
        (grad, grad_packed),
        (xi_set.project_affine(y), xi_set.on(blocks).project_affine(packed)),
        (project_psd(y), project_psd(packed, blocks)),
        (project_to_density(y), project_to_density(packed, 1.0, blocks)),
    ]
    for dense_out, packed_out in steps:
        # the dense maps leave exact zeros off the partition ...
        assert np.all(dense_out[~pattern] == 0)
        # ... and the packed ones compute the same block entries
        scale = max(1.0, np.linalg.norm(dense_out))
        assert packed_out.shape == (blocks.size,)
        assert np.abs(blocks.unpack(packed_out) - dense_out).max() <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(case=_cases(max_uses=2))
def test_bound_projection_matches_the_matrix_projection(case):
    # near-feasible points only: Dykstra from a far-off point, or on three
    # uses, can take thousands of inner iterations
    _, xi_set, _, blocks, rng = _decision(case)
    y = xi_set.uniform() + 0.05 * _random_on(blocks, rng)
    dense_out = xi_set.project(y)
    packed_out = xi_set.on(blocks).project(blocks.pack(y))
    assert packed_out.shape == (blocks.size,)
    scale = max(1.0, np.linalg.norm(dense_out))
    assert np.abs(blocks.unpack(packed_out) - dense_out).max() <= 1e-12 * scale


@pytest.mark.parametrize("d", [2, 3])
def test_packed_decision_matches_one_block_decision(d, monkeypatch):
    inst = build_example(d)
    packed = causal_discriminable(inst.c0, inst.c1, restarts=4, seed=1)
    monkeypatch.setattr(discrimination, "invariant_blocks",
                        lambda x0, reaches: Blocks.one(len(x0)))
    dense = causal_discriminable(inst.c0, inst.c1, restarts=4, seed=1)
    assert packed.status == dense.status == "feasible"
    assert packed.iterations == dense.iterations
    assert np.abs(packed.witness.matrix - dense.witness.matrix).max() <= 1e-12
