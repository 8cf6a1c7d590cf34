"""Whole and split partitions answer positions as the listed ones do.

A partition of one block (``whole``) answers its positions by row-major
arithmetic, and ``matcore._lifted`` reads a whole operand without sorting or
labelling the union of patterns.  Both must give what listing every packed
position and gathering through it gives.  The references below are those
gather formulas, written out here: per block size, the block's indices at
``place // size`` and ``place % size``; a per-index table of block number,
block start, block size and place in the block; the blocks' entries
gathered and scattered block by block; and, for the lift, the joint
partition labelled from the sorted union of positions, with every operand
and the lift read at that partition's listed positions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from combtester import matcore
from combtester.matcore import Blocks, LabeledOperator, edge_groups, lift_last, regroup_index


def _listed_index(blocks: Blocks):
    rows, cols = [], []
    for g in blocks.groups:
        size = g.shape[1]
        place = np.arange(size * size)
        rows.append(g[:, place // size].ravel())
        cols.append(g[:, place % size].ravel())
    return np.concatenate(rows), np.concatenate(cols)


def _listed_locate(blocks: Blocks, rows, cols):
    block, start, size, place = (np.empty(blocks.side, dtype=np.intp) for _ in range(4))
    first = begin = 0
    for g in blocks.groups:
        count, width = g.shape
        block[g] = first + np.arange(count)[:, None]
        start[g] = begin + width * width * np.arange(count)[:, None]
        size[g] = width
        place[g] = np.arange(width)
        first += count
        begin += count * width * width
    on = block[rows] == block[cols]
    return np.where(on, start[rows] + place[rows] * size[rows] + place[cols], 0), on


def _listed_permuted(blocks: Blocks, index):
    where = np.empty_like(index)
    where[index] = np.arange(index.size)
    groups = []
    for g in blocks.groups:
        rows = np.sort(where[g], axis=1)
        groups.append(rows[np.argsort(rows[:, 0])])
    return groups


def _listed_pack(blocks: Blocks, x):
    return np.concatenate([x[g[:, :, None], g[:, None, :]].ravel() for g in blocks.groups])


def _listed_unpack(blocks: Blocks, v):
    out = np.zeros((blocks.side, blocks.side), dtype=v.dtype)
    out[_listed_index(blocks)] = v
    return out


def _listed_at(op: LabeledOperator, rows, cols):
    where, on = _listed_locate(op.blocks, rows, cols)
    return np.where(on, _listed_pack(op.blocks, op.matrix)[where], 0)


def _listed_lifted(ops, order, roots, free: Blocks):
    """The parent's gathers: the union of the lift's and the regrouped
    operands' listed positions, labelled; then every value gathered at the
    joint partition's listed positions."""
    n, m = ops[0].side, free.side
    k, out = len(roots), n // m
    index = [regroup_index(op.dims, [op.labels.index(l) for l in order]) for op in ops]
    a, b = _listed_index(free)
    flat = [lift_last(a * m + b, m, out)]
    for op, i in zip(ops, index):
        rows, cols = _listed_index(Blocks(_listed_permuted(op.blocks, i), n))
        flat.append(rows * n + cols)
    flat = np.unique(np.concatenate(flat))
    groups = edge_groups(*np.divmod(flat, n), n)
    blocks = Blocks([np.concatenate([g + n * e for e in range(k)]) for g in groups], k * n)
    rows, cols = _listed_index(blocks)
    (e, r), c = np.divmod(rows, n), cols % n
    lift = np.where(r % out == c % out, roots[e, r // out, c // out], 0)
    return blocks, [_listed_at(op, i[r], i[c]) for op, i in zip(ops, index)], lift


def _matrix(side: int, parts: int, density: float, rng) -> np.ndarray:
    """Random complex entries; with ``parts`` 0 every entry is nonzero (one
    block), otherwise each is kept with probability ``density`` where its row
    and column fall in the same of ``parts`` random index groups."""
    m = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    if parts == 0:
        return m
    group = rng.integers(0, parts, side)
    return m * ((group[:, None] == group[None, :]) & (rng.random((side, side)) < density))


cases = dict(
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=4),
    parts=st.integers(0, 5), density=st.sampled_from([0.3, 1.0]),
    seed=st.integers(0, 2 ** 32 - 1),
)


@settings(max_examples=120, deadline=None)
@given(**cases)
def test_partition_answers_as_its_listed_positions(dims, parts, density, seed):
    rng = np.random.default_rng(seed)
    side = int(np.prod(dims))
    h = _matrix(side, parts, density, rng)
    blocks = Blocks.of(h)
    assert blocks.whole == (len(blocks.groups) == 1 and blocks.groups[0].shape[1] == side)
    if parts == 0:
        assert blocks.whole
    rows, cols = _listed_index(blocks)
    assert all(map(np.array_equal, blocks.index, (rows, cols)))
    assert np.array_equal(blocks.flat, rows * side + cols)
    # broadcast positions, on and off the blocks
    r, c = rng.integers(0, side, (5, 1)), rng.integers(0, side, 7)
    for got, listed in zip(blocks.locate(r, c), _listed_locate(blocks, r, c)):
        assert got.shape == listed.shape and np.array_equal(got, listed)
    i = np.arange(side)
    assert np.array_equal(blocks.diagonal, _listed_locate(blocks, i, i)[0])
    packed = blocks.pack(h)
    assert np.array_equal(packed, _listed_pack(blocks, h))
    assert np.array_equal(blocks.unpack(packed), _listed_unpack(blocks, packed))
    assert np.array_equal(blocks.unpack(packed), h)
    # a random factor order, through its index map
    index = regroup_index(dims, rng.permutation(len(dims)))
    permuted = blocks.permuted(index)
    listed = _listed_permuted(blocks, index)
    assert permuted is blocks or not blocks.whole  # a whole partition is its own
    assert len(permuted.groups) == len(listed)
    assert all(map(np.array_equal, permuted.groups, listed))
    regrouped = h[np.ix_(index, index)]
    assert np.array_equal(permuted.pack(regrouped), _listed_pack(permuted, regrouped))


@settings(max_examples=120, deadline=None)
@given(**cases, fixed=st.integers(1, 3), entry_built=st.booleans(), other=st.integers(0, 5))
def test_lifted_reads_as_its_listed_positions(dims, parts, density, seed, fixed, entry_built,
                                              other):
    # two operators on the free spaces (dims) and one fixed space, in shuffled
    # factor orders, one of them dense (parts 0) or split, the other split or
    # dense (other 0), optionally entry-built; a root packed on its own
    # partition, then a stack of two roots
    rng = np.random.default_rng(seed)
    labels = tuple(range(len(dims) + 1))
    space = dict(zip(labels, list(dims) + [fixed]))
    side, m = int(np.prod(list(space.values()))), int(np.prod(dims))
    ops = []
    for p, built in ((parts, False), (other, entry_built)):
        order = tuple(rng.permutation(labels))
        h = _matrix(side, p, density, rng)
        op = LabeledOperator(h, order, [space[l] for l in order])
        if built:
            op = LabeledOperator._nonzeros(*np.nonzero(h), h[np.nonzero(h)], order, op.dims)
        ops.append(op)
    roots = np.stack([_matrix(m, int(rng.integers(0, 4)), density, rng) for _ in range(2)])
    free = Blocks.of(roots[0] + roots[1])
    for stack in (roots[:1], roots):
        got = matcore._lifted(ops, labels, [free.pack(r) for r in stack], free)
        listed = _listed_lifted(ops, labels, stack, free)
        assert got[0].side == listed[0].side and len(got[0].groups) == len(listed[0].groups)
        assert all(map(np.array_equal, got[0].groups, listed[0].groups))
        assert all(map(np.array_equal, got[1], listed[1]))
        assert np.array_equal(got[2], listed[2])
        if any(op.blocks.whole for op in ops):
            assert got[0].groups[0].shape == (len(stack), side)
