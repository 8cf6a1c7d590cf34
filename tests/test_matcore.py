import operator
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combtester.channels import MemoryChannel
from combtester import matcore, separation
from combtester.matcore import (
    Blocks,
    Entries,
    LabeledOperator,
    TailTrace,
    allclose,
    double_ket,
    edge_groups,
    eigh,
    eigvalsh,
    identity,
    link,
    partial_trace,
    psd_inv_sqrt,
    psd_sqrt,
    regroup_index,
    spectral_map,
    tensor,
    trace_last,
    trace_norm,
    undouble_ket,
)
from combtester.optim import project_simplex
from combtester.sampling import haar_unitary, random_psd
from util import traced_peak

Z = np.array([[0, 1], [1, 0]], dtype=complex)


def rand_op(rng, dims, labels):
    side = int(np.prod(dims))
    m = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    return LabeledOperator(m, labels, dims)


def test_tensor_identity_case():
    a = identity([0], [2])
    b = identity([1], [2])
    t = tensor(a, b)
    assert t.labels == (0, 1)
    assert np.allclose(t.matrix, np.eye(4))


def test_tensor_basis_projectors():
    p0 = LabeledOperator(np.diag([1.0, 0.0]), (0,), (2,))
    p1 = LabeledOperator(np.diag([0.0, 1.0]), (1,), (2,))
    t = tensor(p0, p1)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.allclose(t.matrix, expected)


def test_tensor_matches_index_loop_oracle():
    rng = np.random.default_rng(0)
    u = haar_unitary(2, rng)
    a = LabeledOperator(Z, (0,), (2,))
    b = LabeledOperator(u, (1,), (2,))
    t = tensor(a, b)
    brute = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    brute[i * 2 + k, j * 2 + l] = Z[i, j] * u[k, l]
    assert np.abs(t.matrix - brute).max() < 1e-14


def test_tensor_rejects_overlapping_labels():
    a = identity([0], [2])
    with pytest.raises(ValueError):
        tensor(a, a)


def test_partial_trace_identity():
    op = identity([0, 1], [2, 2])
    red = partial_trace(op, [1])
    assert red.labels == (0,)
    assert np.allclose(red.matrix, 2 * np.eye(2))


def test_partial_trace_maximally_entangled():
    v = double_ket(np.eye(2)) / np.sqrt(2)
    bell = LabeledOperator(np.outer(v, v.conj()), (0, 1), (2, 2))
    red = partial_trace(bell, [1])
    assert np.abs(red.matrix - np.eye(2) / 2).max() < 1e-14


def test_partial_trace_middle_label_oracle():
    rng = np.random.default_rng(1)
    dims = (2, 3, 2)
    op = rand_op(rng, dims, (0, 1, 2))
    red = partial_trace(op, [1])
    t = op.matrix.reshape(dims + dims)
    brute = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for c in range(2):
            for a2 in range(2):
                for c2 in range(2):
                    s = sum(t[a, b, c, a2, b, c2] for b in range(3))
                    brute[a * 2 + c, a2 * 2 + c2] = s
    assert np.abs(red.matrix - brute).max() < 1e-13


def test_partial_trace_unknown_label():
    with pytest.raises(ValueError):
        partial_trace(identity([0], [2]), [5])


def test_partial_trace_rejects_repeated_labels():
    with pytest.raises(ValueError, match="must be distinct"):
        partial_trace(identity([0, 1], [2, 2]), [0, 0])


def test_allclose_is_false_on_other_spaces():
    # the same labels with other dimensions, at the same side and at another;
    # the same spaces in another factor order are compared aligned
    a = identity((0, 1), (2, 3))
    assert not allclose(a, identity((0, 1), (3, 2)))
    assert not allclose(a, identity((0, 1), (2, 2)))
    assert not allclose(a, identity((0, 2), (2, 3)))
    assert allclose(a, identity((1, 0), (3, 2)))


def test_every_operator_is_built_through_its_one_constructor(monkeypatch):
    package = Path(matcore.__file__).parent
    assert not [f.name for f in package.glob("*.py") if "object.__new__" in f.read_text("utf-8")]
    built = []
    init = LabeledOperator.__init__
    monkeypatch.setattr(LabeledOperator, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))

    def constructions(f, *args) -> int:
        built.clear()
        f(*args)
        return len(built)

    # both factors need reordering before they are contracted
    a, b = identity([1, 0], [3, 2]), identity([2, 1], [2, 3])
    assert constructions(link, a, b) == 3
    builders = [
        (identity, [0], [2]), (tensor, a, identity([5], [2])), (partial_trace, a, [0]),
        (a.permuted, (0, 1)), (operator.add, a, a), (operator.mul, a, 2.0),
        (LabeledOperator._nonzeros, np.array([0]), np.array([1]), np.array([1.0]), [0], [2]),
        (separation.build_example, 2),
    ]
    for f, *args in builders:
        assert constructions(f, *args) >= 1, f


def test_partial_trace_composes():
    rng = np.random.default_rng(2)
    op = rand_op(rng, (2, 2, 3), (4, 7, 9))
    two_step = partial_trace(partial_trace(op, [4]), [9])
    one_step = partial_trace(op, [4, 9])
    assert np.abs(two_step.matrix - one_step.matrix).max() < 1e-12


def test_trace_of_tensor_factorizes():
    rng = np.random.default_rng(3)
    a = rand_op(rng, (3,), (0,))
    b = rand_op(rng, (2,), (1,))
    lhs = tensor(a, b).trace()
    assert abs(lhs - a.trace() * b.trace()) < 1e-12


def test_eigh_diagonal():
    w, v = eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(w, [1.0, 2.0, 3.0])
    assert np.allclose(v @ v.conj().T, np.eye(3))


def test_eigh_exchange_matrix():
    w, _ = eigh(Z)
    assert np.allclose(w, [-1.0, 1.0])


def test_eigh_reconstruction():
    rng = np.random.default_rng(4)
    h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = h + h.conj().T
    w, v = eigh(h)
    assert np.linalg.norm((v * w) @ v.conj().T - h) <= 1e-9 * np.linalg.norm(h)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigvalsh_shares_eigh_check_and_values():
    for bad in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones((2, 3))):
        with pytest.raises(ValueError) as from_eigh:
            eigh(bad)
        with pytest.raises(ValueError) as from_eigvalsh:
            eigvalsh(bad)
        assert str(from_eigvalsh.value) == str(from_eigh.value)
    rng = np.random.default_rng(5)
    h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = h + h.conj().T
    assert np.abs(eigvalsh(h) - eigh(h)[0]).max() <= 1e-12 * np.linalg.norm(h)


def _block_diagonal_with_one_sided_entry():
    h = np.zeros((6, 6), dtype=complex)
    h[:3, :3] = np.diag([1.0, 2.0, 3.0])
    h[3:, 3:] = np.diag([4.0, 5.0, 6.0])
    h[0, 1] = 1.0  # h[1, 0] stays 0: not Hermitian
    return h


def test_eigvalsh_error_paths_match_eigh_on_block_diagonal_input():
    one_sided = _block_diagonal_with_one_sided_entry()
    with_nan = np.diag([1.0, np.nan, 2.0, 3.0]).astype(complex)
    for bad in (one_sided, with_nan):
        with pytest.raises(ValueError) as from_eigh:
            eigh(bad)
        with pytest.raises(ValueError) as from_eigvalsh:
            eigvalsh(bad)
        assert str(from_eigvalsh.value) == str(from_eigh.value)
    # the one-sided entry joins its indices, so the check sees it
    assert [g.tolist() for g in Blocks.of(one_sided).groups] == [[[2], [3], [4], [5]], [[0, 1]]]


def _bfs_components(h: np.ndarray) -> list[list[int]]:
    joined = (h != 0) | (h.T != 0)
    seen, components = set(), []
    for start in range(h.shape[0]):
        if start in seen:
            continue
        seen.add(start)
        queue, component = [start], []
        while queue:
            i = queue.pop()
            component.append(i)
            for j in range(h.shape[0]):
                if joined[i, j] and j not in seen:
                    seen.add(j)
                    queue.append(j)
        components.append(sorted(component))
    return sorted(components)


def _reference_groups(h: np.ndarray) -> list[list[list[int]]]:
    """:func:`edge_groups`' output from a plain breadth-first search: per
    block size, ascending, the components of that size by first index."""
    components = _bfs_components(h)
    sizes = sorted({len(c) for c in components})
    return [sorted(c for c in components if len(c) == size) for size in sizes]


@st.composite
def _patterns(draw):
    """A random nonzero pattern, with random complex entries on it: a
    permuted block diagonal, paths visiting their indices in random order
    (one-sided entries), a random sparse pattern, a dense matrix with a zero
    in row 0, or an empty or 1x1 matrix."""
    kind = draw(st.sampled_from(["blocks", "paths", "random", "dense", "empty", "one"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = {"empty": 0, "one": 1}.get(kind, draw(st.integers(2, 40)))
    keep = np.zeros((n, n), dtype=bool)
    if kind == "blocks":
        group = rng.integers(0, draw(st.integers(1, 8)), n)
        keep = (group[:, None] == group[None, :]) & (rng.random((n, n)) < 0.6)
        perm = rng.permutation(n)
        keep = keep[np.ix_(perm, perm)]
    elif kind == "paths":
        order = rng.permutation(n)
        steps = rng.random(n - 1) < 0.8  # a missing step splits the path
        keep[order[:-1][steps], order[1:][steps]] = True
    elif kind == "random":
        keep = rng.random((n, n)) < draw(st.sampled_from([0.02, 0.05, 0.1, 0.3]))
    elif kind == "dense":
        keep[:] = True
        keep[0, rng.integers(1, n)] = False
    elif kind == "one":
        keep[:] = draw(st.booleans())
    entries = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.where(keep, entries, 0)


@settings(max_examples=300, deadline=None)
@given(h=_patterns())
def test_block_groups_matches_breadth_first_search(h):
    expected = _reference_groups(h)
    groups = edge_groups(*np.nonzero(h), h.shape[0])
    assert [g.tolist() for g in groups] == expected
    assert all(g.dtype.kind == "i" for g in groups)
    if h.size:
        partition = Blocks.of(h)
        assert [g.tolist() for g in partition.groups] == expected


def test_any_full_row_makes_one_block_without_union_rounds(monkeypatch):
    # row 0 has a zero, so Blocks.of reads the edges; row 1 has none, which
    # the row degrees show before any union round runs
    rng = np.random.default_rng(47)
    g = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    h = g + g.conj().T
    h[0, 5] = h[5, 0] = 0.0
    rounds = []
    roots = matcore._roots
    monkeypatch.setattr(matcore, "_roots", lambda *a: rounds.append(a) or roots(*a))
    partition = Blocks.of(h)
    one = [[list(range(256))]]
    assert partition.whole and [g.tolist() for g in partition.groups] == one
    assert [g.tolist() for g in edge_groups(*np.nonzero(h), 256)] == one
    assert rounds == []
    np.fill_diagonal(h, 0.0)  # no full row left: the rounds find the one component
    assert [g.tolist() for g in Blocks.of(h).groups] == one
    assert len(rounds) == 1


def test_dense_matrix_with_a_zero_in_row_0_is_one_block_without_an_edge_list(monkeypatch):
    # the row degrees of the pattern show the full rows before any edge is
    # listed; a block diagonal matrix still gets the edge list's groups
    rng = np.random.default_rng(48)
    h = rng.normal(size=(300, 300)) + 1j * rng.normal(size=(300, 300))
    h[0, 0] = 0.0
    blocks = np.kron(np.eye(30), np.ones((10, 10)))[np.ix_(*[rng.permutation(300)] * 2)] * h
    expected = [g.tolist() for g in matcore.edge_groups(*np.nonzero(blocks), 300)]
    listed = []
    edge_groups = matcore.edge_groups
    monkeypatch.setattr(matcore, "edge_groups", lambda *a: listed.append(a) or edge_groups(*a))
    assert Blocks.of(h).whole and listed == []
    assert [g.tolist() for g in Blocks.of(blocks).groups] == expected and len(expected[0]) == 30


@settings(max_examples=150, deadline=None)
@given(h=_patterns(), seed=st.integers(0, 2 ** 32 - 1))
def test_entry_built_operator_reads_as_its_matrix(h, seed):
    # an operator built as the packed entries of its matrix's partition
    # answers every read as the operator wrapping that matrix does
    rng = np.random.default_rng(seed)
    side = h.shape[0]
    if side < 2:
        return
    dims = (side,) if side % 2 else (2, side // 2)
    labels = tuple(rng.permutation(len(dims)))
    partition = Blocks.of(h)
    built = LabeledOperator(partition.pack(h), labels, dims, blocks=partition)
    unpickled = pickle.loads(pickle.dumps(built))
    assert "matrix" not in unpickled.__dict__ and np.array_equal(unpickled.entries, built.entries)
    dense = LabeledOperator(h, labels, dims)
    assert np.array_equal(built.entries, dense.entries)
    rows, cols = rng.integers(0, side, (2, 40))
    assert np.array_equal(built.at(rows[:, None], cols), h[rows[:, None], cols])
    assert built.trace() == dense.trace()
    # both add up their entries in packed order, partial_trace in index order
    traced = partial_trace(dense, [labels[-1]]).matrix
    level = trace_last(Entries.of(built), dims[-1])
    assert (np.diff(level.flat) > 0).all()  # each position once, ascending
    assert np.abs(level.matrix() - traced).max() <= 1e-12 * max(1.0, np.abs(h).sum())
    assert all(map(np.array_equal, trace_last(Entries.of(dense), dims[-1]), level))
    assert "matrix" not in vars(built)  # none of the reads above formed it
    assert np.array_equal(built.matrix, h) and not built.matrix.flags.writeable
    assert np.array_equal(unpickled.matrix, h)
    bad = partition.pack(h).copy()
    bad[-1] = np.nan
    with pytest.raises(ValueError, match="NaN or Inf"):
        LabeledOperator(bad, labels, dims, blocks=partition)
    with pytest.raises(ValueError):
        LabeledOperator(bad[:-1], labels, dims, blocks=partition)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("imaginary", [False, True])
def test_nonfinite_entry_off_row_0_is_rejected(bad, imaginary):
    # a sparse matrix with full-rank diagonal; the bad entry sits in row 5,
    # in the real or the imaginary part, and is nonzero in either
    h = np.diag(np.arange(1.0, 9.0)).astype(complex)
    h[5, 3] = complex(0.0, bad) if imaginary else complex(bad, 0.0)
    builders = [
        lambda: LabeledOperator(h, (0, 1), (2, 4)),
        lambda: LabeledOperator(Blocks.of(h).pack(h), (0, 1), (2, 4), blocks=Blocks.of(h)),
        lambda: eigvalsh(h),
    ]
    for build in builders:
        with pytest.raises(ValueError, match="NaN or Inf"):
            build()


def _hermitian_block(kind: str, side: int, rng) -> np.ndarray:
    if kind == "zero":
        return np.zeros((side, side), dtype=complex)
    if kind == "degenerate":
        values = rng.choice([-1.0, 0.0, 2.0], size=side)
        u = haar_unitary(side, rng)
        return (u * values) @ u.conj().T
    g = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    if kind == "sparse":
        keep = rng.random((side, side)) < 0.4
        g = g * (keep | keep.T)
    return g + g.conj().T


block_kinds = st.sampled_from(["dense", "sparse", "zero", "degenerate"])


# a Hermitian matrix of random blocks (and one dense block) under a random
# permutation of its indices
block_diagonal_cases = dict(
    blocks=st.lists(st.tuples(st.integers(1, 5), block_kinds), min_size=1, max_size=8),
    dense_side=st.integers(1, 12), dense_kind=st.sampled_from(["dense", "degenerate"]),
    seed=st.integers(0, 2 ** 32 - 1),
)


def _permuted_block_diagonal(blocks, dense_side, dense_kind, seed):
    rng = np.random.default_rng(seed)
    parts = [_hermitian_block(kind, side, rng) for side, kind in blocks]
    dense = _hermitian_block(dense_kind, dense_side, rng)
    parts.append(dense)
    side = sum(p.shape[0] for p in parts)
    h = np.zeros((side, side), dtype=complex)
    start = 0
    for p in parts:
        h[start:start + len(p), start:start + len(p)] = p
        start += len(p)
    perm = rng.permutation(side)
    return h[np.ix_(perm, perm)], dense


@settings(max_examples=150, deadline=None)
@given(**block_diagonal_cases)
def test_block_groups_and_blockwise_kernels(blocks, dense_side, dense_kind, seed):
    h, _ = _permuted_block_diagonal(blocks, dense_side, dense_kind, seed)
    side = h.shape[0]
    partition = Blocks.of(h)
    groups = partition.groups
    sizes = [g.shape[1] for g in groups]
    assert sizes == sorted(set(sizes))
    assert all(np.all(np.diff(g, axis=1) > 0) for g in groups)
    assert sorted(row.tolist() for g in groups for row in g) == _bfs_components(h)
    label = np.empty(side, dtype=int)
    for g in groups:
        for k, row in enumerate(g):
            label[row] = g.shape[1] * side + k
    rows, cols = np.nonzero(h)
    assert np.array_equal(label[rows], label[cols])

    norm = np.linalg.norm(h)
    assert np.abs(eigvalsh(h) - np.linalg.eigvalsh(h)).max() <= 1e-12 * norm
    packed = partition.pack(h)
    square = partition.unpack(partition.product(packed, packed))
    assert np.abs(square - h @ h).max() <= 1e-12 * norm ** 2


def _block_sparse(side: int, parts: int, density: float, rng) -> np.ndarray:
    """Random complex entries, each kept with probability ``density`` where
    its row and column fall in the same of ``parts`` random index groups."""
    group = rng.integers(0, parts, side)
    keep = (group[:, None] == group[None, :]) & (rng.random((side, side)) < density)
    return (rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))) * keep


@settings(max_examples=150, deadline=None)
@given(dims=st.lists(st.integers(1, 3), min_size=2, max_size=4), parts=st.integers(1, 6),
       density=st.sampled_from([0.2, 0.6, 1.0]), seed=st.integers(0, 2 ** 32 - 1),
       source_first=st.booleans())
def test_rearranged_operators_derive_the_canonical_partition(dims, parts, density, seed,
                                                             source_first):
    # the partition of a rearranged operator, read off its source's through
    # the index map of the rearrangement (Blocks.permuted, as the product
    # objective reads its regrouped comb), is Blocks.of of the rearranged
    # matrix group for group, so the packed layout does not depend on the
    # path that found it, nor on whether the source was labelled first
    rng = np.random.default_rng(seed)
    k = len(dims)
    side = int(np.prod(dims))
    op = LabeledOperator(_block_sparse(side, parts, density, rng), rng.permutation(k), dims)
    if source_first:
        op.blocks
    reads = [(op, rng.permutation(op.labels)), (op, tuple(np.sort(op.labels)))]
    if k % 2 == 0:
        comb = MemoryChannel(op.sorted(), k // 2)
        order = comb.choi.labels[0::2] + comb.choi.labels[1::2]
        assert np.array_equal(comb.as_single_use().choi.matrix, comb.choi.permuted(order).matrix)
        reads.append((comb.choi, order))
    for source, order in reads:
        made = source.permuted(order)
        derived = source.blocks.permuted(
            regroup_index(source.dims, [source.labels.index(l) for l in order]))
        fresh = Blocks.of(made.matrix)
        assert len(derived.groups) == len(fresh.groups)
        for a, b in zip(derived.groups, fresh.groups):
            assert np.array_equal(a, b)
        assert np.array_equal(derived.pack(made.matrix), fresh.pack(made.matrix))
    once = op.permuted(rng.permutation(op.labels))
    once.blocks
    unpickled = pickle.loads(pickle.dumps(once))
    assert np.array_equal(unpickled.matrix, once.matrix) and unpickled.labels == once.labels
    assert all(np.array_equal(a, b) for a, b in zip(unpickled.blocks.groups, once.blocks.groups))


SPECTRAL_MAPS = {
    "clip": lambda w: np.clip(w, 0.0, None),
    # shifted clear of zero, where the square root is ill-conditioned
    "sqrt": lambda w: np.sqrt(w - w.min() + 1.0),
    "simplex": lambda w: project_simplex(w, 1.0),
    "threshold": lambda w: w > 1e-12 * max(1.0, float(np.abs(w).max())),
}


def _dense_rebuild(h, f):
    w, v = np.linalg.eigh(h)
    return (v * f(w)) @ v.conj().T


@settings(max_examples=100, deadline=None)
@given(**block_diagonal_cases, name=st.sampled_from(sorted(SPECTRAL_MAPS)))
def test_spectral_map_matches_dense_rebuild(blocks, dense_side, dense_kind, seed, name):
    f = SPECTRAL_MAPS[name]
    h, dense = _permuted_block_diagonal(blocks, dense_side, dense_kind, seed)
    scale = max(1.0, np.linalg.norm(h))
    assert np.abs(spectral_map(h, f) - _dense_rebuild(h, f)).max() <= 1e-12 * scale
    # a matrix with one component goes through the dense arithmetic as it
    # stands, on the Hermitian part the check passes on
    assert np.array_equal(spectral_map(dense, f), _dense_rebuild(matcore._hermitian(dense), f))


def _eigh_map(blocks, v, f):
    """Blocks.map as one stacked eigh per block size, size 1 included."""
    systems = [np.linalg.eigh(b) for b in blocks.stacks(v)]
    fw = f(Blocks.join([w for w, _ in systems]))
    out, start = [], 0
    for w, u in systems:
        part = fw[start:start + w.size].reshape(w.shape)
        start += w.size
        out.append((u * part[:, None, :]) @ u.conj().swapaxes(-1, -2))
    return Blocks.join(out)


@settings(max_examples=60, deadline=None)
@given(**block_diagonal_cases, singles=st.integers(1, 4), tilt=st.floats(-2.0, 2.0),
       name=st.sampled_from(sorted(SPECTRAL_MAPS)))
def test_blocks_map_reads_size_one_blocks_as_eigh(blocks, dense_side, dense_kind, seed,
                                                  singles, tilt, name):
    f = SPECTRAL_MAPS[name]
    h, _ = _permuted_block_diagonal(blocks + [(1, "dense")] * singles + [(1, "zero")],
                                    dense_side, dense_kind, seed)
    partition = Blocks.of(h)
    v = partition.pack(h)
    # eigh reads the real part of a diagonal entry and ignores the rest
    for stack in partition.stacks(v):
        if stack.shape[-1] == 1:
            stack += 1j * tilt
    assert partition.map(v, f).tobytes() == _eigh_map(partition, v, f).tobytes()


@settings(max_examples=60, deadline=None)
@given(**block_diagonal_cases, fixed=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       diagonal=st.booleans(), deficient=st.booleans(), coarse=st.booleans(),
       parts=st.integers(1, 6), density=st.sampled_from([0.2, 0.6, 1.0]))
def test_lifted_sandwich_matches_kron(blocks, dense_side, dense_kind, seed, fixed, diagonal,
                                      deficient, coarse, parts, density):
    # size-1, zero and dense blocks under a shuffle; the complex factor makes
    # the root non-Hermitian, so the sandwich's right product must use the
    # root itself.  A root with a zeroed row and column is rank-deficient;
    # it is packed on its own partition or, coarser, on the partition of
    # the matrix it came from.  The operators sit on the free space and the
    # fixed spaces in shuffled factor orders, one of them entry-built.
    h, _ = _permuted_block_diagonal(blocks, dense_side, dense_kind, seed)
    rng = np.random.default_rng(seed)
    root = (np.diag(np.diag(h)) if diagonal else h) * (1.0 - 0.5j)
    if deficient:
        drop = rng.integers(len(root))
        root[drop], root[:, drop] = 0, 0
    free = Blocks.of(h) if coarse else Blocks.of(root)
    dims = {0: len(root)} | {1 + k: d for k, d in enumerate(fixed)}
    side, top = int(np.prod(list(dims.values()))), int(np.prod(fixed))
    order = tuple(dims)
    ops = []
    for built in (False, True):
        labels = tuple(rng.permutation(order))
        m = _block_sparse(side, parts, density, rng)
        op = LabeledOperator(m, labels, [dims[l] for l in labels])
        ops.append(LabeledOperator._nonzeros(*np.nonzero(m), m[np.nonzero(m)], labels, op.dims)
                   if built else op)
    partition, entries, lift = matcore._lifted(ops, order, free.pack(root), free)
    kron = np.kron(root, np.eye(top))
    assert np.array_equal(partition.unpack(lift), kron)
    norm_l = max(1.0, np.linalg.norm(root))
    for op, v in zip(ops, entries):
        m = op.permuted(order).matrix
        assert np.array_equal(partition.unpack(v), m)
        sandwich = partition.unpack(partition.product(lift, v, lift))
        assert np.abs(sandwich - kron @ m @ kron).max() <= 1e-12 * norm_l ** 2 * np.linalg.norm(m)
    # a stack of roots tiles the partition, one copy per root
    tiled, stacked, lifts = matcore._lifted(ops, order, [free.pack(root), free.pack(2 * root)],
                                            free)
    assert tiled.side == 2 * side and tiled.size == 2 * partition.size
    expected = np.zeros((2 * side, 2 * side), dtype=complex)
    expected[:side, :side], expected[side:, side:] = kron, 2 * kron
    assert np.array_equal(tiled.unpack(lifts), expected)
    assert np.array_equal(tiled.unpack(stacked[0])[side:, side:], ops[0].permuted(order).matrix)


def test_lifted_rejects_operators_on_other_spaces():
    a = LabeledOperator(np.eye(6), (0, 1), (2, 3))
    b = LabeledOperator(np.eye(6), (0, 1), (3, 2))
    with pytest.raises(ValueError, match="different spaces"):
        matcore._lifted((a, b), (0, 1), np.ones(4), Blocks.one(2))


def test_spectral_map_checked_rejects_non_hermitian_blocks():
    one_sided = _block_diagonal_with_one_sided_entry()
    with pytest.raises(ValueError, match="not Hermitian"):
        spectral_map(one_sided, np.abs)
    with pytest.raises(ValueError, match="not Hermitian"):
        psd_sqrt(LabeledOperator(one_sided, (0,), (6,)))
    # a negative block fails the positivity test on the whole spectrum's scale
    with pytest.raises(ValueError, match="significantly negative"):
        psd_sqrt(LabeledOperator(np.diag([1.0, 0.0, -1e-6]), (0,), (3,)))


def test_trace_norm_cases():
    assert trace_norm(np.zeros((3, 3))) == 0.0
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        assert abs(trace_norm(haar_unitary(d, rng)) - d) < 1e-10
    assert abs(trace_norm(np.diag([1.0, -2.0])) - 3.0) < 1e-12


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = haar_unitary(4, rng)
    v = haar_unitary(4, rng)
    assert abs(trace_norm(u @ x @ v) - trace_norm(x)) < 1e-9


def test_double_ket_identity():
    assert np.allclose(double_ket(np.eye(2)), [1, 0, 0, 1])


def test_double_ket_single_entry():
    m = np.zeros((2, 2))
    m[0, 1] = 1.0
    assert np.allclose(double_ket(m), [0, 1, 0, 0])


def test_double_ket_index_formula():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    v = double_ket(m)
    for i in range(2):
        for j in range(3):
            assert v[i * 3 + j] == m[i, j]
    assert np.allclose(undouble_ket(v, 2, 3), m)


def test_double_ket_product_identity():
    # (A ⊗ C)|M>> = |A M C^T>>
    rng = np.random.default_rng(8)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    lhs = np.kron(a, b.T) @ double_ket(m)
    rhs = double_ket(a @ m @ b)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_psd_sqrt_cases():
    ident = identity([0], [3])
    assert np.allclose(psd_sqrt(ident).matrix, np.eye(3))
    op = LabeledOperator(np.diag([4.0, 0.0]), (0,), (2,))
    assert np.allclose(psd_sqrt(op).matrix, np.diag([2.0, 0.0]))
    assert np.allclose(psd_inv_sqrt(op).matrix, np.diag([0.5, 0.0]))


def test_psd_sqrt_reconstruction():
    rng = np.random.default_rng(9)
    p = random_psd(6, rng)
    op = LabeledOperator(p, (0,), (6,))
    r = psd_sqrt(op)
    assert np.linalg.norm(r.matrix @ r.matrix - p) < 1e-9 * np.linalg.norm(p)


def test_psd_sqrt_rejects_negative():
    op = LabeledOperator(np.diag([1.0, -1.0]), (0,), (2,))
    with pytest.raises(ValueError):
        psd_sqrt(op)


def test_permuted_round_trip():
    rng = np.random.default_rng(10)
    op = rand_op(rng, (2, 3, 2), (0, 1, 2))
    back = op.permuted((2, 0, 1)).permuted((0, 1, 2))
    assert np.abs(back.matrix - op.matrix).max() == 0.0


def test_permuted_matches_kron_swap():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    op = tensor(LabeledOperator(a, (0,), (2,)), LabeledOperator(b, (1,), (3,)))
    swapped = op.permuted((1, 0))
    assert np.abs(swapped.matrix - np.kron(b, a)).max() < 1e-13


def test_link_matches_padded_definition():
    rng = np.random.default_rng(12)
    a = rand_op(rng, (2, 3), (0, 7))
    b = rand_op(rng, (3, 2), (7, 4))
    got = link(a, b)
    # padded form: Tr_S[(a ⊗ I_rest_b)(b^{T_S} ⊗ I_rest_a)]
    a_pad = tensor(a, identity([4], [2])).permuted((0, 7, 4))
    b_pad = tensor(b.partial_transpose([7]), identity([0], [2])).permuted((0, 7, 4))
    expect = partial_trace(a_pad @ b_pad, [7])
    assert np.abs(got.permuted(expect.labels).matrix - expect.matrix).max() < 1e-12


def test_link_without_shared_labels_is_tensor():
    rng = np.random.default_rng(13)
    a = rand_op(rng, (2,), (0,))
    b = rand_op(rng, (3,), (1,))
    assert np.abs(link(a, b).matrix - tensor(a, b).matrix).max() == 0.0


def test_labeled_operator_invariants():
    with pytest.raises(ValueError):
        LabeledOperator(np.eye(3), (0, 1), (2, 2))
    with pytest.raises(ValueError):
        LabeledOperator(np.eye(4), (0, 0), (2, 2))
    with pytest.raises(ValueError):
        LabeledOperator(np.array([[np.nan, 0], [0, 1]]), (0,), (2,))
    op = identity([0], [2])
    assert not op.matrix.flags.writeable


def test_labeled_operator_copies_inputs_and_owns_its_results():
    rng = np.random.default_rng(15)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a = LabeledOperator(m, (0, 1), (2, 3))
    m[0, 0] = 99.0
    assert a.matrix[0, 0] != 99.0
    b = rand_op(rng, (3, 2), (1, 4))
    p = LabeledOperator(random_psd(6, rng), (0, 1), (2, 3))
    results = [
        a.permuted((1, 0)), a.partial_transpose([0]), a.transpose(), a.conj(),
        a + a, a - a, a @ a, a * 2.0, 2.0 * a, tensor(a, rand_op(rng, (2,), (5,))),
        partial_trace(a, [0]), link(a, b), psd_sqrt(p), psd_inv_sqrt(p), identity([0], [3]),
    ]
    for r in results:
        assert not r.matrix.flags.writeable
        with pytest.raises(ValueError):
            r.matrix[0, 0] = 1.0
    with pytest.raises(ValueError, match="NaN or Inf"):
        a * np.nan


@pytest.mark.parametrize("layout", ["whole", "blocks", "transposed", "real"])
def test_a_callers_array_mutated_afterwards_leaves_the_operator(layout):
    rng = np.random.default_rng(16)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    if layout == "blocks":
        m[:3, 3:] = m[3:, :3] = 0.0
    array = {"transposed": m.T, "real": m.real}.get(layout, m)
    op = LabeledOperator(array, (0, 1), (2, 3))
    before = op.matrix.copy()
    array[...] = 7.0
    assert np.array_equal(op.matrix, before)


def _psd_cases():
    """A multi-block PSD operator under a permutation, a dense (whole) one,
    and the entry-built d = 2 counterexample comb."""
    rng = np.random.default_rng(17)
    h, _ = _permuted_block_diagonal([(2, "dense"), (1, "dense"), (3, "sparse")], 2, "dense", 17)
    multi = LabeledOperator(h @ h, (0, 1), (2, 4))
    whole = LabeledOperator(random_psd(6, rng), (3, 1), (3, 2))
    return [multi, whole, separation.build_example(2).c0.choi]


def _same_operator(a: LabeledOperator, b: LabeledOperator) -> bool:
    return ((a.labels, a.dims) == (b.labels, b.dims)
            and [g.tolist() for g in a.blocks.groups] == [g.tolist() for g in b.blocks.groups]
            and a.entries.tobytes() == b.entries.tobytes())


@pytest.mark.parametrize("case", range(3))
def test_roots_conj_and_transpose_keep_to_entries(case):
    # each gives the operator its dense route labels from scratch, and an
    # entry-built operator forms no matrix on the way
    op = _psd_cases()[case]
    got = [psd_sqrt(op), psd_inv_sqrt(op), op.conj(), op.transpose()]
    assert all("matrix" not in vars(x) for x in [op, *got])
    dense = [matcore.psd_sqrt_matrix(op.matrix), matcore.psd_inv_sqrt_matrix(op.matrix),
             op.matrix.conj(), op.matrix.T]
    for x, m in zip(got, dense):
        assert _same_operator(x, LabeledOperator(m, op.labels, op.dims))
    assert op.blocks.whole == (case == 1)


def test_tensor_of_dense_operators_copies_no_result():
    # the product is labelled and packed as computed: one side-1024 matrix
    rng = np.random.default_rng(18)
    a, b = (LabeledOperator(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)),
                            (k,), (32,)) for k in (0, 1))
    out, peak = traced_peak(tensor, a, b)
    assert out.blocks.whole and out.entries.nbytes == 16 * 2 ** 20
    assert peak <= 18 * 2 ** 20, peak / 2 ** 20


def test_add_sub_matmul_reject_mismatched_dims():
    rng = np.random.default_rng(14)
    a = rand_op(rng, (2, 3), (0, 1))
    b = rand_op(rng, (3, 2), (0, 1))
    for op in (operator.add, operator.sub, operator.matmul):
        with pytest.raises(ValueError, match="matching subsystem dimensions"):
            op(a, b)
    # the same factors in another order are aligned by label
    swapped = a.permuted((1, 0))
    assert np.abs((a + swapped).matrix - 2 * a.matrix).max() == 0.0
    assert np.abs((a - swapped).matrix).max() == 0.0


# labels 0..4 with fixed dimensions, so shared labels always agree
LABEL_DIMS = (2, 3, 1, 2, 3)
label_sets = st.sets(st.integers(0, 4), min_size=1, max_size=4).filter(
    lambda ls: np.prod([LABEL_DIMS[l] for l in ls]) <= 36)


def _op_on(labels, rng):
    labels = tuple(sorted(labels))
    return rand_op(rng, tuple(LABEL_DIMS[l] for l in labels), labels)


@settings(max_examples=60, deadline=None)
@given(labels=label_sets, seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_partial_trace_is_invariant_under_label_permutation(labels, seed, data):
    op = _op_on(labels, np.random.default_rng(seed))
    over = data.draw(st.lists(st.sampled_from(op.labels), unique=True))
    order = data.draw(st.permutations(op.labels))
    expect = partial_trace(op, over)
    got = partial_trace(op.permuted(order), over)
    assert allclose(got, expect, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(la=label_sets, lb=label_sets, seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_link_is_invariant_under_label_permutation(la, lb, seed, data):
    rng = np.random.default_rng(seed)
    a, b = _op_on(la, rng), _op_on(lb, rng)
    expect = link(a, b)
    got = link(a.permuted(data.draw(st.permutations(a.labels))),
               b.permuted(data.draw(st.permutations(b.labels))))
    assert allclose(got, expect, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       traced=st.integers(0, 3), groups=st.integers(1, 6), summands=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_tail_trace_matches_dense_partial_trace(dims, traced, groups, summands, seed):
    # an operator on a random block partition, handed over as summands on
    # shuffled copies of its positions, traced over its last ``traced``
    # factors as one tail (none: tail 1, which adds up the summands)
    rng = np.random.default_rng(seed)
    side, traced = int(np.prod(dims)), min(traced, len(dims))
    tail = int(np.prod(dims[len(dims) - traced:]))
    group = rng.integers(0, groups, side)
    mask = group[:, None] == group[None, :]
    h = (rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))) * mask
    where = np.flatnonzero(mask)
    parts = rng.normal(size=(summands, where.size)) * h.reshape(-1)[where]
    parts[-1] = h.reshape(-1)[where] - parts[:-1].sum(axis=0)
    shuffles = [rng.permutation(where.size) for _ in range(summands)]
    flat = np.concatenate([where[p] for p in shuffles])
    values = np.concatenate([part[p] for part, p in zip(parts, shuffles)])

    trace = TailTrace(flat, side, tail)
    labels = tuple(range(len(dims)))
    want = partial_trace(LabeledOperator(h, labels, dims), labels[len(dims) - traced:]).matrix
    got = Entries(trace.flat, trace(values), trace.side).matrix()
    assert trace.side == side // tail and (np.diff(trace.flat) > 0).all()
    scale = max(1.0, float(np.abs(parts).sum()))
    assert np.abs(got - want).max() <= 1e-12 * scale
    # the positions reached are those of the mask's tail diagonal
    view = mask.reshape(trace.side, tail, trace.side, tail)
    assert np.array_equal(trace.flat, np.flatnonzero(np.einsum("aibi->ab", view)))
    # every entry on the tail's diagonal, grouped by the position it adds
    # to, in the order given within a group
    rows, cols = np.divmod(flat, side)
    assert np.array_equal(np.sort(trace.on), np.flatnonzero(rows % tail == cols % tail))
    rows, cols = rows[trace.on] // tail, cols[trace.on] // tail
    assert np.array_equal(trace.flat[trace.pair], rows * trace.side + cols)
    assert (np.diff(trace.on)[np.diff(trace.pair) == 0] > 0).all()
    assert all(map(np.array_equal, trace_last(Entries(flat, values, side), tail),
                   Entries(trace.flat, trace(values), trace.side)))


def _stack(rng, shape, complex_, zeros):
    r = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_ else 0)
    r[rng.random(shape) < zeros] = -0.0  # signed zeros keep their sign through both
    return r


@settings(max_examples=150, deadline=None)
@given(stack=st.sampled_from([(), (1,), (3,), (2, 2)]), rows=st.integers(1, 4),
       cols=st.integers(1, 4), n=st.integers(1, 4), complex_=st.booleans(),
       transposed=st.booleans(), zeros=st.floats(0.0, 0.5), seed=st.integers(0, 2 ** 32 - 1))
def test_kron_eye_is_kron_with_the_identity_bit_for_bit(stack, rows, cols, n, complex_,
                                                        transposed, zeros, seed):
    r = _stack(np.random.default_rng(seed), stack + (rows, cols), complex_, zeros)
    r = r.swapaxes(-1, -2) if transposed else r  # the seesaw lifts a transposed view
    want, got = np.kron(r, np.eye(n)), matcore.kron_eye(r, n)
    assert np.array_equal(got, want)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@settings(max_examples=100, deadline=None)
@given(stack=st.sampled_from([(), (1,), (3,), (2, 2)]), side=st.integers(1, 9),
       complex_=st.booleans(), transposed=st.booleans(), zeros=st.floats(0.0, 0.5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_hermitian_part_has_the_bits_of_the_plain_sum(stack, side, complex_, transposed,
                                                      zeros, seed):
    b = _stack(np.random.default_rng(seed), stack + (side, side), complex_, zeros)
    b = b.swapaxes(-1, -2) if transposed else b
    before = b.copy()
    want, got = (b + b.conj().swapaxes(-1, -2)) / 2, matcore._hermitian(b)
    assert got.flags.c_contiguous and np.array_equal(b, before)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_tail_trace_of_no_diagonal_entries_is_empty():
    trace = TailTrace(np.array([1, 3]), 4, 2)  # (0, 1) and (0, 3): off the tail's diagonal
    assert trace.flat.size == trace.on.size == trace.pair.size == 0
    assert trace(np.ones(2, dtype=complex)).size == 0
