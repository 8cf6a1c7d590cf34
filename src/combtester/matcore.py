"""Dense complex linear algebra on labeled multipartite operators.

Everything in this package runs through the helpers here.  Two global
conventions are fixed once and for all:

* Vectorization is row-major: ``double_ket(M)`` is the vector with entry
  ``M[m, n]`` at position ``m * cols + n``, i.e. |M>> = sum_mn M_mn |m>|n>.
  The workhorse identity is ``(A kron B) |M>> = |A M B^T>>``.
* A `LabeledOperator` stores its tensor factors in the order of its
  ``labels`` tuple.  All reshuffling goes through :meth:`LabeledOperator.permuted`
  rather than raw reshapes, because transpose-convention bugs are the
  dominant failure mode in Choi calculus.

Operators held as entries are traced over a last factor by :class:`TailTrace`
alone, and lifted to ``⊗ I`` there by :func:`lift_last`; :func:`partial_trace`
is the dense reference over any labels.  A raw matrix or stack is lifted to
``⊗ I`` by :func:`kron_eye` alone.
"""

from __future__ import annotations

import math
from functools import cached_property, partial, reduce
from typing import Iterable, NamedTuple, Sequence

import numpy as np

HERMITICITY_RTOL = 1e-10
PSD_FAIL = -1e-8
SUPPORT_CUTOFF = 1e-12


def _as_complex_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    # one pass over the complex entries, both parts at once
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return a


class LabeledOperator:
    """A square operator on a tensor product of labeled subsystems.

    ``labels[k]`` names the k-th tensor factor and ``dims[k]`` is its
    dimension; ``prod(dims)`` is the matrix side.  An operator is held one
    way: as the read-only packed :attr:`entries` of its matrix on
    :attr:`blocks`, the partition :meth:`Blocks.of` gives that matrix.  Every
    one holds finite entries, so a kernel given them need not scan again.
    Instances are immutable and safe to share.

    ``LabeledOperator(matrix, labels, dims)`` labels ``matrix`` and packs a
    copy of it; ``LabeledOperator(entries, labels, dims, blocks=blocks)``
    keeps packed ``entries`` on a ``blocks`` that must be :meth:`Blocks.of`
    of their matrix, group for group, as given.  Either way the constructor
    checks the spaces and scans the entries for NaN/Inf.  :attr:`matrix` is
    a view of the entries for a one-block partition, and otherwise formed on
    first read and kept.
    """

    def __init__(self, matrix, labels, dims, *, blocks: "Blocks | None" = None):
        labels = tuple(int(l) for l in labels)
        dims = tuple(int(d) for d in dims)
        if len(labels) != len(dims):
            raise ValueError("labels and dims must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels must be distinct, got {labels}")
        if any(d < 1 for d in dims):
            raise ValueError(f"dimensions must be positive, got {dims}")
        side = math.prod(dims)
        entries = np.asarray(matrix, dtype=complex).view()  # freezing a view spares the caller
        if blocks is None:
            if entries.shape != (side, side):
                raise ValueError(
                    f"matrix side {entries.shape} inconsistent with dims {dims} (product {side})")
            blocks = Blocks.of(entries)
            entries = blocks.pack(entries)
            if np.may_share_memory(entries, matrix):  # a view of the caller's array
                entries = entries.copy()
        elif entries.shape != (blocks.size,) or blocks.side != side:
            raise ValueError(f"{entries.shape} entries for a partition of {blocks.size} "
                             f"on side {blocks.side}, with dims {dims}")
        if not np.isfinite(entries).all():  # every NaN or Inf is nonzero, so on the blocks
            raise ValueError("matrix contains NaN or Inf entries")
        entries.flags.writeable = False
        vars(self).update(labels=labels, dims=dims, blocks=blocks, entries=entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"LabeledOperator is immutable: cannot set {name}")

    @classmethod
    def _nonzeros(cls, rows, cols, values, labels, dims) -> "LabeledOperator":
        """``values`` at the distinct positions ``(rows, cols)``, 0 elsewhere,
        built as the entries of its nonzero pattern's components."""
        on = values != 0
        rows, cols, side = rows[on], cols[on], math.prod(dims)
        blocks = Blocks(edge_groups(rows, cols, side), side)
        entries = np.zeros(blocks.size, dtype=complex)
        entries[blocks.locate(rows, cols)[0]] = values[on]
        return cls(entries, labels, dims, blocks=blocks)

    @classmethod
    def _of(cls, m: np.ndarray, labels, dims) -> "LabeledOperator":
        """The operator of a matrix computed here, labelled once
        (:meth:`Blocks.of`) and packed with no defensive copy."""
        blocks = Blocks.of(m)
        return cls(blocks.pack(m), labels, dims, blocks=blocks)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix, read-only: a view of the entries for one block,
        otherwise formed from them on first read."""
        m = self.blocks.unpack(self.entries)
        m.flags.writeable = False
        return m

    def __repr__(self) -> str:
        # names the spaces only: does not form the matrix
        return (f"LabeledOperator(labels={self.labels}, dims={self.dims}, "
                f"blocks={sum(len(g) for g in self.blocks.groups)}, entries={self.entries.size})")

    # -- basic queries ----------------------------------------------------

    @property
    def side(self) -> int:
        return math.prod(self.dims)

    def dim_of(self, label: int) -> int:
        return self.dims[self.labels.index(label)]

    def at(self, rows, cols) -> np.ndarray:
        """The entries at the broadcast positions ``(rows, cols)``, 0 off the blocks."""
        where, on = self.blocks.locate(rows, cols)
        return np.where(on, self.entries[where], 0)

    def trace(self) -> complex:
        return complex(self.entries[self.blocks.diagonal].sum())

    # -- structural operations --------------------------------------------

    def _tensor_view(self) -> np.ndarray:
        k = len(self.dims)
        return self.matrix.reshape(self.dims + self.dims) if k else self.matrix

    def permuted(self, new_labels: Sequence[int]) -> "LabeledOperator":
        """Reorder tensor factors into the order given by ``new_labels``."""
        new_labels = tuple(int(l) for l in new_labels)
        if sorted(new_labels) != sorted(self.labels):
            raise ValueError(f"{new_labels} is not a permutation of {self.labels}")
        if new_labels == self.labels:
            return self
        k = len(self.labels)
        perm = [self.labels.index(l) for l in new_labels]
        t = self._tensor_view().transpose(perm + [p + k for p in perm])
        blocks = self.blocks.permuted(regroup_index(self.dims, perm))
        return LabeledOperator(blocks.pack(t.reshape(self.side, self.side)), new_labels,
                               [self.dims[p] for p in perm], blocks=blocks)

    def sorted(self) -> "LabeledOperator":
        return self.permuted(tuple(np.sort(self.labels)))

    def partial_transpose(self, on: Iterable[int]) -> "LabeledOperator":
        on = set(int(l) for l in on)
        unknown = on - set(self.labels)
        if unknown:
            raise ValueError(f"unknown labels {sorted(unknown)} in {self.labels}")
        k = len(self.labels)
        axes = list(range(2 * k))
        for i, l in enumerate(self.labels):
            if l in on:
                axes[i], axes[i + k] = axes[i + k], axes[i]
        t = self._tensor_view().transpose(axes)
        return self._of(t.reshape(self.side, self.side), self.labels, self.dims)

    def conj(self) -> "LabeledOperator":
        return LabeledOperator(self.entries.conj(), self.labels, self.dims, blocks=self.blocks)

    def transpose(self) -> "LabeledOperator":
        return LabeledOperator(self.blocks.dagger(self.entries.conj()), self.labels, self.dims,
                               blocks=self.blocks)

    def __mul__(self, scalar) -> "LabeledOperator":
        return self._of(self.matrix * scalar, self.labels, self.dims)

    __rmul__ = __mul__

    def aligned(self, other: "LabeledOperator") -> np.ndarray:
        """``other``'s matrix in this operator's factor order; raises unless
        the subsystem dimensions then match."""
        other = other.permuted(self.labels)
        if other.dims != self.dims:
            raise ValueError(f"operands need matching subsystem dimensions, got {other.dims}")
        return other.matrix

    def __add__(self, other: "LabeledOperator") -> "LabeledOperator":
        return self._of(self.matrix + self.aligned(other), self.labels, self.dims)

    def __sub__(self, other: "LabeledOperator") -> "LabeledOperator":
        return self._of(self.matrix - self.aligned(other), self.labels, self.dims)

    def __matmul__(self, other: "LabeledOperator") -> "LabeledOperator":
        return self._of(self.matrix @ self.aligned(other), self.labels, self.dims)


def regroup_index(dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """The index map of a factor reordering: an operator on ``dims`` with its
    factors in the order ``perm`` has entry ``[i, j]`` at ``[index[i],
    index[j]]`` of the operator in its own order."""
    return np.arange(int(np.prod(dims))).reshape(tuple(dims)).transpose(perm).reshape(-1)


def identity(labels: Sequence[int], dims: Sequence[int]) -> LabeledOperator:
    side = int(np.prod(dims)) if len(dims) else 1
    return LabeledOperator._of(np.eye(side, dtype=complex), labels, dims)


def tensor(a: LabeledOperator, b: LabeledOperator) -> LabeledOperator:
    """Kronecker product with concatenated labels.  Label sets must be disjoint."""
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise ValueError(f"overlapping labels {sorted(overlap)} in tensor product")
    return LabeledOperator._of(np.kron(a.matrix, b.matrix), a.labels + b.labels, a.dims + b.dims)


def tensor_many(ops: Sequence[LabeledOperator]) -> LabeledOperator:
    out = ops[0]
    for op in ops[1:]:
        out = tensor(out, op)
    return out


def partial_trace(a: LabeledOperator, over: Iterable[int]) -> LabeledOperator:
    """Trace out the named subsystems, preserving the order of the rest."""
    over = [int(l) for l in over]
    unknown = set(over) - set(a.labels)
    if unknown:
        raise ValueError(f"cannot trace over unknown labels {sorted(unknown)}")
    if len(set(over)) != len(over):
        raise ValueError(f"labels to trace over must be distinct, got {tuple(over)}")
    t = a._tensor_view()
    labels = list(a.labels)
    dims = list(a.dims)
    for l in sorted(over, key=labels.index, reverse=True):
        i = labels.index(l)
        t = np.trace(t, axis1=i, axis2=i + len(labels))
        labels.pop(i)
        dims.pop(i)
    side = int(np.prod(dims)) if dims else 1
    return LabeledOperator._of(t.reshape(side, side), labels, dims)


def link(a: LabeledOperator, b: LabeledOperator) -> LabeledOperator:
    """Link product: contract ``a`` and ``b`` over their shared labels.

    Computes ``Tr_S[(a ⊗ I)(b^{T_S} ⊗ I)]`` where ``S`` is the set of shared
    labels and the partial transpose acts on ``S``, without materializing the
    identity paddings.  With no shared labels this is the plain tensor
    product.  This is the standard composition rule for Choi operators of
    networks joined along the shared wires.
    """
    shared = [l for l in a.labels if l in b.labels]
    if not shared:
        return tensor(a, b)
    for l in shared:
        if a.dim_of(l) != b.dim_of(l):
            raise ValueError(f"shared label {l} has mismatched dimensions")
    rest_a = [l for l in a.labels if l not in shared]
    rest_b = [l for l in b.labels if l not in shared]
    ar = a.permuted(tuple(rest_a + shared))
    br = b.permuted(tuple(shared + rest_b))
    da = int(np.prod([ar.dim_of(l) for l in rest_a])) if rest_a else 1
    db = int(np.prod([br.dim_of(l) for l in rest_b])) if rest_b else 1
    ds = int(np.prod([a.dim_of(l) for l in shared]))
    at = ar.matrix.reshape(da, ds, da, ds)
    bt = br.matrix.reshape(ds, db, ds, db)
    # out[(x,u),(y,v)] = sum_{s,t} a[(x,s),(y,t)] b[(s,u),(t,v)]
    out = np.einsum("xsyt,sutv->xuyv", at, bt, optimize=True)
    labels = tuple(rest_a + rest_b)
    dims = tuple([ar.dim_of(l) for l in rest_a] + [br.dim_of(l) for l in rest_b])
    return LabeledOperator._of(out.reshape(da * db, da * db), labels, dims)


def kron_eye(r: np.ndarray, n: int) -> np.ndarray:
    """``r ⊗ I_n`` for a matrix or a stack of matrices: one broadcast multiply,
    equal to ``np.kron(r, np.eye(n))`` bit for bit."""
    *stack, rows, cols = r.shape
    return (r[..., :, None, :, None] * np.eye(n)[:, None, :]).reshape(*stack, rows * n, cols * n)


def lift_last(flat: np.ndarray, side: int, tail: int) -> np.ndarray:
    """The flat positions of ``x ⊗ I_tail`` (side ``side * tail``) that the
    entries of a side-``side`` ``x`` at ``flat`` replace: ``tail`` per entry,
    ``(r * tail + i, c * tail + i)`` for ``i < tail``, entry after entry."""
    rows, cols = np.divmod(flat, side)
    i = np.arange(tail)
    return ((rows[:, None] * tail + i) * (side * tail) + cols[:, None] * tail + i).ravel()


class TailTrace:
    """The trace over the last factor, of dimension ``tail``, of side-``side``
    operators held as values at the flat positions ``flat`` (``row * side +
    col``), which may repeat: built once from the positions, applied to any
    values at them.  ``on`` lists the entries on the tail's diagonal (row and
    column equal modulo ``tail``), grouped by the position they add to, in
    the order given within a group; ``flat`` holds those positions, distinct
    and ascending, on side ``side // tail``.  At tail 1 it adds up repeats.
    """

    def __init__(self, flat: np.ndarray, side: int, tail: int):
        self.side, self.tail = side // tail, tail
        rows, cols = np.divmod(flat, side)
        on = np.flatnonzero((rows - cols) % tail == 0)  # the same index on the tail
        traced = rows[on] // tail * self.side + cols[on] // tail
        order = np.argsort(traced, kind="stable")
        self.on, traced = on[order], traced[order]
        head = np.ones(traced.size, dtype=bool)  # each group's first entry
        np.not_equal(traced[1:], traced[:-1], out=head[1:])
        self._first = np.flatnonzero(head)
        self.flat = traced[self._first]

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """The sums at :attr:`flat` of ``values`` at the built positions, each
        group added up in the order given."""
        return np.add.reduceat(values[self.on], self._first)

    @cached_property
    def pair(self) -> np.ndarray:
        """Each entry's index in :attr:`flat`, where a replace reads it back."""
        return np.repeat(np.arange(self._first.size), np.diff(self._first, append=self.on.size))


class Entries(NamedTuple):
    """A side-``side`` operator as its ``values`` at the flat positions
    ``flat`` (``row * side + col``), 0 elsewhere.  The levels of a chain walk
    hold each position once, ascending; the entries of a sum (:meth:`of`)
    may repeat one, and then add up there."""

    flat: np.ndarray
    values: np.ndarray
    side: int

    @classmethod
    def of(cls, *ops: LabeledOperator) -> "Entries":
        """The entries of the sum of operators on one set of spaces: each
        one's packed entries, one operator after another."""
        if len({op.dims for op in ops}) > 1:
            raise ValueError("operators act on different spaces")
        side = ops[0].side
        flat = np.concatenate([op.blocks.flat for op in ops])
        return cls(flat, np.concatenate([op.entries for op in ops]), side)

    def trace(self) -> complex:
        return complex(self.values[self.flat % (self.side + 1) == 0].sum())

    def matrix(self) -> np.ndarray:
        """The matrix of a level, each position held once."""
        out = np.zeros(self.side * self.side, dtype=complex)
        out[self.flat] = self.values
        return out.reshape(self.side, self.side)


def trace_last(x: Entries, tail: int) -> Entries:
    """The trace of ``x`` over its last factor, of dimension ``tail``, as a
    level: the one-shot :class:`TailTrace`.  At tail 1 it is the level of
    the entries of a sum, each position once."""
    trace = TailTrace(x.flat, x.side, tail)
    return Entries(trace.flat, trace(x.values), trace.side)


def _level_residual(x: Entries, top: int, lower: Entries, odd: int) -> Entries:
    """``Tr_top x - lower ⊗ I_odd``, traced once: ``Tr_top (x - lower ⊗ I_odd ⊗ I_top / top)``."""
    flat = np.concatenate([x.flat, lift_last(lower.flat, lower.side, odd * top)])
    values = np.concatenate([x.values, np.repeat(lower.values / -top, odd * top)])
    return trace_last(Entries(flat, values, x.side), top)


def chain_levels(x: Entries, dims: Sequence[int], lowers=None):
    """Walk the normalization chain of ``x`` on spaces ``dims`` (odd length
    2N-1, ascending) top down on its entries, yielding the levels
    ``(X_{n-1}, residual)`` for n = N..2.

    ``X_N = x``, and the lower level ``X_{n-1}`` is ``Tr_{2n-3} Tr_{2n-2} X_n /
    d_{2n-3}``, one :func:`trace_last` over both factors, or, when given,
    ``lowers[n-2]``.  ``residual()`` forms ``Tr_{2n-2} X_n - X_{n-1} ⊗
    I_{2n-3}`` only when called, so a walk for the lowers alone forms none.
    ``x`` may repeat a position (the entries of a sum); each level below is
    built from the entries of the one above, so no step forms a matrix.
    """
    for n in range((len(dims) + 1) // 2, 1, -1):
        top, odd = dims[2 * n - 2], dims[2 * n - 3]
        if lowers is None:
            lower = trace_last(x, top * odd)
            lower = lower._replace(values=lower.values * (1.0 / odd))
        else:
            lower = lowers[n - 2]
        yield lower, partial(_level_residual, x, top, lower, odd)
        x = lower


# -- vectorization ---------------------------------------------------------


def double_ket(m) -> np.ndarray:
    """Row-major vectorization |M>> = sum_mn M_mn |m>|n| as a 1-d array."""
    return _as_complex_matrix(m).reshape(-1)


def undouble_ket(v, rows: int, cols: int) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != rows * cols:
        raise ValueError(f"vector of length {v.size} is not {rows}x{cols}")
    return v.reshape(rows, cols)


# -- spectral helpers -------------------------------------------------------


def hermitian_part(m) -> np.ndarray:
    return _hermitian(_as_complex_matrix(m))


def _as_square_matrix(h) -> np.ndarray:
    h = _as_complex_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix")
    return h


def edge_groups(rows: np.ndarray, cols: np.ndarray, n: int) -> list[np.ndarray]:
    """Exact connected components of the nonzero pattern of the ``n``-side
    matrix whose nonzero entries sit at ``(rows, cols)``, each position
    listed at most once.

    Indices ``i`` and ``j`` are joined when ``(i, j)`` or ``(j, i)`` is
    listed, with no tolerance, so the matrix ``h`` vanishes exactly off the
    diagonal blocks ``h[g, g]``.  Returns one ``(count, size)`` index array
    per block size, sizes ascending; each row lists a component's indices in
    ascending order, and the rows of a size are ordered by their first
    index, so a matrix with one component gives ``[arange(n)[None]]``.

    A row with ``n`` entries joins every index, which the row degrees show
    before any round.  Otherwise every index starts as its own root
    (:func:`_roots`), and each component ends labelled by its smallest index.
    """
    if n == 0:
        return []
    if (np.bincount(rows, minlength=n) == n).any():
        return [np.arange(n)[None]]
    labels = _roots(rows, cols, n)
    sizes = np.bincount(labels, minlength=n)[labels]
    order = np.lexsort((labels, sizes))
    sizes = sizes[order]
    cuts = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), n]
    return [order[a:b].reshape(-1, sizes[a]) for a, b in zip(cuts, cuts[1:])]


def _roots(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """The smallest index of each index's component, by union rounds on the
    edge list.  Each round keeps the edges that join two trees, hooks every
    root to the smallest root across them, jumps labels to their roots and
    moves the edges onto the roots, until no edge joins two trees.  Roots
    only ever hook to smaller ones, and the work per round is the edges,
    not the matrix."""
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    labels = np.arange(n)
    while True:
        cross = lo != hi
        if not cross.any():
            return labels
        lo, hi = lo[cross], hi[cross]
        np.minimum.at(labels, hi, lo)
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]
        lo, hi = labels[lo], labels[hi]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)


def _dagger(b: np.ndarray) -> np.ndarray:
    return b.conj().swapaxes(-1, -2)


def _hermitian(b: np.ndarray) -> np.ndarray:
    """``(b + b^dagger) / 2`` per matrix of a stack, without a scan, summed
    and halved in place in one buffer (the same bits as the plain sum)."""
    h = np.conjugate(np.swapaxes(b, -1, -2), out=np.empty_like(b, order="C"))
    h += b
    h /= 2
    return h


class Blocks:
    """A partition of the indices ``0..side-1`` into blocks, and the packed
    layout of the matrices that vanish off its diagonal blocks.

    ``groups`` holds one ``(count, size)`` index array per block size, as
    :func:`edge_groups` returns them.  Such a matrix ``x`` is *packed* as
    the flat vector of its block entries ``x[g[:, :, None], g[:, None, :]]``,
    group after group.  Packing keeps Frobenius norms, sums and scalar
    multiples, so a solver can step on packed vectors as on matrices.  A
    partition of one block (``whole``) packs a matrix as its row-major
    entries, locates by that arithmetic, and its arithmetic is the dense one.
    """

    def __init__(self, groups, side: int):
        self.groups = tuple(groups)
        self.side = int(side)
        self.whole = len(self.groups) == 1 and self.groups[0].shape[1] == self.side
        self._spans, start = [], 0
        for g in self.groups:
            count, size = g.shape
            self._spans.append((start, start + count * size * size, (count, size, size)))
            start += count * size * size
        self.size = start

    @classmethod
    def one(cls, side: int) -> "Blocks":
        return cls([np.arange(side)[None]], side)

    @classmethod
    def of(cls, h: np.ndarray) -> "Blocks":
        """The components of the nonzero pattern of ``h``, read as its edge
        list (:func:`edge_groups`), one edge per nonzero entry.  A row
        without zero entries joins every index, so such a matrix skips the
        labelling: row 0 is read first, then the row degrees of the pattern,
        before any edge is listed."""
        n = h.shape[0]
        if np.count_nonzero(h[:1]) == n or (pattern := h != 0).all(axis=1).any():
            return cls.one(n)
        return cls(edge_groups(*pattern.nonzero(), n), n)

    def permuted(self, index: np.ndarray) -> "Blocks":
        """The partition of ``x[index][:, index]`` for a matrix ``x`` on this
        one, in :func:`edge_groups`' order: each block's new indices
        ascending, and the blocks of a size by their first index."""
        if self.whole:
            return self
        where = np.empty_like(index)
        where[index] = np.arange(index.size)
        groups = []
        for g in self.groups:
            rows = np.sort(where[g], axis=1)
            groups.append(rows[np.argsort(rows[:, 0])])
        return Blocks(groups, self.side)

    @property
    def flat(self) -> np.ndarray:
        """The position ``row * side + col``, in the full matrix, of each packed
        entry: ``arange(side ** 2)`` for a whole partition, else listed once."""
        return np.arange(self.side ** 2) if self.whole else self._flat

    @cached_property
    def _flat(self) -> np.ndarray:
        return self.join([g[:, :, None] * self.side + g[:, None, :] for g in self.groups])

    @property
    def index(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column, in the full matrix, of each packed entry."""
        return np.divmod(self.flat, self.side)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """Packed positions of the diagonal entries, in ascending index order."""
        i = np.arange(self.side)
        return self.locate(i, i)[0]

    @cached_property
    def _place(self) -> tuple[np.ndarray, ...]:
        """Per index: the packed position of its block's first entry, which
        names the block, its block's size and its place in the block."""
        start, size, place = (np.empty(self.side, dtype=np.intp) for _ in range(3))
        for g, (begin, _, (count, width, _)) in zip(self.groups, self._spans):
            start[g] = begin + width * width * np.arange(count)[:, None]
            size[g] = width
            place[g] = np.arange(width)
        return start, size, place

    def locate(self, rows, cols) -> tuple[np.ndarray, np.ndarray]:
        """Packed positions of the broadcast matrix positions ``(rows,
        cols)``, and whether each lies on a block; off the blocks the
        position is 0."""
        if self.whole:
            return rows * self.side + cols, np.ones(np.broadcast(rows, cols).shape, dtype=bool)
        start, size, place = self._place
        on = start[rows] == start[cols]
        return np.where(on, start[rows] + place[rows] * size[rows] + place[cols], 0), on

    def pattern(self) -> np.ndarray:
        """The entries a packed matrix can hold, as a boolean matrix."""
        return self.unpack(np.ones(self.size, dtype=bool))

    def pack(self, x: np.ndarray) -> np.ndarray:
        """The block entries, as complex numbers, of a matrix that vanishes
        off the blocks; a stack of them packs one after another."""
        x = np.asarray(x, dtype=complex)
        return x.reshape(-1) if self.whole else x[(..., *self.index)].reshape(-1)

    def unpack(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        if self.whole:
            return v.reshape(self.side, self.side)
        out = np.zeros((self.side, self.side), dtype=v.dtype)
        out[self.index] = v
        return out

    def stacks(self, v: np.ndarray) -> list[np.ndarray]:
        """Per block size, the ``(count, size, size)`` stack of blocks; views
        into ``v``."""
        v = np.asarray(v)
        return [v[start:stop].reshape(shape) for start, stop, shape in self._spans]

    @staticmethod
    def join(stacks) -> np.ndarray:
        """The packed vector of per-size stacks of blocks (or of their
        spectra)."""
        if len(stacks) == 1:
            return stacks[0].reshape(-1)
        return np.concatenate([b.reshape(-1) for b in stacks])

    def dagger(self, v: np.ndarray) -> np.ndarray:
        """``x^dagger`` in packed form."""
        return self.join([_dagger(b) for b in self.stacks(v)])

    def hermitian(self, v: np.ndarray) -> np.ndarray:
        """``(x + x^dagger) / 2`` in packed form, without a scan."""
        return (np.asarray(v) + self.dagger(v)) / 2

    def product(self, *vs) -> np.ndarray:
        """The product of the matrices packed as ``vs``, which vanish off these
        blocks, block by block: exact up to rounding, as it vanishes off them too."""
        return self.join([reduce(np.matmul, bs) for bs in zip(*map(self.stacks, vs))])

    def eigvalsh(self, v: np.ndarray) -> np.ndarray:
        """Ascending eigenvalues of the Hermitian matrix packed as ``v``, with
        :func:`eigh`'s check and no NaN/Inf scan.

        Check and solve run on the packed blocks, one stacked call per block
        size.  Both are exact reorderings: the matrix and its adjoint vanish
        off the blocks, so the packed Frobenius norms are those of the whole
        matrices, and the spectrum is the union of the blocks'.
        """
        v = _checked_hermitian(self, v)
        return np.sort(np.concatenate([np.linalg.eigvalsh(b).ravel() for b in self.stacks(v)]))

    def map(self, v: np.ndarray, f) -> np.ndarray:
        """``sum u f(w) u^dagger`` over the eigensystem of each Hermitian block.

        One stacked ``eigh`` per block size above 1; size 1 is read as LAPACK
        solves it, ``w = Re a`` and ``u = 1``.  ``f`` maps the concatenated
        spectrum of all blocks at once, so it may use global quantities of it.
        """
        systems = [(b.real.reshape(-1, 1), None) if b.shape[-1] == 1 else np.linalg.eigh(b)
                   for b in self.stacks(v)]
        fw = f(self.join([w for w, _ in systems]))
        out, start = [], 0
        for w, u in systems:
            part = fw[start:start + w.size].reshape(w.shape)
            start += w.size
            out.append(part + 0j if u is None else  # u conjugated in place once scaled
                       (u * part[:, None, :]) @ np.conj(u, out=u).swapaxes(-1, -2))
        return self.join(out)


def _lifted(ops, order, roots: np.ndarray, free: Blocks) -> tuple[Blocks, list, np.ndarray]:
    """The joint partition (:func:`edge_groups`) of operators on one set of spaces,
    read in ``order`` (free first, fixed last) by :func:`regroup_index`, and of
    ``root ⊗ I_fixed`` for a root on the free spaces packed on ``free``; and the
    packed entries on it of each operator and of the lift, so products and spectral
    maps run block by block.  ``k`` stacked roots tile it ``k`` times.  A whole operand
    makes it whole per root, with no sort or labelling: a whole operand's entries
    are read in order as they stand, and the lift is :func:`kron_eye`."""
    if len({frozenset(zip(op.labels, op.dims)) for op in ops}) > 1:
        raise ValueError("operators act on different spaces")
    n, roots = ops[0].side, np.reshape(roots, (-1, free.size))
    k, out = len(roots), n // free.side
    index = [regroup_index(op.dims, [op.labels.index(l) for l in order]) for op in ops]
    if any(op.blocks.whole for op in ops):
        entries = [np.broadcast_to(op.permuted(order).matrix if op.blocks.whole  # tiled k times
                                   else op.at(i[:, None], i), (k, n, n)).reshape(-1)
                   for op, i in zip(ops, index)]
        lift = kron_eye(np.stack([free.unpack(r) for r in roots]), out)
        return Blocks([np.arange(k * n).reshape(k, n)], k * n), entries, lift.reshape(-1)
    flat = [lift_last(free.flat, free.side, out)]
    flat += [op.blocks.permuted(i).flat for op, i in zip(ops, index)]
    flat = np.sort(np.concatenate(flat))  # each position once; faster than np.unique
    groups = edge_groups(*np.divmod(flat[np.diff(flat, prepend=-1) != 0], n), n)
    blocks = Blocks([np.concatenate([g + n * e for e in range(k)]) for g in groups], k * n)
    (e, r), (_, c) = (np.divmod(i, n) for i in blocks.index)
    where, on = free.locate(r // out, c // out)
    lift = np.where(on & (r % out == c % out), roots[e, where], 0)
    return blocks, [op.at(i[r], i[c]) for op, i in zip(ops, index)], lift


def _checked_hermitian(blocks: Blocks, v: np.ndarray) -> np.ndarray:
    """Hermitian part of the packed ``v``; raises if ``v`` fails the
    Hermiticity tolerance relative to its Frobenius norm."""
    v = np.asarray(v)
    d = blocks.dagger(v)
    if np.linalg.norm(v - d) > HERMITICITY_RTOL * max(np.linalg.norm(v), 1.0):
        raise ValueError("matrix is not Hermitian to tolerance")
    return (v + d) / 2


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ascending eigenvalues and the unitary of eigenvectors (columns).
    Raises if the input fails the Hermiticity tolerance relative to its
    Frobenius norm.
    """
    h = _as_square_matrix(h)
    whole = Blocks.one(h.shape[0])
    return np.linalg.eigh(whole.unpack(_checked_hermitian(whole, whole.pack(h))))


def eigvalsh(h) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, with :func:`eigh`'s check:
    :meth:`Blocks.eigvalsh` on its partition (:meth:`Blocks.of`), after the
    NaN/Inf scan."""
    h = _as_square_matrix(h)
    blocks = Blocks.of(h)
    return blocks.eigvalsh(blocks.pack(h))


def trace_norm(x) -> float:
    """Sum of singular values."""
    x = _as_complex_matrix(x)
    if x.shape[0] != x.shape[1]:
        raise ValueError("trace_norm expects a square matrix")
    return float(np.linalg.svd(x, compute_uv=False).sum())


def spectral_map(h: np.ndarray, f) -> np.ndarray:
    """``sum v f(w) v^dagger`` over the eigensystem of a Hermitian matrix.

    Labels ``h`` once (:meth:`Blocks.of`); its packed blocks pass
    :func:`eigh`'s Hermiticity check, and :meth:`Blocks.map` maps their
    Hermitian parts.  Exact up to rounding, since ``h`` vanishes off its
    diagonal blocks, and a matrix with one component is mapped as it stands.
    """
    blocks = Blocks.of(h)
    return blocks.unpack(blocks.map(_checked_hermitian(blocks, blocks.pack(h)), f))


def require_psd_spectrum(w: np.ndarray, what: str) -> None:
    """Raise unless the spectrum ``w`` of a Hermitian operator is positive
    to tolerance: no eigenvalue below ``PSD_FAIL * max(1, max |w|)``."""
    lowest = float(w.min(initial=0.0))
    if lowest < PSD_FAIL * max(1.0, float(np.abs(w).max(initial=0.0))):
        raise ValueError(f"{what} is not positive semidefinite: "
                         f"eigenvalue {lowest:.3e} is significantly negative")


def _clipped(what: str, f, w: np.ndarray) -> np.ndarray:
    """``f`` on the clipped spectrum ``w`` of a PSD matrix; raises if an
    eigenvalue is significantly negative on the global scale."""
    require_psd_spectrum(w, what)
    return f(np.maximum(w, 0.0))


_SQRT = partial(_clipped, "psd_sqrt argument", np.sqrt)
_INV_SQRT = partial(_clipped, "psd_inv_sqrt argument", lambda w: np.where(  # 0 on the kernel
    w > SUPPORT_CUTOFF, 1.0 / np.sqrt(np.where(w > 0, w, 1.0)), 0.0))


def root_entries(op: LabeledOperator, inverse: bool = False) -> np.ndarray:
    """The PSD square root of ``op``, or its inverse square root on the
    support, as packed entries on ``op.blocks``: :meth:`Blocks.map` on its
    entries after :func:`eigh`'s Hermiticity check, so no matrix is formed."""
    return op.blocks.map(_checked_hermitian(op.blocks, op.entries),
                         _INV_SQRT if inverse else _SQRT)


def psd_sqrt_matrix(h) -> np.ndarray:
    """PSD square root, on the blocks of ``h``."""
    return spectral_map(_as_square_matrix(h), _SQRT)


def psd_inv_sqrt_matrix(h) -> np.ndarray:
    """Inverse square root on the support; zero on the kernel."""
    return spectral_map(_as_square_matrix(h), _INV_SQRT)


def psd_sqrt(h: LabeledOperator) -> LabeledOperator:
    return LabeledOperator._nonzeros(*h.blocks.index, root_entries(h), h.labels, h.dims)


def psd_inv_sqrt(h: LabeledOperator) -> LabeledOperator:
    root = root_entries(h, inverse=True)
    return LabeledOperator._nonzeros(*h.blocks.index, root, h.labels, h.dims)


def allclose(a: LabeledOperator, b: LabeledOperator, atol: float = 1e-10) -> bool:
    """Compare two labeled operators after aligning factor order; operators
    on different spaces (labels, or a label's dimension) are never close."""
    if dict(zip(a.labels, a.dims)) != dict(zip(b.labels, b.dims)):
        return False
    return np.allclose(a.matrix, a.aligned(b), atol=atol, rtol=0.0)
