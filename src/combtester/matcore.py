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
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_RTOL = 1e-10
PSD_CLIP = -1e-10
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


@dataclass(frozen=True)
class LabeledOperator:
    """A square operator on a tensor product of labeled subsystems.

    ``labels[k]`` names the k-th tensor factor and ``dims[k]`` is its
    dimension; ``prod(dims)`` must equal the matrix side.  Instances are
    immutable (the stored array is marked read-only) and safe to share, and
    every one holds finite entries, so a kernel given an operator's matrix
    need not scan it again.  Each labels its matrix once, when first asked
    (:attr:`blocks`).
    """

    matrix: np.ndarray
    labels: tuple[int, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        self._own(_as_complex_matrix(self.matrix).copy(), self.labels, self.dims)

    @classmethod
    def _built(cls, m: np.ndarray, labels, dims, *, scan: bool = True) -> "LabeledOperator":
        """Wrap an array this package has just built, without a copy.

        ``scan=False`` skips the NaN/Inf scan; it is for rearrangements of an
        already-checked operator's entries only.
        """
        op = object.__new__(cls)
        op._own(_as_complex_matrix(m) if scan else m, labels, dims)
        return op

    def _own(self, m: np.ndarray, labels, dims) -> None:
        labels = tuple(int(l) for l in labels)
        dims = tuple(int(d) for d in dims)
        if len(labels) != len(dims):
            raise ValueError("labels and dims must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels must be distinct, got {labels}")
        if any(d < 1 for d in dims):
            raise ValueError(f"dimensions must be positive, got {dims}")
        side = int(np.prod(dims)) if dims else 1
        if m.shape != (side, side):
            raise ValueError(
                f"matrix side {m.shape} inconsistent with dims {dims} (product {side})"
            )
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)

    # -- basic queries ----------------------------------------------------

    @property
    def side(self) -> int:
        return self.matrix.shape[0]

    def dim_of(self, label: int) -> int:
        return self.dims[self.labels.index(label)]

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

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
        perm = [self.labels.index(l) for l in new_labels]
        return self._permuted_as(perm, new_labels, tuple(self.dims[p] for p in perm))

    def _permuted_as(self, perm, labels, dims) -> "LabeledOperator":
        """This operator with its factors in the order ``perm``, read on the
        factors ``labels``, ``dims`` of the same side.  Built without a scan;
        asked for its partition (:attr:`blocks`) while this operator lives,
        it permutes this one's rather than labelling anew.  The source is
        held weakly, so a permuted copy never keeps its source's memory."""
        k, side = len(self.dims), self.side
        t = self._tensor_view().transpose(perm + [p + k for p in perm])
        op = LabeledOperator._built(t.reshape(side, side), labels, dims, scan=False)
        object.__setattr__(op, "_source", (weakref.ref(self), regroup_index(self.dims, perm)))
        return op

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
        return self._like(t.reshape(self.side, self.side), scan=False)

    def conj(self) -> "LabeledOperator":
        return self._like(self.matrix.conj(), scan=False)

    def transpose(self) -> "LabeledOperator":
        return self._like(self.matrix.T, scan=False)

    @cached_property
    def blocks(self) -> "Blocks":
        """The block partition of the matrix (:meth:`Blocks.of`), found on
        first use; for a permuted copy, its live source's partition permuted
        (:meth:`Blocks.permuted`), labelling the source if it has not been."""
        source, index = self.__dict__.pop("_source", (lambda: None, None))
        source = source()
        return Blocks.of(self.matrix) if source is None else source.blocks.permuted(index)

    def __getstate__(self) -> dict:
        # a weak reference does not pickle; the copy labels itself when asked
        return {k: v for k, v in self.__dict__.items() if k != "_source"}

    def _like(self, m: np.ndarray, *, scan: bool = True) -> "LabeledOperator":
        """A freshly built ``m`` on this operator's factors (see :meth:`_built`)."""
        return LabeledOperator._built(m, self.labels, self.dims, scan=scan)

    def __mul__(self, scalar) -> "LabeledOperator":
        return self._like(self.matrix * scalar)

    __rmul__ = __mul__

    def aligned(self, other: "LabeledOperator") -> np.ndarray:
        """``other``'s matrix in this operator's factor order; raises unless
        the subsystem dimensions then match."""
        other = other.permuted(self.labels)
        if other.dims != self.dims:
            raise ValueError(f"operands need matching subsystem dimensions, got {other.dims}")
        return other.matrix

    def __add__(self, other: "LabeledOperator") -> "LabeledOperator":
        return self._like(self.matrix + self.aligned(other))

    def __sub__(self, other: "LabeledOperator") -> "LabeledOperator":
        return self._like(self.matrix - self.aligned(other))

    def __matmul__(self, other: "LabeledOperator") -> "LabeledOperator":
        return self._like(self.matrix @ self.aligned(other))


def regroup_index(dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """The index map of a factor reordering: an operator on ``dims`` with its
    factors in the order ``perm`` has entry ``[i, j]`` at ``[index[i],
    index[j]]`` of the operator in its own order."""
    return np.arange(int(np.prod(dims))).reshape(tuple(dims)).transpose(perm).reshape(-1)


def identity(labels: Sequence[int], dims: Sequence[int]) -> LabeledOperator:
    side = int(np.prod(dims)) if len(dims) else 1
    return LabeledOperator._built(np.eye(side, dtype=complex), labels, dims, scan=False)


def tensor(a: LabeledOperator, b: LabeledOperator) -> LabeledOperator:
    """Kronecker product with concatenated labels.  Label sets must be disjoint."""
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise ValueError(f"overlapping labels {sorted(overlap)} in tensor product")
    return LabeledOperator._built(
        np.kron(a.matrix, b.matrix), a.labels + b.labels, a.dims + b.dims
    )


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
    t = a._tensor_view()
    labels = list(a.labels)
    dims = list(a.dims)
    for l in sorted(over, key=labels.index, reverse=True):
        i = labels.index(l)
        t = np.trace(t, axis1=i, axis2=i + len(labels))
        labels.pop(i)
        dims.pop(i)
    side = int(np.prod(dims)) if dims else 1
    return LabeledOperator._built(t.reshape(side, side), labels, dims)


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
    return LabeledOperator._built(out.reshape(da * db, da * db), labels, dims)


def tail_diagonal(x: np.ndarray, tail: int) -> np.ndarray:
    """Diagonal of ``x`` on its last ``tail``-dimensional tensor factor.

    Entry ``[a, b, i]`` is ``x[a*tail + i, b*tail + i]``.  The result is a
    view, so it is writable when ``x`` is a contiguous array; summing it over
    its last axis is the partial trace over that factor.
    """
    head = x.shape[0] // tail
    return np.einsum("aibi->abi", x.reshape(head, tail, head, tail))


def _lift_residual(traced: np.ndarray, lower: np.ndarray, odd: int, *,
                   owned: bool = False) -> np.ndarray:
    """``traced - lower ⊗ I_odd``, formed in ``traced`` itself when the
    caller owns it and in a copy otherwise."""
    out = traced if owned else traced.copy()
    tail_diagonal(out, odd)[...] -= lower[:, :, None]
    return out


def chain_levels(x: np.ndarray, dims: Sequence[int], lowers=None):
    """Walk the normalization chain of ``x`` on spaces ``dims`` (odd length
    2N-1, ascending) top down, yielding ``(X_{n-1}, residual)`` for n = N..2.

    ``X_N = x``, and the lower level ``X_{n-1}`` is ``Tr_{2n-3} Tr_{2n-2} X_n /
    d_{2n-3}`` or, when given, ``lowers[n-2]``.  ``residual()`` forms
    ``Tr_{2n-2} X_n - X_{n-1} ⊗ I_{2n-3}`` only when called, so a walk for the
    lowers alone never copies a full-side top level.
    """
    for n in range((len(dims) + 1) // 2, 1, -1):
        top, odd = dims[2 * n - 2], dims[2 * n - 3]
        # tracing a one-dimensional space is the identity map
        traced = x if top == 1 else tail_diagonal(x, top).sum(axis=2)
        if lowers is None:
            lower = tail_diagonal(traced, odd).sum(axis=2) * (1.0 / odd)
        else:
            lower = lowers[n - 2]
        yield lower, partial(_lift_residual, traced, lower, odd)
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


def block_groups(h: np.ndarray) -> list[np.ndarray]:
    """Exact connected components of the nonzero pattern of a square matrix.

    Indices ``i`` and ``j`` are joined when ``h[i, j] != 0`` or
    ``h[j, i] != 0``, with no tolerance, so ``h`` vanishes exactly off the
    diagonal blocks ``h[g, g]``.  Returns one ``(count, size)`` index array
    per block size, sizes ascending; each row lists a component's indices in
    ascending order, and the rows of a size are ordered by their first
    index, so a matrix with one component gives ``[arange(n)[None]]``.

    The pattern is read as its edge list, one edge per nonzero entry.  Every
    index starts as its own root.  Each round keeps the edges that join two
    trees, hooks every root to the smallest root across them, jumps labels
    to their roots and moves the edges onto the roots, until no edge joins
    two trees.  Roots only ever hook to smaller ones, so each component
    ends labelled by its smallest index, and after the one pass that finds
    the edges the work per round is the edges, not the matrix.
    """
    n = h.shape[0]
    if n == 0:
        return []
    flat = (h.reshape(-1) != 0).nonzero()[0]
    rows = flat // n
    cols = flat - rows * n
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    labels = np.arange(n)
    while True:
        cross = lo != hi
        if not cross.any():
            break
        lo, hi = lo[cross], hi[cross]
        np.minimum.at(labels, hi, lo)
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]
        lo, hi = labels[lo], labels[hi]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    sizes = np.bincount(labels, minlength=n)[labels]
    order = np.lexsort((labels, sizes))
    cuts = np.flatnonzero(np.diff(sizes[order])) + 1
    return [g.reshape(-1, sizes[g[0]]) for g in np.split(order, cuts)]


def _dagger(b: np.ndarray) -> np.ndarray:
    return b.conj().swapaxes(-1, -2)


def _hermitian(b: np.ndarray) -> np.ndarray:
    """``(b + b^dagger) / 2`` per matrix of a stack, without a scan."""
    return (b + _dagger(b)) / 2


class Blocks:
    """A partition of the indices ``0..side-1`` into blocks, and the packed
    layout of the matrices that vanish off its diagonal blocks.

    ``groups`` holds one ``(count, size)`` index array per block size, as
    :func:`block_groups` returns them.  Such a matrix ``x`` is *packed* as
    the flat vector of its block entries ``x[g[:, :, None], g[:, None, :]]``,
    group after group.  Packing keeps Frobenius norms, sums and scalar
    multiples, so a solver can step on packed vectors as on matrices.  A
    partition of one block (``whole``) packs a matrix as its row-major
    entries, and its blockwise arithmetic is the dense arithmetic.
    """

    def __init__(self, groups, side: int):
        self.groups = tuple(groups)
        self.side = int(side)
        self.whole = len(self.groups) == 1 and self.groups[0].shape[1] == self.side
        self._spans = []
        start = 0
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
        """The components of the nonzero pattern of ``h`` (:func:`block_groups`).
        A row 0 without zero entries joins every index, so such a matrix
        skips the labelling."""
        n = h.shape[0]
        if np.count_nonzero(h[:1]) == n:
            return cls.one(n)
        return cls(block_groups(h), n)

    def permuted(self, index: np.ndarray) -> "Blocks":
        """The partition of ``x[index][:, index]`` for a matrix ``x`` on this
        one, in :func:`block_groups`' order: each block's new indices
        ascending, and the blocks of a size by their first index."""
        where = np.empty_like(index)
        where[index] = np.arange(index.size)
        groups = []
        for g in self.groups:
            rows = np.sort(where[g], axis=1)
            groups.append(rows[np.argsort(rows[:, 0])])
        return Blocks(groups, self.side)

    def _entries(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per block size, the index of the stacked blocks in a full matrix."""
        return [(g[:, :, None], g[:, None, :]) for g in self.groups]

    @cached_property
    def index(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column, in the full matrix, of each packed entry."""
        rows, cols = [], []
        for (r, c), (_, _, shape) in zip(self._entries(), self._spans):
            rows.append(np.broadcast_to(r, shape))
            cols.append(np.broadcast_to(c, shape))
        return self.join(rows), self.join(cols)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """Packed positions of the diagonal entries, in ascending index order."""
        rows, cols = self.index
        on = np.flatnonzero(rows == cols)
        return on[np.argsort(rows[on])]

    def pattern(self) -> np.ndarray:
        """The entries a packed matrix can hold, as a boolean matrix."""
        out = np.zeros((self.side, self.side), dtype=bool)
        for entries in self._entries():
            out[entries] = True
        return out

    def pack(self, x: np.ndarray) -> np.ndarray:
        """The block entries, as complex numbers, of a matrix that vanishes
        off the blocks."""
        x = np.asarray(x, dtype=complex)
        if self.whole:
            return x.reshape(-1)
        return self.join([x[entries] for entries in self._entries()])

    def packed(self, x) -> np.ndarray:
        """``x`` as a packed vector: a 1-d ``x`` as it stands, a matrix
        packed here after the NaN/Inf scan of a public entry."""
        return x if np.ndim(x) == 1 else self.pack(_as_complex_matrix(x))

    def like(self, v: np.ndarray, x) -> np.ndarray:
        """The packed ``v`` in the form of ``x``, as :meth:`packed` read it:
        packed for a 1-d ``x``, unpacked to a matrix otherwise."""
        return v if np.ndim(x) == 1 else self.unpack(v)

    def unpack(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        if self.whole:
            return v.reshape(self.side, self.side)
        out = np.zeros((self.side, self.side), dtype=v.dtype)
        for entries, b in zip(self._entries(), self.stacks(v)):
            out[entries] = b
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

    def square(self, v: np.ndarray) -> np.ndarray:
        """``h @ h`` in packed form for the packed ``v`` of an ``h`` that
        vanishes off these blocks, multiplied block by block.  Exact up to
        rounding: the square vanishes off the blocks too, and each block of
        it is the block's square."""
        return self.join([b @ b for b in self.stacks(v)])

    def eigvalsh(self, h: np.ndarray) -> np.ndarray:
        """Ascending eigenvalues of a Hermitian ``h`` that vanishes off these
        blocks, with :func:`eigh`'s check and no NaN/Inf scan.

        Check and solve run on the packed blocks, one stacked call per block
        size.  Both are exact reorderings: ``h`` and ``h^dagger`` vanish off
        the blocks, so the packed Frobenius norms are those of the whole
        matrices, and the spectrum is the union of the blocks'.
        """
        v = _checked_hermitian(self, self.pack(h))
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
            out.append(part + 0j if u is None else (u * part[:, None, :]) @ _dagger(u))
        return self.join(out)


def lift_product(l: np.ndarray, m: np.ndarray, blocks: Blocks | None = None) -> np.ndarray:
    """``(l ⊗ I_top) @ m`` on the blocks of ``l`` (:meth:`Blocks.of`, unless
    given), stacked per block size: a block of size 1 scales its rows of ``m``
    and one block is one GEMM; exact up to rounding, since ``l`` vanishes off its blocks."""
    blocks = blocks or Blocks.of(l)
    if blocks.groups[0].shape == (blocks.side, 1):  # diagonal: scale m in its memory order
        return np.repeat(l.diagonal(), m.shape[0] // blocks.side)[:, None] * m
    rows = m.reshape(blocks.side, -1)
    if blocks.whole:
        return (l @ rows).reshape(m.shape)
    out = np.empty(rows.shape, dtype=complex)
    for g in blocks.groups:
        if g.shape[1] == 1:
            out[g[:, 0]] = l[g, g] * rows[g[:, 0]]
        else:
            out[g] = l[g[:, :, None], g[:, None, :]] @ rows[g]
    return out.reshape(m.shape)


def lift_sandwich(l: np.ndarray, m: np.ndarray, blocks: Blocks | None = None) -> np.ndarray:
    """``(l ⊗ I_top) m (l ⊗ I_top)``: :func:`lift_product` from the left,
    then on the transposes from the right, on one labelling of ``l``
    (:meth:`Blocks.of`, unless given)."""
    blocks = blocks or Blocks.of(l)
    return lift_product(l.T, lift_product(l, m, blocks).T, blocks).T


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
    return Blocks.of(h).eigvalsh(h)


def trace_norm(x) -> float:
    """Sum of singular values."""
    x = _as_complex_matrix(x)
    if x.shape[0] != x.shape[1]:
        raise ValueError("trace_norm expects a square matrix")
    return float(np.linalg.svd(x, compute_uv=False).sum())


def spectral_map(h: np.ndarray, f, *, checked: bool = False,
                 blocks: Blocks | None = None) -> np.ndarray:
    """``sum v f(w) v^dagger`` over the eigensystem of a Hermitian matrix.

    Labels ``h`` once (:meth:`Blocks.of`, unless given a partition off whose
    blocks ``h`` vanishes) and maps its packed blocks with
    :meth:`Blocks.map`.  Exact up to rounding, since ``h`` vanishes off its
    diagonal blocks, and a matrix with one component is mapped as it stands.
    With ``checked`` the blocks first pass :func:`eigh`'s Hermiticity check,
    and their Hermitian parts are mapped.
    """
    blocks = blocks or Blocks.of(h)
    v = blocks.pack(h)
    if checked:
        v = _checked_hermitian(blocks, v)
    return blocks.unpack(blocks.map(v, f))


def require_psd_spectrum(w: np.ndarray, what: str) -> None:
    """Raise unless the spectrum ``w`` of a Hermitian operator is positive
    to tolerance: no eigenvalue below ``PSD_FAIL * max(1, max |w|)``."""
    lowest = float(w.min(initial=0.0))
    if lowest < PSD_FAIL * max(1.0, float(np.abs(w).max(initial=0.0))):
        raise ValueError(f"{what} is not positive semidefinite: "
                         f"eigenvalue {lowest:.3e} is significantly negative")


def _psd_map(h, what: str, f, blocks: Blocks | None = None) -> np.ndarray:
    """:func:`spectral_map` of ``f`` on the clipped spectrum of a PSD ``h``;
    raises if an eigenvalue is significantly negative on the global scale."""
    def clipped(w):
        require_psd_spectrum(w, what)
        return f(np.maximum(w, 0.0))

    return spectral_map(_as_square_matrix(h), clipped, checked=True, blocks=blocks)


def psd_sqrt_matrix(h, blocks: Blocks | None = None) -> np.ndarray:
    """PSD square root, on the blocks of ``h`` or of the given partition."""
    return _psd_map(h, "psd_sqrt argument", np.sqrt, blocks)


def psd_inv_sqrt_matrix(h) -> np.ndarray:
    """Inverse square root on the support; zero on the kernel."""
    return _psd_map(h, "psd_inv_sqrt argument", lambda w: np.where(
        w > SUPPORT_CUTOFF, 1.0 / np.sqrt(np.where(w > 0, w, 1.0)), 0.0))


def psd_sqrt(h: LabeledOperator) -> LabeledOperator:
    return h._like(psd_sqrt_matrix(h.matrix))


def psd_inv_sqrt(h: LabeledOperator) -> LabeledOperator:
    return h._like(psd_inv_sqrt_matrix(h.matrix))


def allclose(a: LabeledOperator, b: LabeledOperator, atol: float = 1e-10) -> bool:
    """Compare two labeled operators after aligning factor order."""
    if set(a.labels) != set(b.labels):
        return False
    return np.allclose(a.matrix, b.permuted(a.labels).matrix, atol=atol, rtol=0.0)
