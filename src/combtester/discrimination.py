"""Perfect-discrimination decisions for channels and memory channels.

Two N-use combs with Choi operators ``C0, C1`` are perfectly discriminable
by a causal scheme iff some tester normalization ``Xi`` (an element of
:class:`optim.XiChainSet` on all spaces but the last output) satisfies
``C0 (I ⊗ Xi) C1 = 0``.  A parallel scheme feeds one joint state into all
inputs: it is the one-use tester of the comb read as one channel
(:meth:`MemoryChannel.as_single_use`), normalized by a density matrix on
the grouped inputs.  So both criteria are one feasibility problem over one
set read at two groupings, and one private driver decides both; the
objective reads a grouping of the combs through its index map, not through
a regrouped copy.  It
minimizes the squared Frobenius norm of the product over the set with
projected gradient descent, from the uniform point first and then from
random points, each drawn only when the starts before it stayed above zero.
The objective is a convex quadratic, so the minimum found is global and a
small value is a constructive feasibility certificate.  Infeasibility is
only certified empirically, by the converged minimum staying large across
restarts.

Each start runs on the finest block partition that it, the gradient map and
the set's affine step keep (:func:`optim.invariant_blocks`), found once per
start, and the objective and the set are bound to it once
(:meth:`_ProductObjective.on`, :meth:`optim.XiChainSet.on`).  The iterate
is the packed vector of its block entries: gradient, projections and steps
work on the blocks alone, and the witness is scattered to a full matrix
once.  On the counterexample every partition is diagonal, so a causal step
at d = 3 works on 81 entries rather than 6561; a dense random start is one
block, with the dense arithmetic.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import matcore
from .channels import Channel, MemoryChannel
from .matcore import Blocks, LabeledOperator
from .optim import XiChainSet, invariant_blocks, projected_gradient_min, require_restarts
from .sampling import rng_from
from .testers import Tester, born_probabilities, tester_from_elements

FEASIBLE_TOL = 1e-8
INFEASIBLE_TOL = 1e-4


@dataclass(frozen=True)
class FeasibilityReport:
    """A decision; ``restarts`` counts the starts that ran.  Its JSON report
    leaves out ``witness`` and ``objective_history``."""

    feasible: bool
    status: str
    residual: float
    witness: LabeledOperator | None = field(metadata={"json": False})
    iterations: int
    restarts: int
    objective_history: list = field(default_factory=list, metadata={"json": False})


def _pair_slices(c: LabeledOperator, order, df: int):
    """The square ``Q = C^2``, with the factors of ``C`` read in ``order``
    and the last ``df`` of them fixed, by its slices ``Q[:, o, :, b]`` over
    the fixed pairs: a ``(df, df)`` flag of the nonzero slices, and a
    function stacking the slices of the pairs ``(o, b)`` as ``[k, e, f]``.

    The square is taken block by block in packed form on ``C``'s partition
    read in that order (:meth:`matcore.Blocks.permuted`).  One block packs
    as the regrouped matrix itself, whose square the slices view.  Smaller
    blocks are gathered from ``C``'s matrix through the regrouping's index
    map and the slices are scattered from the square's nonzero entries, so
    no regrouped or squared full-side matrix is made."""
    index = matcore.regroup_index(c.dims, [c.labels.index(l) for l in order])
    blocks = c.blocks.permuted(index)
    de = c.side // df
    if blocks.whole:
        q = blocks.square(blocks.pack(c.permuted(order).matrix)).reshape(de, df, de, df)
        return q.any(axis=(0, 2)), lambda o, b: q[:, o, :, b]
    rows, cols = blocks.index
    square = blocks.square(c.matrix[index[rows], index[cols]])
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


class _ProductObjective:
    """f(x) = ||C0 (I_fixed ⊗ x) C1||_F^2 as two matrix products per call.

    ``fixed`` are the labels carrying the identity; ``free`` the labels of
    the optimization variable.  The factors are read free first and fixed
    last.  With ``Q = C0^2`` and ``R = C1^2`` (both Choi operators are
    Hermitian) the objective is ``Tr[x half(x)]`` with
    ``half[e,h] = sum_{o,b,f,g} Q[e,o,f,b] x[f,g] R[g,b,h,o]``.  The sum over
    the fixed pair ``(o,b)`` is the product ``M = Qm Rm`` of the reshapes
    ``Qm[(e,f),(o,b)]`` and ``Rm[(o,b),(g,h)]``.  Only the fixed pairs with
    both a nonzero ``Qm`` column and a nonzero ``Rm`` row are kept; the
    others add exact zeros to ``M``.  The squares are taken block by block
    in packed form on the combs' partitions read in that order, and the
    kept pairs and their columns and rows are read from them
    (:func:`_pair_slices`).  Each call contracts a rank-``k`` factor pair
    ``M = A B`` in two GEMMs, with ``k = min(kept pairs, de^2)``:

    * at most ``de^2`` kept pairs: ``A`` and ``B`` are the kept columns of
      ``Qm`` and rows of ``Rm``;
    * more: ``M`` is folded once here, and ``A = I``, ``B = M``.

    The counterexample at dimension ``d`` keeps 1 of its ``d^2`` causal
    pairs and ``d^2`` of its ``d^6`` parallel ones; a dense comb keeps all.
    On a block partition (one block, unless the objective was bound to
    another with :meth:`on`) the products are batched per block size, and
    ``reach`` gives the pattern the gradient can reach.
    """

    def __init__(self, c0: LabeledOperator, c1: LabeledOperator, fixed_labels):
        spaces = dict(zip(c0.labels, c0.dims))
        if dict(zip(c1.labels, c1.dims)) != spaces:
            raise ValueError("Choi operators act on different spaces")
        fixed = [l for l in c0.labels if l in set(fixed_labels)]
        free = [l for l in c0.labels if l not in set(fixed_labels)]
        self.free_labels = tuple(free)
        self.free_dims = tuple(spaces[l] for l in free)
        df = int(np.prod([spaces[l] for l in fixed])) if fixed else 1
        de = int(np.prod(self.free_dims)) if free else 1
        self.df, self.de = df, de
        q_nonzero, q_stack = _pair_slices(c0, free + fixed, df)
        r_nonzero, r_stack = _pair_slices(c1, free + fixed, df)
        # the pair (o, b) is kept where Q[:, o, :, b] and R[:, b, :, o] have a nonzero
        ko, kb = np.nonzero(q_nonzero & r_nonzero.T)
        qk, rk = q_stack(ko, kb), r_stack(kb, ko)  # [k, e, f] and [k, g, h]
        k = ko.size
        if k > de * de:
            qm = np.ascontiguousarray(qk.reshape(k, -1).T)
            rk = (qm @ rk.reshape(k, -1)).reshape(de * de, de, de)
            qk = np.eye(de * de, dtype=complex).reshape(de * de, de, de)
        # q_[e,(f,k)] = A[(e,f),k];  r_[g,(k,h)] = B[k,(g,h)]
        self.q_ = qk.transpose(1, 2, 0).reshape(de, -1)
        self.r_ = rk.transpose(1, 0, 2).reshape(de, -1)
        self._bind(Blocks.one(de))

    def on(self, blocks: Blocks) -> "_ProductObjective":
        """This objective, evaluated on ``blocks``: at packed vectors of
        that partition, or at matrices that vanish off it."""
        bound = copy.copy(self)
        bound._bind(blocks)
        return bound

    def _bind(self, blocks: Blocks) -> None:
        # per block size: the blocks' indices, as a stack and flat, and the
        # rows of q_ and of r_ of each block
        self.blocks = blocks
        self._parts = [(g, g.reshape(-1), self.q_[g], self.r_[g]) for g in blocks.groups]

    def reach(self, pattern: np.ndarray) -> np.ndarray:
        """Entries the gradient can make nonzero from the boolean nonzero
        pattern of ``x``: the two products of :meth:`value_and_grad` on 0/1
        matrices.  A zero there is a sum of products that each have a zero
        factor, so the same entry of the real products is exactly zero."""
        t = pattern.astype(float) @ (self.r_ != 0)
        half = ((self.q_ != 0) @ t.reshape(-1, self.de)) != 0
        return half | half.T

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """The value and the gradient, in the form of ``x``, at a packed
        vector or a matrix on the objective's partition.

        ``t = x r_`` is formed row block by row block; the gradient keeps the
        partition, so ``half = q_ t`` is formed on its blocks alone.
        """
        blocks = self.blocks
        parts = list(zip(self._parts, blocks.stacks(blocks.packed(x))))
        t = np.empty(self.r_.shape, dtype=complex)
        for (_, rows, _, r_g), xb in parts:
            t[rows] = (xb @ r_g).reshape(rows.size, -1)
        t = t.reshape(-1, self.de)
        # half = Tr_fixed[Q (I ⊗ x) R] on the blocks, stacked per block size
        f, halves = 0.0, []
        for (g, _, q_g, _), xb in parts:
            hb = q_g @ t[:, g].transpose(1, 0, 2)
            f += np.einsum("cij,cji->", xb, hb).real
            halves.append(hb)
        half = Blocks.join(halves)
        grad = half + blocks.dagger(half)
        return float(f), blocks.like(grad, x)

    def value(self, x: np.ndarray) -> float:
        return self.value_and_grad(x)[0]


def product_residual(c0: LabeledOperator, c1: LabeledOperator,
                     fixed_labels, x: LabeledOperator) -> float:
    """Direct ``||C0 ((x ⊗ I_fixed) C1)||_F^2`` (:func:`matcore.lift_product`
    on the partitions of ``x`` and ``C0``), to cross-check the fast
    objective; raises on any mismatch of spaces."""
    spaces, fixed = dict(zip(c0.labels, c0.dims)), set(fixed_labels)
    if not fixed <= spaces.keys():
        raise ValueError(f"fixed labels {sorted(fixed - spaces.keys())} are not on the combs")
    if dict(zip(c1.labels, c1.dims)) != spaces:
        raise ValueError(f"combs differ: dims {c0.dims} on {c0.labels}, {c1.dims} on {c1.labels}")
    free = {l: d for l, d in spaces.items() if l not in fixed}
    if dict(zip(x.labels, x.dims)) != free:
        raise ValueError(f"witness dims {x.dims} on {x.labels} are not the free spaces {free}")
    order = tuple(free) + tuple(l for l in c0.labels if l in fixed)
    x, c0 = x.permuted(tuple(free)), c0.permuted(order)
    y = matcore.lift_product(x.matrix, c1.permuted(order).matrix, x.blocks)
    return float(np.linalg.norm(matcore.lift_product(c0.matrix, y, c0.blocks)) ** 2)


def _classify(best: float) -> str:
    if best < FEASIBLE_TOL:
        return "feasible"
    if best > INFEASIBLE_TOL:
        return "infeasible"
    return "undetermined"


def _decide(obj: _ProductObjective, xi_set: XiChainSet, restarts: int, seed,
            max_iter: int) -> FeasibilityReport:
    """Minimize the objective over ``xi_set`` from each start, as a packed
    iterate on its invariant partition, until one reaches zero.  The witness
    carries the objective's free labels; ``restarts`` in the report counts
    the starts that ran."""
    require_restarts(restarts)
    rng = rng_from(seed)
    starts = chain([xi_set.uniform()],
                   (xi_set.random_feasible(rng) for _ in range(restarts - 1)))
    best, total_iter, ran = None, 0, 0
    for x0 in starts:
        blocks = invariant_blocks(x0, (obj.reach, xi_set.reach))
        res = projected_gradient_min(
            value_and_grad=obj.on(blocks).value_and_grad, project=xi_set.on(blocks).project,
            x0=blocks.pack(x0), max_iter=max_iter, stop_below=FEASIBLE_TOL * 1e-4,
        )
        ran += 1
        total_iter += res.iterations
        if best is None or res.value < best.value:
            best, best_blocks = res, blocks
        if best.value <= FEASIBLE_TOL * 1e-4:
            break
    status = _classify(best.value)
    return FeasibilityReport(
        feasible=status == "feasible", status=status, residual=best.value,
        witness=LabeledOperator(best_blocks.unpack(best.x), obj.free_labels, obj.free_dims),
        iterations=total_iter, restarts=ran, objective_history=best.history,
    )


def parallel_discriminable(c0: LabeledOperator, c1: LabeledOperator, *,
                           restarts: int = 20, seed: int = 0,
                           max_iter: int = 400) -> FeasibilityReport:
    """Decide the parallel criterion: the causal decision on the combs read as
    one channel each (:meth:`MemoryChannel.as_single_use`), over density
    matrices on the grouped inputs.  The objective reads the sorted combs
    with every output fixed, which is that grouping, through its index map;
    the witness is a joint state of the inputs and carries their labels."""
    a, b = (MemoryChannel(c, len(c.labels) // 2).choi for c in (c0, c1))
    obj = _ProductObjective(a, b, a.labels[1::2])
    return _decide(obj, XiChainSet((obj.de,)), restarts, seed, max_iter)


def causal_discriminable(c0: MemoryChannel, c1: MemoryChannel, *,
                         restarts: int = 20, seed: int = 0,
                         max_iter: int = 600) -> FeasibilityReport:
    """Decide the causal criterion by minimizing over tester normalizations."""
    obj = _ProductObjective(c0.choi, c1.choi, [2 * c0.uses - 1])
    return _decide(obj, XiChainSet(c0.dims[:-1]), restarts, seed, max_iter)


def kraus_orthogonality(ch0: Channel, ch1: Channel, rho: np.ndarray,
                        tol: float = 1e-9) -> tuple[bool, float]:
    """Check the cross-Gram orthogonality of two Kraus families against rho.

    True iff ``Tr[rho K0j† K1k] = 0`` for all j, k up to ``tol`` in modulus,
    which characterizes the states witnessing perfect parallel
    discriminability of the two channels.
    """
    if ch0.in_dim != ch1.in_dim or ch0.out_dim != ch1.out_dim:
        raise ValueError("channels must share input and output dimensions")
    rho = np.asarray(rho, dtype=complex)
    worst = 0.0
    for k0 in ch0.kraus:
        for k1 in ch1.kraus:
            worst = max(worst, abs(np.trace(rho @ k0.conj().T @ k1)))
    return worst <= tol, float(worst)


def _cross_gram(ch0: Channel, ch1: Channel) -> list[np.ndarray]:
    return [k0.conj().T @ k1 for k0 in ch0.kraus for k1 in ch1.kraus]


def _rank_constrained_search(grams, d: int, r: int, rng, restarts: int,
                             iters: int = 300) -> tuple[float, np.ndarray]:
    """Minimize max_l |Tr[rho G_l]| over rank-r states rho = AA†/Tr[AA†]."""
    best_val, best_rho = np.inf, None
    for _ in range(restarts):
        a = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
        a /= np.linalg.norm(a)
        step = 0.1
        rho = a @ a.conj().T
        val = sum(abs(np.trace(rho @ g)) ** 2 for g in grams)
        for _ in range(iters):
            rho = a @ a.conj().T
            grad = np.zeros_like(a)
            for g in grams:
                c = np.trace(rho @ g)
                grad += np.conj(c) * (g @ a) + c * (g.conj().T @ a)
            grad -= np.real(np.vdot(a, grad)) * a  # keep unit Frobenius norm
            cand = a - step * grad
            cand /= np.linalg.norm(cand)
            crho = cand @ cand.conj().T
            cval = sum(abs(np.trace(crho @ g)) ** 2 for g in grams)
            if cval < val:
                a, val = cand, cval
                step *= 1.2
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        rho = a @ a.conj().T
        worst = max(abs(np.trace(rho @ g)) for g in grams)
        if worst < best_val:
            best_val, best_rho = worst, rho
    return float(best_val), best_rho


def min_entanglement_rank(ch0: Channel, ch1: Channel, *, seed: int = 0,
                          restarts: int = 30, tol: float = 1e-9) -> int | None:
    """Smallest rank of a state satisfying the cross-Gram orthogonality.

    The rank of the witness state sets the amount of entanglement the
    discriminating input needs (rank 1: no entanglement).  Returns None when
    no state of any rank works.
    """
    if ch0.in_dim != ch1.in_dim or ch0.out_dim != ch1.out_dim:
        raise ValueError("channels must share input and output dimensions")
    grams = _cross_gram(ch0, ch1)
    d = ch0.in_dim
    rng = rng_from(seed)
    for r in range(1, d + 1):
        val, _ = _rank_constrained_search(grams, d, r, rng, restarts)
        if val <= tol:
            return r
    return None


def _positive_support(w: np.ndarray) -> np.ndarray:
    """Indicator of the eigenvalues above rounding on the spectrum's scale."""
    scale = max(1.0, float(np.abs(w).max()))
    return w > 1e-12 * scale


def synthesize_tester(c0: MemoryChannel, c1: MemoryChannel,
                      witness: LabeledOperator,
                      max_witness_residual: float = 1e-6) -> Tester:
    """Two-outcome tester discriminating the combs, built from a witness.

    Sandwiches the Choi difference with the square root of the witness
    normalization, lifts the projector onto the positive part of the result
    back as outcome 0 and gives outcome 1 the rest of ``Xi ⊗ I``, kernel
    included, sandwiching on the blocks of the root (:func:`matcore.lift_sandwich`).
    Refuses to certify when the witness residual is too large for the
    construction to be meaningful, or its spaces do not match the combs'.
    """
    res = product_residual(c0.choi, c1.choi, [2 * c0.uses - 1], witness)
    if res > max_witness_residual:
        raise ValueError(f"witness residual {res:.3e} exceeds {max_witness_residual:.1e}; "
                         "cannot certify perfect discrimination")
    witness = witness.sorted()
    xi, blocks = witness.matrix, witness.blocks  # the root vanishes off the blocks of xi
    root = matcore.psd_sqrt_matrix(xi, blocks)
    t = matcore.lift_sandwich(root, c0.choi.matrix - c1.choi.matrix, blocks)
    pos = matcore.spectral_map(t, _positive_support, checked=True)
    p0 = matcore.lift_sandwich(root, pos, blocks)
    p1 = -p0  # Xi ⊗ I_top - p0, adding xi on the top space's diagonal
    matcore.tail_diagonal(p1, c0.dims[-1])[...] += xi[:, :, None]
    return tester_from_elements([c0.choi._like(p) for p in (p0, p1)], c0.uses)


def delta_matrix(t: Tester, combs) -> np.ndarray:
    """Outcome-by-channel probability table Tr[P_i C_j]."""
    return np.column_stack([born_probabilities(t, mc) for mc in combs])
