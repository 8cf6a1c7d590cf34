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
a regrouped copy.  It minimizes the squared Frobenius norm of the product
over the set with projected gradient descent from one start, the uniform
point, for at most ``max_iter`` steps.  The objective is a convex quadratic
over a convex set, so the minimum found is global, no second start can find
a lower one, and a small value is a constructive feasibility certificate.
``restarts`` does not lengthen it: near the set's boundary each chain
projection needs ever more Dykstra steps, so a longer descent on a decision
that stays open costs far more than its step count.  A one-use problem (every
parallel decision) is proven infeasible by a distance bound below 2
(:func:`distances.one_use_upper`), taken at the uniform point before any
descent, with the residual there read off the combs' block squares, and at
the descent's end; without a proof or a zero it is ``undetermined``.  A
multi-use decision is certified infeasible only empirically, by its minimum
staying above ``INFEASIBLE_TOL`` from a converged descent; if it stopped at
its step budget it is ``undetermined``.  If the descent made a chain
projection that stopped at ``optim.DYKSTRA_CAP`` unconverged, its point may
lie off the set, so the decision is ``undetermined`` unless the one-use
bound proves infeasibility.
Synthesis runs on the block entries of the combs and the lifted witness.

The descent runs on the finest block partition that the start, the gradient
map and the set's affine step keep (:func:`optim.invariant_blocks`), found
once, and the objective and the set are bound to it once
(:meth:`_ProductObjective.on`, :meth:`optim.XiChainSet.on`).  The iterate
is the packed vector of its block entries: gradient, projections and steps
work on the blocks alone, and the witness is built from its nonzero entries
(:meth:`LabeledOperator._nonzeros`).  On the counterexample every partition
is diagonal, so a causal step at d = 3 works on 81 entries rather than
6561; dense combs give one block, with the dense arithmetic.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .channels import Channel, MemoryChannel
from .distances import one_use_upper
from .matcore import Blocks, LabeledOperator
from .optim import XiChainSet, invariant_blocks, projected_gradient_min, require_budget
from .testers import Tester, born_probabilities, tester_from_elements, validate_tester

FEASIBLE_TOL = 1e-8
INFEASIBLE_TOL = 1e-4  # multi-use decisions only
ORTHOGONALITY_TOL = 1e-9  # the largest cross-Gram trace modulus counted as zero


@dataclass(frozen=True)
class FeasibilityReport:
    """A decision; ``capped`` is 1 if the descent ended at its step budget,
    and ``upper`` is the least one-use distance bound taken (None for more
    uses).  Its JSON report leaves out ``witness`` and ``objective_history``."""

    feasible: bool
    status: str
    residual: float
    upper: float | None
    witness: LabeledOperator | None = field(metadata={"json": False})
    iterations: int
    capped: int
    objective_history: list = field(default_factory=list, metadata={"json": False})


def _pair_slices(c: LabeledOperator, order, df: int):
    """The square ``Q = C^2``, with the factors of ``C`` read in ``order``
    and the last ``df`` of them fixed, by its slices ``Q[:, o, :, b]`` over
    the fixed pairs: a ``(df, df)`` flag of the nonzero slices, and a
    function stacking the slices of the pairs ``(o, b)`` as ``[k, e, f]``.

    The square is taken block by block in packed form on ``C``'s partition
    read in that order (:meth:`matcore.Blocks.permuted`): the blocks are
    gathered from ``C``'s entries through the regrouping's index map, and
    each slice ``Q[(e, o), (f, b)]`` is read from the square's nonzero
    entries by position (:meth:`matcore.Blocks.locate`), so no regrouped
    or squared full-side matrix is made."""
    index = matcore.regroup_index(c.dims, [c.labels.index(l) for l in order])
    blocks = c.blocks.permuted(index)
    rows, cols = blocks.index
    v = c.at(index[rows], index[cols])
    square = blocks.product(v, v)
    on = square != 0
    nonzero = np.zeros((df, df), dtype=bool)
    nonzero[rows[on] % df, cols[on] % df] = True
    e = np.arange(c.side // df) * df

    def stack(ko, kb):
        where, hit = blocks.locate(e[:, None] + ko[:, None, None], e + kb[:, None, None])
        return np.where(hit & on[where], square[where], 0)  # a signed zero reads as 0

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
        """This objective, evaluated at packed vectors of ``blocks``."""
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
        """The value and the packed gradient at a packed vector ``x`` of the
        objective's partition.

        ``t = x r_`` is formed row block by row block; the gradient keeps the
        partition, so ``half = q_ t`` is formed on its blocks alone.
        """
        blocks = self.blocks
        parts = list(zip(self._parts, blocks.stacks(x)))
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
        return float(f), grad


def product_residual(c0: LabeledOperator, c1: LabeledOperator,
                     fixed_labels, x: LabeledOperator) -> float:
    """Direct ``||C0 (x ⊗ I_fixed) C1||_F^2``, block by block on the combs'
    joint partition with ``x ⊗ I`` (:func:`matcore._lifted`), to cross-check
    the fast objective; raises on any mismatch of spaces."""
    spaces, fixed = dict(zip(c0.labels, c0.dims)), set(fixed_labels)
    if not fixed <= spaces.keys():
        raise ValueError(f"fixed labels {sorted(fixed - spaces.keys())} are not on the combs")
    if dict(zip(c1.labels, c1.dims)) != spaces:
        raise ValueError(f"combs differ: dims {c0.dims} on {c0.labels}, {c1.dims} on {c1.labels}")
    free = {l: d for l, d in spaces.items() if l not in fixed}
    if dict(zip(x.labels, x.dims)) != free:
        raise ValueError(f"witness dims {x.dims} on {x.labels} are not the free spaces {free}")
    x = x.permuted(tuple(free))
    order = tuple(free) + tuple(l for l in c0.labels if l in fixed)
    blocks, (a, b), lift = matcore._lifted((c0, c1), order, x.entries, x.blocks)
    return float(np.linalg.norm(blocks.product(a, lift, b)) ** 2)


def _squares_trace(c0: LabeledOperator, c1: LabeledOperator) -> float:
    """``Tr[C0² C1²]``, the objective at ``x = I``, from the block squares of
    combs in one factor order."""
    q, r = (c.blocks.product(c.entries, c.entries) for c in (c0, c1))
    where, on = c1.blocks.locate(*c0.blocks.index)
    return float(np.vdot(np.where(on, r[where], 0), q).real)


def _decide(c0: LabeledOperator, c1: LabeledOperator, fixed_labels, xi_set: XiChainSet,
            restarts: int, max_iter: int) -> FeasibilityReport:
    """Minimize the objective over ``xi_set`` from the uniform point, as a
    packed iterate on its invariant partition, for at most ``max_iter``
    steps, unless, for one use, the bound there proves infeasibility first.
    ``restarts`` is only checked.  The witness carries the objective's free
    labels."""
    require_budget(restarts, max_iter)
    free = [l for l in c0.labels if l not in set(fixed_labels)]  # the witness's spaces
    uniform = xi_set.uniform()
    upper, proof = None, False
    if xi_set.uses == 1:
        diagonal = Blocks.of(uniform)
        upper, allowance = one_use_upper(c0, c1, fixed_labels, diagonal, diagonal.pack(uniform))
        if upper < 2 - allowance:  # proven before any step
            value = float(uniform[0, 0] ** 2 * _squares_trace(c0, c1))
            witness = LabeledOperator(diagonal.pack(uniform), free,
                                      [c0.dim_of(l) for l in free], blocks=diagonal)
            return FeasibilityReport(False, "infeasible", value, upper, witness, 0, 0, [value])
    obj = _ProductObjective(c0, c1, fixed_labels)
    blocks = invariant_blocks(uniform, (obj.reach, xi_set.reach))
    bound_set = xi_set.on(blocks)
    res = projected_gradient_min(
        value_and_grad=obj.on(blocks).value_and_grad, project=bound_set.project,
        x0=blocks.pack(uniform), max_iter=max_iter, stop_below=FEASIBLE_TOL * 1e-4,
    )
    capped = int(res.stop == "max_iter")
    if upper is not None and res.value > FEASIBLE_TOL * 1e-4:
        bound, allowance = one_use_upper(c0, c1, fixed_labels, blocks, res.x)
        upper, proof = min(upper, bound), bound < 2 - allowance
    if res.value < FEASIBLE_TOL and not bound_set.capped:
        status = "feasible"
    elif proof or (upper is None and res.value > INFEASIBLE_TOL
                   and not (capped or bound_set.capped)):
        status = "infeasible"
    else:
        status = "undetermined"
    return FeasibilityReport(
        feasible=status == "feasible", status=status, residual=res.value, upper=upper,
        witness=LabeledOperator._nonzeros(*blocks.index, res.x, free,
                                          [c0.dim_of(l) for l in free]),
        iterations=res.iterations, capped=capped, objective_history=res.history,
    )


def parallel_discriminable(c0: LabeledOperator, c1: LabeledOperator, *,
                           restarts: int = 20, seed: int = 0,
                           max_iter: int = 400) -> FeasibilityReport:
    """Decide the parallel criterion: the causal decision on the combs read as
    one channel each (:meth:`MemoryChannel.as_single_use`), over density
    matrices on the grouped inputs.  The objective reads the sorted combs
    with every output fixed, which is that grouping, through its index map;
    the witness is a joint state of the inputs and carries their labels.
    The one start runs at most ``max_iter`` steps; ``restarts`` (at least 1)
    and ``seed`` are accepted and unused, as no step is random."""
    a, b = (MemoryChannel(c, len(c.labels) // 2).choi for c in (c0, c1))
    xi_set = XiChainSet((int(np.prod(a.dims[0::2])),))
    return _decide(a, b, a.labels[1::2], xi_set, restarts, max_iter)


def causal_discriminable(c0: MemoryChannel, c1: MemoryChannel, *,
                         restarts: int = 20, seed: int = 0,
                         max_iter: int = 600) -> FeasibilityReport:
    """Decide the causal criterion by minimizing over tester normalizations,
    with ``restarts`` and ``seed`` as in :func:`parallel_discriminable`."""
    return _decide(c0.choi, c1.choi, [2 * c0.uses - 1], XiChainSet(c0.dims[:-1]),
                   restarts, max_iter)


def kraus_orthogonality(ch0: Channel, ch1: Channel, rho: np.ndarray) -> tuple[bool, float]:
    """Check the cross-Gram orthogonality of two Kraus families against rho.

    True iff ``Tr[rho K0j† K1k] = 0`` for all j, k up to ``ORTHOGONALITY_TOL``
    in modulus, which characterizes the states witnessing perfect parallel
    discriminability of the two channels.  That is stricter than a
    ``feasible`` decision: for a unitary pair on dimension d its residual at
    the witness ``w`` is ``d² |Tr[wᵀ U]|²``, so ``FEASIBLE_TOL`` admits a
    violation up to ``1e-4/d`` at ``rho = wᵀ``, and a feasible witness can
    fail this check.
    """
    if ch0.in_dim != ch1.in_dim or ch0.out_dim != ch1.out_dim:
        raise ValueError("channels must share input and output dimensions")
    rho = np.asarray(rho, dtype=complex)
    worst = 0.0
    for k0 in ch0.kraus:
        for k1 in ch1.kraus:
            worst = max(worst, abs(np.trace(rho @ k0.conj().T @ k1)))
    return worst <= ORTHOGONALITY_TOL, float(worst)


def _positive_support(w: np.ndarray) -> np.ndarray:
    """Indicator of the eigenvalues above rounding on the spectrum's scale."""
    scale = max(1.0, float(np.abs(w).max()))
    return w > 1e-12 * scale


def synthesize_tester(c0: MemoryChannel, c1: MemoryChannel,
                      witness: LabeledOperator) -> Tester:
    """Two-outcome tester discriminating the combs, built from a witness.

    ``P0 = L Π₊(LΔL) L`` with ``L = Xi^1/2 ⊗ I``, and ``P1 = Xi ⊗ I - P0``,
    block by block on the combs' joint partition with ``L``
    (:func:`matcore._lifted`).  Refuses to certify when the witness residual
    exceeds 1e-6, too large for the construction to be meaningful, when its
    spaces do not match the combs', or when the tester fails validation.
    """
    res = product_residual(c0.choi, c1.choi, [2 * c0.uses - 1], witness)
    if res > 1e-6:
        raise ValueError(f"witness residual {res:.3e} exceeds 1.0e-06; "
                         "cannot certify perfect discrimination")
    witness, labels, top = witness.sorted(), c0.choi.labels, c0.dims[-1]
    root = matcore.root_entries(witness)
    blocks, (a, b), lift = matcore._lifted((c0.choi, c1.choi), labels, root, witness.blocks)
    tilted = matcore._checked_hermitian(blocks, blocks.product(lift, a - b, lift))
    p0 = blocks.product(lift, blocks.map(tilted, _positive_support), lift)
    rows, cols = blocks.index
    p1 = np.where(rows % top == cols % top, witness.at(rows // top, cols // top), 0) - p0
    t = tester_from_elements([LabeledOperator._nonzeros(rows, cols, p, labels, c0.dims)
                              for p in (p0, p1)], c0.uses)
    if not (check := validate_tester(t, 1e-8)).valid:
        raise ValueError(f"synthesized tester has max_residual {check.max_residual:.3e}; "
                         "cannot certify perfect discrimination")
    return t


def delta_matrix(t: Tester, combs) -> np.ndarray:
    """Outcome-by-channel probability table Tr[P_i C_j]."""
    return np.column_stack([born_probabilities(t, mc) for mc in combs])
