"""Convex-set projections and solver loops shared by the decision modules.

The feasible set for a top-level tester normalization on spaces ``0..2N-2``
is the intersection of the positive-semidefinite cone with an affine
subspace (the recursive partial-trace chain plus a trace pin).  Projection
onto the intersection uses Dykstra's alternating scheme.  The affine part is
projected in closed form by trace-and-replace: with ``R_k(X) = Tr_{spaces
>= k} X ⊗ I/D``, each level ``n = N..2`` maps ``X -> X - R_{2n-2}(X) +
R_{2n-3}(X)`` and a trace pin adds ``(t - Tr X)/side · I``, as for valid
process and comb subspaces (Araújo et al., arXiv:1506.03776; Chiribella,
D'Ariano and Perinotti, arXiv:0904.4483).

Every projection steps on packed vectors: the block entries of a matrix
that vanishes off a block partition (:class:`matcore.Blocks`).  A solve
finds its partition once, with :func:`invariant_blocks`: the finest one
that holds its start and that its gradient map and affine step keep, so
each step is exact in packed form.  It binds the set to that partition
once (:meth:`XiChainSet.on`), and passes the partition to the PSD and
density steps, which run one stacked ``eigh`` per block size.  The affine
step traces and replaces each level's tails on the packed entries with
:class:`matcore.TailTrace`, built once per bound set.  Every projection
takes and returns packed vectors of its partition (one block for a set that
was not bound); a caller holding a matrix packs it there and unpacks the
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matcore
from .matcore import Blocks, LabeledOperator, TailTrace, identity, lift_last, tensor
from .matcore import partial_trace  # noqa: F401  (part of this module's namespace)

# steps a Dykstra projection onto PSD ∩ affine chain makes at most
DYKSTRA_CAP = 5000


# -- simple projections ------------------------------------------------------


def project_simplex(w: np.ndarray, total: float = 1.0) -> np.ndarray:
    """Euclidean projection of a real vector onto {w >= 0, sum w = total}."""
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, len(w) + 1)
    cond = u - css / ks > 0
    k = ks[cond][-1]
    tau = css[cond][-1] / k
    return np.maximum(w - tau, 0.0)


def project_to_density(v: np.ndarray, total: float, blocks: Blocks) -> np.ndarray:
    """Nearest (Frobenius) positive operator with trace ``total`` to the
    Hermitian part of the matrix packed as ``v`` on ``blocks``, packed."""
    return blocks.map(blocks.hermitian(v), lambda w: project_simplex(w, total))


def project_psd(v: np.ndarray, blocks: Blocks) -> np.ndarray:
    """Nearest positive operator to the Hermitian part of the matrix packed
    as ``v`` on ``blocks``, packed."""
    return blocks.map(blocks.hermitian(v), lambda w: np.maximum(w, 0.0))


def invariant_blocks(x0: np.ndarray, reaches) -> Blocks:
    """The finest block partition that holds ``x0`` and that each of
    ``reaches`` keeps.

    A reach maps the nonzero pattern of a matrix to a superset of the
    pattern its image can have under one map of the solve, computed exactly
    (no tolerance).  Starting from the pattern of ``x0`` plus the diagonal,
    each round adds every reach of the pattern and fills its connected
    components, until nothing changes.  Spectral maps keep any block
    partition, so a solve whose steps are such maps and the reached ones
    stays on the partition returned.  A coarser partition would only cost
    speed; a dense start gives one block.
    """
    pattern = (x0 != 0) | np.eye(len(x0), dtype=bool)
    while True:
        grown = pattern.copy()
        for reach in reaches:
            grown |= reach(pattern)
        blocks = Blocks.of(grown)
        if blocks.whole:
            return blocks
        filled = blocks.pattern()
        if np.array_equal(filled, pattern):
            return blocks
        pattern = filled


# -- tester-normalization feasible set ---------------------------------------


class XiChainSet:
    """Feasible top-level normalizations on spaces ``0..2N-2``.

    ``dims[k]`` is the dimension of space ``k``.  Membership means: positive
    semidefinite, and tracing the top (even) space of each derived level
    leaves identity on the next odd space tensored with the level below,
    terminating in unit trace.

    With ``R_k(X) = Tr_{spaces >= k} X ⊗ I/D`` (``D`` the dimension of the
    traced spaces), level ``n`` holds iff ``R_{2n-2}(X) = R_{2n-3}(X)``.
    The ``R_k`` are commuting orthogonal projectors that fix ``I`` and keep
    the trace, so the affine projection is the closed form
    ``X - sum_n (R_{2n-2} - R_{2n-3}) X`` followed by a trace pin: the
    trace-and-replace construction of valid process and comb subspaces
    (Araújo et al., arXiv:1506.03776; Chiribella, D'Ariano and Perinotti,
    arXiv:0904.4483).

    ``blocks`` is the partition a point is projected on: one block, unless
    the set was bound to another with :meth:`on`.  ``capped`` counts the
    projections of this set that stopped at ``DYKSTRA_CAP`` unconverged.
    """

    def __init__(self, dims):
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) % 2 == 0:
            raise ValueError("a normalization chain lives on an odd number of spaces")
        self.uses = (len(self.dims) + 1) // 2
        self.side = int(np.prod(self.dims))
        self.labels = tuple(range(len(self.dims)))
        self.trace_target = float(np.prod(self.dims[1::2])) if self.uses > 1 else 1.0
        self.blocks = Blocks.one(self.side)
        self.capped = 0

    def on(self, blocks: Blocks) -> "XiChainSet":
        """This set, projecting packed vectors of ``blocks``."""
        bound = XiChainSet(self.dims)
        bound.blocks = blocks
        return bound

    def chain_residuals(self, x: np.ndarray) -> list[np.ndarray]:
        """Hermitian residual of each chain level (levels N..2), as a matrix,
        from the walk on the entries of ``x``."""
        x = np.asarray(x, dtype=complex).reshape(-1)
        walk = matcore.chain_levels(matcore.Entries(np.arange(x.size), x, self.side), self.dims)
        return [residual().matrix() for _, residual in walk]

    def _level_traces(self, flat: np.ndarray) -> list:
        """The even and odd :class:`matcore.TailTrace` of each chain level ``n
        = N..2`` on the positions ``flat``: over spaces ``2n-2..`` and
        ``2n-3..``, the factors that ``R_k`` replaces."""
        return [tuple(TailTrace(flat, self.side, math.prod(self.dims[k:]))
                      for k in (2 * n - 2, 2 * n - 3)) for n in range(self.uses, 1, -1)]

    def reach(self, pattern: np.ndarray) -> np.ndarray:
        """Entries the affine step can make nonzero from the boolean nonzero
        pattern of a matrix: ``R_k`` lands on the lift to ``⊗ I_tail`` of the
        positions its trace over the tail reaches, and the trace pin on the
        diagonal."""
        out = pattern | np.eye(self.side, dtype=bool)
        for traces in self._level_traces(np.flatnonzero(pattern)):
            for trace in traces:
                out.reshape(-1)[lift_last(trace.flat, trace.side, trace.tail)] = True
        return out

    @cached_property
    def _affine_traces(self) -> list:
        """:meth:`_level_traces` on the entries of ``blocks``, built at the
        set's first affine step."""
        return self._level_traces(self.blocks.flat)

    def project_affine(self, x: np.ndarray) -> np.ndarray:
        """Closed-form projection of the packed ``x`` onto the affine chain constraints."""
        blocks = self.blocks
        out = blocks.hermitian(x)  # a fresh array, updated in place
        trace = out[blocks.diagonal].sum().real
        for even, odd in self._affine_traces:
            r_even, r_odd = even(out) / even.tail, odd(out) / odd.tail
            out[even.on] -= r_even[even.pair]
            out[odd.on] += r_odd[odd.pair]
        out[blocks.diagonal] += (self.trace_target - trace) / self.side
        return out

    def project(self, x: np.ndarray) -> np.ndarray:
        """Dykstra projection onto PSD ∩ affine chain, in at most ``DYKSTRA_CAP``
        steps; a run that reaches the cap is counted in ``capped``."""
        blocks = self.blocks
        if self.uses == 1:
            return project_to_density(x, self.trace_target, blocks)
        b = blocks.hermitian(x)
        p = np.zeros_like(b)
        q = np.zeros_like(b)
        for _ in range(DYKSTRA_CAP):
            a = project_psd(b + p, blocks)
            p = b + p - a
            b = self.project_affine(a + q)
            q = a + q - b
            if np.linalg.norm(a - b) <= 1e-12:
                break
        else:
            self.capped += 1
        return project_psd(b, blocks)

    def membership_residual(self, x: np.ndarray) -> float:
        res = [np.linalg.norm(r) for r in self.chain_residuals(x)]
        res.append(abs(np.trace(x).real - self.trace_target))
        w = matcore.eigvalsh(matcore.hermitian_part(x))
        res.append(max(0.0, -float(w[0])))
        return float(max(res))

    def uniform(self) -> np.ndarray:
        return np.eye(self.side) * (self.trace_target / self.side)

    def embed_state(self, rho: LabeledOperator) -> np.ndarray:
        """Lift a joint input state (on the even spaces) to a chain element.

        The parallel strategy that feeds ``rho`` into all inputs corresponds
        to ``rho`` on the even spaces tensored with identity on the
        intermediate odd spaces.
        """
        evens = tuple(range(0, len(self.dims), 2))
        odds = tuple(range(1, len(self.dims) - 1, 2))
        out = tensor(rho.permuted(evens), identity(odds, tuple(self.dims[o] for o in odds)))
        return out.sorted().matrix


# -- projected gradient minimization -----------------------------------------


def require_budget(restarts: int, max_iter: int) -> None:
    """Raise unless a solver's ``restarts`` is at least 1 and its step cap
    ``max_iter`` is non-negative (0 runs no step)."""
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be at least 0, got {max_iter}")


@dataclass
class SolveResult:
    x: np.ndarray
    value: float
    iterations: int
    history: list
    stop: str  # "target", "stalled", "no decrease" or "max_iter"


def projected_gradient_min(value_and_grad, project, x0: np.ndarray,
                           max_iter: int = 400, stop_below: float = 0.0) -> SolveResult:
    """Monotone projected gradient descent with backtracking line search,
    from a feasible ``x0``.  The objective is a homogeneous quadratic (the
    product objective), so the first trial step is ``‖g‖²/(2 f(g))``, the
    exact minimizer of ``f - t‖g‖² + t² f(g)`` along ``-g`` (0 where g = 0);
    a step then grows ×1.3 when accepted and halves when rejected.  ``stop``
    is ``"target"``, ``"stalled"``, ``"no decrease"`` (in 40 halvings) or ``"max_iter"``."""
    x = x0
    f, g = value_and_grad(x)
    history = [f]
    fg = value_and_grad(g)[0]
    step = np.vdot(g, g).real / (2 * fg) if fg > 0 else 0.0
    it, stop = 0, "max_iter"
    for it in range(1, max_iter + 1):
        improved = False
        for _ in range(40):
            cand = project(x - step * g)
            fc, gc = value_and_grad(cand)
            if fc < f - 1e-18:
                x, f, g = cand, fc, gc
                step *= 1.3
                improved = True
                break
            step *= 0.5
            if step < 1e-16:
                break
        history.append(f)
        if not improved:
            stop = "no decrease"
        elif f <= stop_below:
            stop = "target"
        elif len(history) > 2 and abs(history[-2] - f) <= 1e-14 * max(1.0, f):
            stop = "stalled"
        else:
            continue
        break
    return SolveResult(x=x, value=f, iterations=it, history=history, stop=stop)
