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
step sums and replaces the packed entries on each level's tail diagonal
through index maps built once per bound set.  A projection given a matrix
packs it on its partition (one block for a set that was not bound) and
returns a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import matcore
from .matcore import Blocks, LabeledOperator, identity, tail_diagonal, tensor
from .matcore import partial_trace  # noqa: F401  (part of this module's namespace)
from .sampling import random_psd


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


def _spectral_step(h, f, blocks: Blocks | None) -> np.ndarray:
    """``f`` over the spectrum of the Hermitian part of ``h``.  On a
    partition ``h`` is mapped blockwise and returned in the form given
    (:meth:`Blocks.like`); with none, ``h`` is a matrix, scanned for NaN/Inf
    and labelled once."""
    if blocks is None:
        return matcore.spectral_map(matcore.hermitian_part(h), f)
    return blocks.like(blocks.map(blocks.hermitian(blocks.packed(h)), f), h)


def project_to_density(h: np.ndarray, total: float = 1.0,
                       blocks: Blocks | None = None) -> np.ndarray:
    """Nearest (Frobenius) positive operator with fixed trace."""
    return _spectral_step(h, lambda w: project_simplex(w, total), blocks)


def project_psd(h: np.ndarray, blocks: Blocks | None = None) -> np.ndarray:
    return _spectral_step(h, lambda w: np.maximum(w, 0.0), blocks)


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


class _TailTrace(NamedTuple):
    """The partial trace over a tail factor, on the entries of a partition.

    ``on`` are the packed positions on the tail's diagonal (row and column
    equal modulo ``tail``), ``pair`` the id of each one's prefix pair
    ``(i // tail, j // tail)`` among the pairs that occur, and ``parts`` the
    ids ``2 pair`` and ``2 pair + 1`` of its real and imaginary parts.
    """

    on: np.ndarray
    pair: np.ndarray
    parts: np.ndarray
    tail: int

    @classmethod
    def of(cls, blocks: Blocks, tail: int) -> "_TailTrace":
        rows, cols = blocks.index
        on = np.flatnonzero(rows % tail == cols % tail)
        pair = (rows[on] // tail) * (blocks.side // tail) + cols[on] // tail
        pair = np.unique(pair, return_inverse=True)[1]
        parts = (2 * pair[:, None] + np.arange(2)).reshape(-1)
        return cls(on, pair, parts, tail)

    def mean(self, v: np.ndarray) -> np.ndarray:
        """``Tr_tail x / tail`` for each prefix pair of the packed ``v``, each
        sum taken in the order of ``on``."""
        sums = np.bincount(self.parts, weights=v[self.on].view(float))
        return sums.view(complex) / self.tail


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
    the set was bound to another with :meth:`on`.
    """

    def __init__(self, dims):
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) % 2 == 0:
            raise ValueError("a normalization chain lives on an odd number of spaces")
        self.uses = (len(self.dims) + 1) // 2
        self.side = int(np.prod(self.dims))
        self.labels = tuple(range(len(self.dims)))
        self.trace_target = float(np.prod(self.dims[1::2])) if self.uses > 1 else 1.0
        # tails[k]: dimension of spaces k..2N-2, the factor that R_k replaces
        self._tails = tuple(int(np.prod(self.dims[k:])) for k in range(len(self.dims)))
        self.blocks = Blocks.one(self.side)

    def on(self, blocks: Blocks) -> "XiChainSet":
        """This set, projecting on ``blocks``: packed vectors of that
        partition, or matrices that vanish off it."""
        bound = XiChainSet(self.dims)
        bound.blocks = blocks
        return bound

    def chain_residuals(self, x: np.ndarray) -> list[np.ndarray]:
        """Hermitian residual of each chain level (levels N..2)."""
        return [residual() for _, residual in matcore.chain_levels(x, self.dims)]

    def _level_tails(self):
        """The even and odd tail of each chain level ``n = N..2``."""
        return [(self._tails[2 * n - 2], self._tails[2 * n - 3]) for n in range(self.uses, 1, -1)]

    def reach(self, pattern: np.ndarray) -> np.ndarray:
        """Entries the affine step can make nonzero from the boolean nonzero
        pattern of a matrix: ``R_k`` lands on ``kron(T, I_tail)`` with ``T``
        the pattern of the partial trace over the tail, and the trace pin on
        the diagonal."""
        out = pattern | np.eye(self.side, dtype=bool)
        for tails in self._level_tails():
            for tail in tails:
                traced = tail_diagonal(pattern, tail).any(axis=2)
                out |= np.kron(traced, np.eye(tail, dtype=bool))
        return out

    @cached_property
    def _level_traces(self) -> list:
        """The even and odd :class:`_TailTrace` of each level on ``blocks``,
        built at the set's first affine step."""
        return [tuple(_TailTrace.of(self.blocks, tail) for tail in tails)
                for tails in self._level_tails()]

    def project_affine(self, x: np.ndarray) -> np.ndarray:
        """Closed-form projection onto the affine chain constraints."""
        blocks = self.blocks
        out = blocks.hermitian(blocks.packed(x))  # a fresh array, updated in place
        trace = out[blocks.diagonal].sum().real
        for even, odd in self._level_traces:
            r_even, r_odd = even.mean(out), odd.mean(out)
            out[even.on] -= r_even[even.pair]
            out[odd.on] += r_odd[odd.pair]
        out[blocks.diagonal] += (self.trace_target - trace) / self.side
        return blocks.like(out, x)

    def project(self, x: np.ndarray, max_iter: int = 5000, tol: float = 1e-12) -> np.ndarray:
        """Dykstra projection onto PSD ∩ affine chain."""
        blocks = self.blocks
        if self.uses == 1:
            return project_to_density(x, self.trace_target, blocks)
        b = blocks.hermitian(blocks.packed(x))
        p = np.zeros_like(b)
        q = np.zeros_like(b)
        for _ in range(max_iter):
            a = project_psd(b + p, blocks)
            p = b + p - a
            b = self.project_affine(a + q)
            q = a + q - b
            if np.linalg.norm(a - b) <= tol:
                break
        return blocks.like(project_psd(b, blocks), x)

    def membership_residual(self, x: np.ndarray) -> float:
        res = [np.linalg.norm(r) for r in self.chain_residuals(x)]
        res.append(abs(np.trace(x).real - self.trace_target))
        w = matcore.eigvalsh(matcore.hermitian_part(x))
        res.append(max(0.0, -float(w[0])))
        return float(max(res))

    def uniform(self) -> np.ndarray:
        return np.eye(self.side) * (self.trace_target / self.side)

    def random_feasible(self, rng) -> np.ndarray:
        x = random_psd(self.side, rng)
        x *= self.trace_target / np.trace(x).real
        return self.project(x)

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


def require_restarts(restarts: int) -> None:
    """Raise unless a solver is asked for at least one start."""
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")


@dataclass
class SolveResult:
    x: np.ndarray
    value: float
    iterations: int
    history: list


def projected_gradient_min(value_and_grad, project, x0: np.ndarray,
                           max_iter: int = 400, stop_below: float = 0.0) -> SolveResult:
    """Monotone projected gradient descent with backtracking line search,
    from a feasible ``x0``."""
    x = x0
    f, g = value_and_grad(x)
    history = [f]
    step = 1.0
    it = 0
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
            break
        if f <= stop_below:
            break
        if len(history) > 2 and abs(history[-2] - f) <= 1e-14 * max(1.0, f):
            break
    return SolveResult(x=x, value=f, iterations=it, history=history)
