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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .matcore import LabeledOperator, identity, tail_diagonal, tensor
from .matcore import partial_trace  # noqa: F401  (part of this module's namespace)


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


def project_to_density(h: np.ndarray, total: float = 1.0) -> np.ndarray:
    """Nearest (Frobenius) positive operator with fixed trace."""
    return matcore.spectral_map(matcore.hermitian_part(h), lambda w: project_simplex(w, total))


def project_psd(h: np.ndarray) -> np.ndarray:
    return matcore.spectral_map(matcore.hermitian_part(h), lambda w: np.maximum(w, 0.0))


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

    def chain_residuals(self, x: np.ndarray) -> list[np.ndarray]:
        """Hermitian residual of each chain level (levels N..2)."""
        return [residual() for _, residual in matcore.chain_levels(x, self.dims)]

    def project_affine(self, x: np.ndarray) -> np.ndarray:
        """Closed-form projection onto the affine chain constraints."""
        x = matcore.hermitian_part(x)  # a fresh array, updated in place
        trace = np.trace(x).real
        for n in range(self.uses, 1, -1):
            even, odd = self._tails[2 * n - 2], self._tails[2 * n - 3]
            r_even = tail_diagonal(x, even).sum(axis=2) / even
            r_odd = tail_diagonal(x, odd).sum(axis=2) / odd
            tail_diagonal(x, even)[...] -= r_even[:, :, None]
            tail_diagonal(x, odd)[...] += r_odd[:, :, None]
        x.flat[:: self.side + 1] += (self.trace_target - trace) / self.side
        return x

    def project(self, x: np.ndarray, max_iter: int = 5000, tol: float = 1e-12) -> np.ndarray:
        """Dykstra projection onto PSD ∩ affine chain."""
        if self.uses == 1:
            return project_to_density(x, self.trace_target)
        x = matcore.hermitian_part(x)
        p = np.zeros_like(x)
        q = np.zeros_like(x)
        b = x
        for _ in range(max_iter):
            a = project_psd(b + p)
            p = b + p - a
            b = self.project_affine(a + q)
            q = a + q - b
            if np.linalg.norm(a - b) <= tol:
                break
        return project_psd(b)

    def membership_residual(self, x: np.ndarray) -> float:
        res = [np.linalg.norm(r) for r in self.chain_residuals(x)]
        res.append(abs(np.trace(x).real - self.trace_target))
        w = matcore.eigvalsh(matcore.hermitian_part(x))
        res.append(max(0.0, -float(w[0])))
        return float(max(res))

    def uniform(self) -> np.ndarray:
        return np.eye(self.side) * (self.trace_target / self.side)

    def random_feasible(self, rng) -> np.ndarray:
        g = rng.normal(size=(self.side, self.side)) + 1j * rng.normal(size=(self.side, self.side))
        x = g @ g.conj().T
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
    """Monotone projected gradient descent with backtracking line search."""
    x = project(x0)
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
