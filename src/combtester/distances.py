"""Channel distances by trace-norm maximization.

Both distances maximize the trace norm of the Choi difference ``Δ`` under
one lift, ``L = R ⊗ I_top`` with the top (last output) space last, formed
on raw arrays by :func:`_lift`.  ``memory_distance`` takes ``R = Ξ^1/2`` for
``Ξ`` in the tester normalization chain set and ascends ``||L Δ L||_1`` by
projected subgradient steps.  ``cb_distance`` is its single-use case,
``max_rho || (rho^1/2 ⊗ I) Δ (rho^1/2 ⊗ I) ||_1``, estimated by a seesaw on
the equivalent pure-input form ``R = Ψ^T`` for an input ket ``|ψ>`` on
(input, ancilla): one half-step takes the trace-norm sign operator ``S`` of
the output difference ``L Δ L†``, the other takes the top eigenvector of
the lifted observable ``H`` with ``<ψ|H|ψ> = Tr[S L Δ L†]``, which is ``Δ^T``
contracted with ``S`` over the output.  Both half-steps are exact, so the
seesaw is monotone.  The seesaw's restarts run as one stacked batch: each
step lifts, eigensolves and contracts every unstopped restart at once, with
the same arithmetic per restart as a loop over them.  A restart that stops
at its iteration cap rather than by its stopping rule is counted in
``DistanceEstimate.capped``.

All estimates are certified lower bounds: the returned value is the
objective re-evaluated at the returned achiever, never the raw iterate
score.  The value 2 is an upper bound, attained exactly for perfectly
discriminable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .channels import MemoryChannel
from .matcore import LabeledOperator, psd_sqrt_matrix, trace_norm
from .optim import XiChainSet, require_restarts
from .sampling import random_pure_state, rng_from
from .unitary import discriminability


@dataclass(frozen=True)
class DistanceEstimate:
    """A certified lower bound; its JSON report leaves out ``achiever`` and
    ``history``."""

    value: float
    achiever: LabeledOperator = field(metadata={"json": False})
    iterations: int
    restarts: int
    # restarts that stopped at ``max_iter`` rather than by their stopping rule
    capped: int
    history: list = field(default_factory=list, metadata={"json": False})


def unitary_cb_oracle(u: np.ndarray, v: np.ndarray, tol: float = 1e-10) -> float:
    """Analytic cb distance between two unitary channels: 2 sqrt(1 - nu^2),
    with ``nu = unitary.discriminability(u† v)``.

    ``nu`` is taken at the unitary polar factor of ``u† v``: inputs that pass
    the check here only to its tolerance can give a product that fails the
    stricter unitarity check of :mod:`unitary`.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    for m in (u, v):
        d = m.shape[0]
        if m.shape != (d, d) or np.linalg.norm(m.conj().T @ m - np.eye(d)) > tol * max(1.0, d):
            raise ValueError("inputs must be unitary to tolerance")
    x, _, y = np.linalg.svd(u.conj().T @ v)
    nu = discriminability(x @ y)
    return 2.0 * float(np.sqrt(max(0.0, 1.0 - nu * nu)))


def _lift(root: np.ndarray, top_dim: int) -> np.ndarray:
    """``root ⊗ I_top``, the top space last; a stack of roots gives the stack
    of their lifts."""
    return np.kron(root, np.eye(top_dim))


def cb_distance(c0: LabeledOperator, c1: LabeledOperator, *,
                restarts: int = 20, seed: int = 0,
                max_iter: int = 300, tol: float = 1e-12) -> DistanceEstimate:
    """Seesaw lower bound on the cb distance of two channels given as Chois."""
    require_restarts(restarts)
    c0 = c0.sorted()
    if len(c0.labels) != 2:
        raise ValueError("cb_distance expects single-use Choi operators")
    c1 = c1.permuted(c0.labels)
    if c0.dims != c1.dims:
        raise ValueError("Choi operators act on different spaces")
    diff = c0 - c1
    in_label, out_label = diff.labels
    d_in, d_out = diff.dims
    delta = diff.matrix
    if np.linalg.norm(delta) < 1e-15:
        rho = LabeledOperator(np.eye(d_in) / d_in, (in_label,), (d_in,))
        return DistanceEstimate(0.0, rho, 0, 0, 0, [0.0])

    side = d_in * d_in
    # Δ^T[(a', o'), (a, o)] as a matrix from (a', a) to (o', o)
    dt = delta.T.reshape(d_in, d_out, d_in, d_out).transpose(0, 2, 1, 3).reshape(side, -1)
    rng = rng_from(seed)

    maximally_entangled = np.eye(d_in).reshape(-1) / np.sqrt(d_in)
    starts = [maximally_entangled]
    starts += [random_pure_state(side, rng) for _ in range(restarts - 1)]
    # every restart steps in lockstep; row r of psi, best_psi, best_val and
    # val_prev belongs to restart r, and ``live`` indexes the unstopped ones.
    # Complex from the start: with one restart the only start is real.
    psi = np.array(starts, dtype=complex)
    count = len(starts)
    best_psi = psi.copy()
    best_val = np.full(count, -1.0)
    val_prev = np.full(count, -np.inf)
    histories: list[list[float]] = [[] for _ in range(count)]
    live = np.arange(count)
    total_iter = 0
    for _ in range(max_iter):
        lift = _lift(psi.reshape(-1, d_in, d_in).swapaxes(-1, -2), d_out)
        x = lift @ delta @ matcore._dagger(lift)
        w, v = np.linalg.eigh(matcore._hermitian(x))
        val = np.abs(w).sum(axis=-1)
        total_iter += live.size
        for r, y in zip(live, val.tolist()):
            histories[r].append(y)
        better = val > best_val[live]
        best_val[live[better]] = val[better]
        best_psi[live[better]] = psi[better]
        going = ~(val <= val_prev[live] + tol)
        val_prev[live] = val
        live, psi, w, v = live[going], psi[going], w[going], v[going]
        if live.size == 0:
            break
        s = (v * np.sign(w)[:, None, :]) @ matcore._dagger(v)
        # H[(a', b'), (a, b)] = sum_{o, o'} Δ[(a, o), (a', o')] S[(b', o'), (b, o)]
        s = s.reshape(-1, d_in, d_out, d_in, d_out).transpose(0, 2, 4, 1, 3)
        h = (dt @ s.reshape(-1, d_out * d_out, side)).reshape((-1,) + (d_in,) * 4)
        h = h.transpose(0, 1, 3, 2, 4).reshape(-1, side, side)
        _, vecs = np.linalg.eigh(matcore._hermitian(h))
        psi = vecs[:, :, -1]

    # the first restart that reaches the largest value, as a sequential scan keeps
    first = int(np.argmax(best_val))
    psi_mat = best_psi[first].reshape(d_in, d_in)
    rho = psi_mat.conj() @ psi_mat.T
    rho = matcore.hermitian_part(rho / np.trace(rho).real)
    value = _memory_objective(diff, out_label)[0](rho)
    achiever = LabeledOperator(rho, (in_label,), (d_in,))
    return DistanceEstimate(
        value=float(value), achiever=achiever, iterations=total_iter,
        restarts=count, capped=live.size, history=histories[first],
    )


def _memory_objective(delta: LabeledOperator, top_label: int):
    """``Ξ -> ||L Δ L||_1`` with ``L = _lift(Ξ^1/2)``, and a subgradient of it.

    ``top_label`` must be the last factor of ``delta``.
    """
    if delta.labels[-1] != top_label:
        raise ValueError("the top space must be the last factor of the difference")
    top = delta.dims[-1]
    dmat = delta.matrix

    def value(xi: np.ndarray) -> float:
        lift = _lift(psd_sqrt_matrix(xi), top)
        return trace_norm(lift @ dmat @ lift)

    def value_and_subgrad(xi: np.ndarray) -> tuple[float, np.ndarray]:
        # raw Hermitian parts: every operand is built here from checked ones
        w, v = np.linalg.eigh(matcore._hermitian(xi))
        w = np.clip(w, 0.0, None)
        root = (v * np.sqrt(w)) @ v.conj().T
        lift = _lift(root, top)
        x = lift @ dmat @ lift
        xw, xv = np.linalg.eigh(matcore._hermitian(x))
        val = float(np.abs(xw).sum())
        s = (xv * np.sign(xw)) @ xv.conj().T
        b = dmat @ lift @ s + s @ lift @ dmat
        rest = b.shape[0] // top
        btilde = np.trace(b.reshape(rest, top, rest, top), axis1=1, axis2=3)
        # chain rule through the matrix square root, in the eigenbasis of xi
        bb = v.conj().T @ matcore._hermitian(btilde) @ v
        denom = np.sqrt(w)[:, None] + np.sqrt(w)[None, :]
        g = v @ (bb / np.maximum(denom, 1e-8)) @ v.conj().T
        return val, matcore._hermitian(g)

    return value, value_and_subgrad


def memory_distance(c0: MemoryChannel, c1: MemoryChannel, *,
                    restarts: int = 20, seed: int = 0,
                    max_iter: int = 400) -> DistanceEstimate:
    """Projected subgradient ascent for the memory-channel distance.

    For a single use the feasible set degenerates to density matrices and
    this reduces to the cb distance.  Restart points are the uniform
    normalization and random feasible points, each feasible as drawn.
    """
    require_restarts(restarts)
    a, b = c0.choi, c1.choi
    if a.dims != b.dims:
        raise ValueError("memory channels act on different spaces")
    top = 2 * c0.uses - 1
    delta = LabeledOperator(a.matrix - b.matrix, a.labels, a.dims)
    xi_set = XiChainSet(a.dims[:-1])
    value, value_and_subgrad = _memory_objective(delta, top)
    rng = rng_from(seed)

    starts = [xi_set.uniform()]
    starts += [xi_set.random_feasible(rng) for _ in range(restarts - 1)]

    best_val, best_xi, total_iter, capped = -1.0, None, 0, 0
    best_hist: list[float] = []
    for xi in starts:
        val, g = value_and_subgrad(xi)
        hist = [val]
        step = 0.5 * max(1.0, np.linalg.norm(xi)) / max(np.linalg.norm(g), 1e-12)
        for _ in range(max_iter):
            total_iter += 1
            cand = xi_set.project(xi + step * g)
            cval, cg = value_and_subgrad(cand)
            if cval > val + 1e-15:
                xi, val, g = cand, cval, cg
                hist.append(val)
                step *= 1.2
            else:
                step *= 0.5
                if step < 1e-10:
                    break
        else:
            capped += 1
        if val > best_val:
            best_val, best_xi, best_hist = val, xi, hist

    cert = value(best_xi)
    achiever = LabeledOperator(best_xi, xi_set.labels, xi_set.dims)
    return DistanceEstimate(
        value=float(cert), achiever=achiever, iterations=total_iter,
        restarts=len(starts), capped=capped, history=best_hist,
    )
