"""Channel distances by trace-norm maximization.

``cb_distance`` estimates the completely bounded distance
``max_rho || (I ⊗ rho^1/2) (C0 - C1) (I ⊗ rho^1/2) ||_1`` by a seesaw on the
equivalent pure-input form: alternately pick the trace-norm sign operator of
the current output difference and the best input state for that operator
(the top eigenvector of the lifted observable).  Both half-steps are exact,
so the iteration is monotone.  ``memory_distance`` maximizes the same
objective over tester normalization chains by projected subgradient ascent.

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
from .matcore import (
    LabeledOperator,
    identity,
    psd_sqrt_matrix,
    tensor,
    trace_norm,
    undouble_ket,
)
from .optim import XiChainSet
from .sampling import random_pure_state, rng_from


@dataclass(frozen=True)
class DistanceEstimate:
    value: float
    achiever: LabeledOperator
    iterations: int
    restarts: int
    history: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "iterations": self.iterations,
            "restarts": self.restarts,
        }


def _hull_distance_nu(phases: np.ndarray) -> float:
    """Distance from the origin to the convex hull of unit-circle points.

    The nearest hull face is the chord closing the minimal covering arc, so
    the distance is cos(arc/2), clipped at zero once the arc reaches a
    semicircle and the hull swallows the origin.
    """
    ph = np.sort(np.mod(phases, 2 * np.pi))
    gaps = np.diff(np.concatenate([ph, [ph[0] + 2 * np.pi]]))
    arc = 2 * np.pi - gaps.max()
    return max(0.0, float(np.cos(arc / 2)))


def unitary_cb_oracle(u: np.ndarray, v: np.ndarray, tol: float = 1e-10) -> float:
    """Analytic cb distance between two unitary channels: 2 sqrt(1 - nu^2)."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    for m in (u, v):
        d = m.shape[0]
        if m.shape != (d, d) or np.linalg.norm(m.conj().T @ m - np.eye(d)) > tol * max(1.0, d):
            raise ValueError("inputs must be unitary to tolerance")
    phases = np.angle(np.linalg.eigvals(u.conj().T @ v))
    nu = _hull_distance_nu(phases)
    return 2.0 * float(np.sqrt(max(0.0, 1.0 - nu * nu)))


def cb_distance(c0: LabeledOperator, c1: LabeledOperator, *,
                restarts: int = 20, seed: int = 0,
                max_iter: int = 300, tol: float = 1e-12) -> DistanceEstimate:
    """Seesaw lower bound on the cb distance of two channels given as Chois."""
    c0 = c0.sorted()
    c1 = c1.sorted()
    if len(c0.labels) != 2:
        raise ValueError("cb_distance expects single-use Choi operators")
    if c0.dims != c1.permuted(c0.labels).dims:
        raise ValueError("Choi operators act on different spaces")
    in_label, out_label = c0.labels
    a = c0.permuted((out_label, in_label))
    b = c1.permuted((out_label, in_label))
    d_out, d_in = a.dims
    delta = a.matrix - b.matrix
    if np.linalg.norm(delta) < 1e-15:
        rho = LabeledOperator(np.eye(d_in) / d_in, (in_label,), (d_in,))
        return DistanceEstimate(0.0, rho, 0, 0, [0.0])

    dt = delta.reshape(d_out, d_in, d_out, d_in)
    rng = rng_from(seed)

    def output_difference(psi_mat: np.ndarray) -> np.ndarray:
        # (I ⊗ Psi^T) Delta (I ⊗ Psi^*), an operator on (output, ancilla)
        x = np.einsum("mb,ampn,nc->abpc", psi_mat, dt, psi_mat.conj(), optimize=True)
        return x.reshape(d_out * d_in, d_out * d_in)

    def lifted_observable(s: np.ndarray) -> np.ndarray:
        # Hermitian form H with <psi|H|psi> = Tr[S (I ⊗ Psi^T) Delta (I ⊗ Psi^*)]
        st = s.reshape(d_out, d_in, d_out, d_in)
        h = np.einsum("xcab,amxn->ncmb", st, dt, optimize=True)
        return h.reshape(d_in * d_in, d_in * d_in)

    best_val, best_psi, total_iter = -1.0, None, 0
    history_best: list[float] = []
    maximally_entangled = np.eye(d_in).reshape(-1) / np.sqrt(d_in)
    starts = [maximally_entangled]
    starts += [random_pure_state(d_in * d_in, rng) for _ in range(max(0, restarts - 1))]
    for psi in starts:
        val_prev = -np.inf
        local_val, local_psi = -1.0, psi
        history = []
        for _ in range(max_iter):
            psi_mat = undouble_ket(psi, d_in, d_in)
            x = output_difference(psi_mat)
            w, v = np.linalg.eigh(matcore.hermitian_part(x))
            val = float(np.abs(w).sum())
            history.append(val)
            total_iter += 1
            if val > local_val:
                local_val, local_psi = val, psi
            if val <= val_prev + tol:
                break
            val_prev = val
            h = lifted_observable((v * np.sign(w)) @ v.conj().T)
            _, vecs = np.linalg.eigh(matcore.hermitian_part(h))
            psi = vecs[:, -1]
        if local_val > best_val:
            best_val, best_psi, history_best = local_val, local_psi, history

    psi_mat = undouble_ket(best_psi, d_in, d_in)
    rho = psi_mat.conj() @ psi_mat.T
    rho = matcore.hermitian_part(rho / np.trace(rho).real)
    value = _memory_objective(
        LabeledOperator(delta, (out_label, in_label), (d_out, d_in)), out_label
    )[0](rho)
    achiever = LabeledOperator(rho, (in_label,), (d_in,))
    return DistanceEstimate(
        value=float(value), achiever=achiever, iterations=total_iter,
        restarts=len(starts), history=history_best,
    )


def _memory_objective(delta: LabeledOperator, top_label: int):
    out_dim = delta.dim_of(top_label)
    rest = [l for l in delta.labels if l != top_label]

    def lift_of(root: np.ndarray) -> LabeledOperator:
        lo = LabeledOperator(root, tuple(rest), tuple(delta.dim_of(l) for l in rest))
        return tensor(lo, identity([top_label], [out_dim])).permuted(delta.labels)

    def value(xi: np.ndarray) -> float:
        lift = lift_of(psd_sqrt_matrix(xi)).matrix
        return trace_norm(lift @ delta.matrix @ lift)

    def value_and_subgrad(xi: np.ndarray) -> tuple[float, np.ndarray]:
        w, v = np.linalg.eigh(matcore.hermitian_part(xi))
        w = np.clip(w, 0.0, None)
        root = (v * np.sqrt(w)) @ v.conj().T
        lift = lift_of(root).matrix
        x = lift @ delta.matrix @ lift
        xw, xv = np.linalg.eigh(matcore.hermitian_part(x))
        val = float(np.abs(xw).sum())
        s = (xv * np.sign(xw)) @ xv.conj().T
        b = delta.matrix @ lift @ s + s @ lift @ delta.matrix
        bl = LabeledOperator(b, delta.labels, delta.dims)
        btilde = matcore.partial_trace(bl, [top_label]).permuted(tuple(rest)).matrix
        # chain rule through the matrix square root, in the eigenbasis of xi
        bb = v.conj().T @ matcore.hermitian_part(btilde) @ v
        denom = np.sqrt(w)[:, None] + np.sqrt(w)[None, :]
        g = v @ (bb / np.maximum(denom, 1e-8)) @ v.conj().T
        return val, matcore.hermitian_part(g)

    return value, value_and_subgrad


def memory_distance(c0: MemoryChannel, c1: MemoryChannel, *,
                    restarts: int = 20, seed: int = 0, max_iter: int = 400,
                    extra_starts=()) -> DistanceEstimate:
    """Projected subgradient ascent for the memory-channel distance.

    For a single use the feasible set degenerates to density matrices and
    this reduces to the cb distance.  Restart points are the uniform
    normalization, random feasible points, and any caller-provided starts
    (for instance a feasibility witness).
    """
    a, b = c0.choi, c1.choi
    if a.dims != b.dims:
        raise ValueError("memory channels act on different spaces")
    top = 2 * c0.uses - 1
    delta = LabeledOperator(a.matrix - b.matrix, a.labels, a.dims)
    xi_set = XiChainSet(a.dims[:-1])
    value, value_and_subgrad = _memory_objective(delta, top)
    rng = rng_from(seed)

    starts = [xi_set.uniform()]
    starts += [np.asarray(x, dtype=complex) for x in extra_starts]
    starts += [xi_set.random_feasible(rng) for _ in range(max(0, restarts - 1))]

    best_val, best_xi, total_iter = -1.0, None, 0
    best_hist: list[float] = []
    for x0 in starts:
        xi = xi_set.project(x0)
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
        if val > best_val:
            best_val, best_xi, best_hist = val, xi, hist

    cert = value(best_xi)
    achiever = LabeledOperator(best_xi, xi_set.labels, xi_set.dims)
    return DistanceEstimate(
        value=float(cert), achiever=achiever, iterations=total_iter,
        restarts=len(starts), history=best_hist,
    )
