"""Angular-spread toolkit for discriminating unitaries from the identity.

The angular spread of a unitary is the length of the minimal arc on the unit
circle covering all its eigenphases, computed as 2*pi minus the largest gap
between circularly sorted phases.  The spread reaching pi is exactly the
threshold for perfect single-shot discriminability from the identity; below
it the discriminability gap is cos(spread/2).

A caveat that the code treats explicitly: because the spread re-minimizes
the covering arc, product and tensor spread laws are exact identities only
while the total spread stays at or below pi.  Beyond that (and below 2*pi)
the arc of a sparse spectrum can close up again, so the additive laws hold
for the unwrapped phase intervals but not always for the re-minimized arc.
Reports carry both guards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import haar_unitary, rng_from

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class EigenphaseSet:
    """Sorted eigenphases in [0, 2*pi), with multiplicity."""

    phases: tuple[float, ...]

    def __post_init__(self):
        if not self.phases:
            raise ValueError("an eigenphase set cannot be empty")
        ph = tuple(float(p) for p in self.phases)
        if any(p < 0.0 or p >= 2 * np.pi for p in ph):
            raise ValueError("phases must lie in [0, 2*pi)")
        object.__setattr__(self, "phases", tuple(sorted(ph)))


def _check_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    if u.ndim != 2 or u.shape != (d, d):
        raise ValueError("expected a square matrix")
    if np.linalg.norm(u.conj().T @ u - np.eye(d)) > tol * max(1.0, np.sqrt(d)):
        raise ValueError("matrix is not unitary to tolerance")
    return u


def eigenphases(u: np.ndarray) -> EigenphaseSet:
    u = _check_unitary(u)
    ph = np.mod(np.angle(np.linalg.eigvals(u)), 2 * np.pi)
    ph[ph >= 2 * np.pi - 1e-15] = 0.0
    return EigenphaseSet(tuple(ph))


def spread_of_phases(ph: EigenphaseSet) -> float:
    a = np.asarray(ph.phases)
    gaps = np.diff(np.concatenate([a, [a[0] + 2 * np.pi]]))
    return float(2 * np.pi - gaps.max())


def angular_spread(u: np.ndarray) -> float:
    """Minimal covering arc of the eigenphases, in [0, 2*pi)."""
    return spread_of_phases(eigenphases(u))


def discriminability(u: np.ndarray) -> float:
    """max(0, cos(spread/2)): zero exactly at and beyond spread pi."""
    return max(0.0, float(np.cos(angular_spread(u) / 2)))


@dataclass(frozen=True)
class SpreadLawReport:
    theta_x: float
    theta_y: float
    theta_product: float
    theta_tensor: float
    conjugation_gap: float
    subadditivity_slack: float
    tensor_gap: float
    guard: bool
    additive_guard: bool


def check_spread_laws(x: np.ndarray, y: np.ndarray, seed: int = 0) -> SpreadLawReport:
    """Evaluate the spread relations for a pair of unitaries.

    ``guard`` is total spread below 2*pi (subadditivity applies);
    ``additive_guard`` is total spread at most pi (product and tensor
    additivity are exact identities for the minimized arc).
    """
    x = _check_unitary(x)
    y = _check_unitary(y)
    tx, ty = angular_spread(x), angular_spread(y)
    txy = angular_spread(x @ y) if x.shape == y.shape else float("nan")
    tt = angular_spread(np.kron(x, y))
    rng = rng_from(seed)
    t = haar_unitary(x.shape[0], rng)
    conj_gap = abs(angular_spread(t @ x @ t.conj().T) - tx)
    return SpreadLawReport(
        theta_x=tx, theta_y=ty, theta_product=txy, theta_tensor=tt,
        conjugation_gap=float(conj_gap),
        subadditivity_slack=float(tx + ty - txy),
        tensor_gap=float(abs(tt - tx - ty)),
        guard=bool(tx + ty < 2 * np.pi),
        additive_guard=bool(tx + ty <= np.pi),
    )


def reduce_sequences(t_list, v_list) -> list[np.ndarray]:
    """Reduce discriminating (T_j) vs (V_j) to (T_j† V_j) vs identities."""
    if len(t_list) != len(v_list):
        raise ValueError("sequences must have equal length")
    out = []
    for j, (t, v) in enumerate(zip(t_list, v_list)):
        t = _check_unitary(t)
        v = _check_unitary(v)
        if t.shape != v.shape:
            raise ValueError(f"dimension mismatch at position {j}")
        out.append(t.conj().T @ v)
    return out


def _arc_sorted_eigensystem(u: np.ndarray):
    """Eigenvectors ordered along the covering arc, orthonormalized.

    Eigenvectors of a unitary for distinct phases are orthogonal; within a
    near-degenerate phase cluster they are re-orthonormalized by QR so the
    assembled basis is unitary.  Clusters are taken along the arc, so one
    that straddles 0 = 2*pi stays whole.
    """
    u = _check_unitary(u)
    vals, vecs = np.linalg.eig(u)
    ph = np.mod(np.angle(vals), 2 * np.pi)
    order = np.argsort(ph)
    ph = ph[order]
    n = len(ph)
    gaps = np.diff(np.concatenate([ph, [ph[0] + 2 * np.pi]]))
    start = (int(np.argmax(gaps)) + 1) % n
    arc = np.roll(np.arange(n), -start)
    unwrapped = ph[arc] + np.where(arc < start, 2 * np.pi, 0.0)
    basis = vecs[:, order[arc]]
    # orthonormalize clusters of (numerically) equal phases
    i = 0
    while i < n:
        j = i + 1
        while j < n and (unwrapped[j] - unwrapped[i]) < 1e-8:
            j += 1
        if j - i > 1:
            basis[:, i:j] = np.linalg.qr(basis[:, i:j])[0]
        i = j
    return unwrapped - ph[start], basis


def matching_conjugation(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unitary T aligning the eigenbasis of v with that of u.

    Eigenvectors are paired in sorted order along each spread's covering
    arc, anchoring the extremal phases to each other, so the product
    ``u T v T†`` accumulates both spreads coherently.
    """
    u = _check_unitary(u)
    v = _check_unitary(v)
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    _, ub = _arc_sorted_eigensystem(u)
    _, vb = _arc_sorted_eigensystem(v)
    return ub @ vb.conj().T


@dataclass(frozen=True)
class ParallelOptimalityReport:
    theta: float
    uses: int
    theta_joint: float
    additive_prediction: float
    additive_guard: bool
    threshold_uses: int | None
    threshold_reached: bool


def tensor_power_spread(u: np.ndarray, n: int) -> float:
    """Spread of the n-fold tensor power via phase sums (no big Kronecker)."""
    ph = np.asarray(eigenphases(u).phases)
    sums = np.zeros(1)
    for _ in range(n):
        sums = np.add.outer(sums, ph).reshape(-1)
    sums = np.mod(sums, 2 * np.pi)
    uniq = np.sort(np.unique(np.round(sums, 12)))
    gaps = np.diff(np.concatenate([uniq, [uniq[0] + 2 * np.pi]]))
    return float(2 * np.pi - gaps.max())


def parallel_optimality_check(u: np.ndarray, n: int) -> ParallelOptimalityReport:
    """Joint-use spread accounting: n parallel uses accumulate n times the
    single-use spread (exactly, while the total stays at or below pi), and
    perfect discrimination from the identity needs the accumulated spread to
    reach pi."""
    if n < 1:
        raise ValueError("need at least one use")
    theta = angular_spread(u)
    joint = tensor_power_spread(u, n)
    threshold = int(np.ceil(np.pi / theta)) if theta > 1e-12 else None
    reached = False
    if threshold is not None:
        reached = tensor_power_spread(u, threshold) >= np.pi - 1e-9
    return ParallelOptimalityReport(
        theta=theta, uses=n, theta_joint=joint,
        additive_prediction=min(n * theta, 2 * np.pi),
        additive_guard=bool(n * theta <= np.pi),
        threshold_uses=threshold, threshold_reached=bool(reached),
    )
