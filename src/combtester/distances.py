"""Channel distances by trace-norm maximization.

Both distances maximize the trace norm of the Choi difference ``Δ`` under
one lift, ``L = R ⊗ I_top`` with the top (last output) space last, formed
on raw arrays by :func:`matcore.kron_eye`.
``memory_distance`` takes ``R = Ξ^1/2`` for ``Ξ`` in the tester
normalization chain set and ascends ``||L Δ L||_1`` by projected
subgradient steps.  ``cb_distance`` is its single-use case,
``max_rho || (rho^1/2 ⊗ I) Δ (rho^1/2 ⊗ I) ||_1``, estimated by a seesaw on
the equivalent pure-input form ``R = Ψ^T`` for an input ket ``|ψ>`` on
(input, ancilla): one half-step takes the trace-norm sign operator ``S`` of
the output difference ``L Δ L†``, the other takes the top eigenvector of
the lifted observable ``H`` with ``<ψ|H|ψ> = Tr[S L Δ L†]``, which is ``Δ^T``
contracted with ``S`` over the output.  Both half-steps are exact, so the
plain update ``φ`` of an input ``ψ`` is worth at least ``ψ``.  Each step goes
past it (over-relaxation, as in SQUAREM: Varadhan and Roland, Scand. J.
Statist. 35, 2008) to the trial ``(φ + β(φ - e^{iθ}ψ))/||·||``, ``θ =
arg<ψ|φ>``, kept only where its value beats the last by more than ``max(tol,
0)``; elsewhere the seesaw falls back to ``φ``.  So it stays monotone, and
stalls only at a plain update, never at a trial.  It stops when its value
stalls, or once its interval is within ``GAP``, checked on a schedule or once
the best value passes ``2 - GAP``.

``Ξ ↦ ||L Δ L||_1`` is concave: it is ``max Tr[(P0 - P1) Δ]`` over ``P0, P1 >=
0`` with ``P0 + P1 = Ξ ⊗ I``, a supremum of linear functions over a jointly
convex set (the strategy norm: Gutoski, arXiv:1008.4636).  So a start that
stops short needs more steps, not another start: each solver runs one
deterministic start, the uniform ``Ξ`` or the maximally entangled ``ψ``, for
``restarts * max_iter`` steps, and its ``seed`` is unused.

All estimates are certified lower bounds: the returned value is the
objective re-evaluated at the returned achiever, never the raw iterate
score.  A one-use estimate's ``upper`` is certified (:func:`one_use_upper`);
2 bounds every distance, clips both ends, and is attained exactly for
perfectly discriminable inputs, so a value within ``GAP`` of 2 needs no bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .channels import MemoryChannel
from .matcore import LabeledOperator, psd_sqrt_matrix, trace_norm
from .optim import XiChainSet, require_budget
from .unitary import discriminability


# the input mixings ε of :func:`one_use_upper`'s ladder
EPS_LADDER = (1.0, 1e-2, 1e-4, 1e-6, 1e-8)
CHECK_EVERY = 5  # seesaw steps between cb_distance's first certifications of its best input
GAP = 1e-6  # the certified width at which cb_distance's seesaw stops
# cb_distance's over-relaxation β: at the start, its factor after a kept
# trial and after a fallback, and its bounds
BETA_START, BETA_GROW, BETA_CUT, BETA_MIN, BETA_MAX = 1.0, 1.5, 0.5, 0.25, 8.0


@dataclass(frozen=True)
class DistanceEstimate:
    """A certified lower bound and, for one use, a certified upper bound:
    :func:`one_use_upper` at the achiever plus its allowance (None for more
    uses).  Its JSON report leaves out ``achiever`` and ``history``."""

    value: float
    upper: float | None
    achiever: LabeledOperator = field(metadata={"json": False})
    iterations: int
    # 1 if open: memory_distance's ascent at its step budget, cb_distance's unless it closed
    capped: int
    history: list = field(default_factory=list, metadata={"json": False})


def unitary_cb_oracle(u: np.ndarray, v: np.ndarray) -> float:
    """Analytic cb distance between two unitary channels: 2 sqrt(1 - nu^2),
    with ``nu = unitary.discriminability(u† v)``.

    ``nu`` is taken at the unitary polar factor of ``u† v``: inputs that pass
    the check here only to its tolerance, 1e-10, can give a product that fails the
    stricter unitarity check of :mod:`unitary`.
    """
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or v.shape != u.shape:
        raise ValueError(f"inputs must be square and of one size, got {u.shape} and {v.shape}")
    d = u.shape[0]
    if any(np.linalg.norm(m.conj().T @ m - np.eye(d)) > 1e-10 * max(1.0, d) for m in (u, v)):
        raise ValueError("inputs must be unitary to tolerance")
    x, _, y = np.linalg.svd(u.conj().T @ v)
    nu = discriminability(x @ y)
    return 2.0 * float(np.sqrt(max(0.0, 1.0 - nu * nu)))


def one_use_upper(c0: LabeledOperator, c1: LabeledOperator, fixed_labels,
                  free: matcore.Blocks, state: np.ndarray) -> tuple[float, float]:
    """The strategy-norm dual bound on the one-use distance of two Choi
    operators with outputs ``fixed_labels``, from a state ``rho`` of the
    other (input) factors in label order, packed as ``state`` on a partition
    ``free`` of them that it vanishes off, and its rounding allowance.

    With ``ρ_ε = (1 - ε) ρ + ε I/d_in`` and ``L = ρ_ε^1/2 ⊗ I_out``, ``Y =
    L⁻¹|LΔL|L⁻¹ ≥ ±Δ``, so ``λmax(Tr_out Y)`` bounds the distance (Watrous,
    arXiv:1207.5726), tightly at an optimal ``ρ``.  Read against the pair's
    normalization as ``2 + λmax(Tr_out Y - Tr_out(C0 + C1))``, the same for
    channels, a bound below 2 less its allowance proves that no state makes
    ``C0 (x ⊗ I) C1`` vanish.  It is the least, with its allowance ``4·side
    ·eps·(||LΔL||_1·d_in/ε + 1)``, over the ε of :data:`EPS_LADDER` (one ε
    for ``ρ ∝ I``), clipped at 2.  The ladder runs as copies of the combs'
    joint partition with ``ρ_ε ⊗ I`` (:func:`matcore._lifted`), on which
    ``|LΔL|`` is one :meth:`Blocks.map`.
    """
    order = sorted(c0.labels, key=set(fixed_labels).__contains__)  # inputs, then outputs
    n, d_in = c0.side, free.side
    out = n // d_in
    rho = free.unpack(state)
    rho = matcore._hermitian(rho / np.trace(rho).real)
    mixed = np.array_equal(rho, np.eye(d_in) * rho[0, 0])
    ladder = np.array(EPS_LADDER[:1] if mixed else EPS_LADDER)
    mixings = ladder[:, None, None]
    w, u = np.linalg.eigh((1 - mixings) * rho + mixings * np.eye(d_in) / d_in)
    w = np.maximum(w, ladder[:, None] / d_in)[:, None, :]
    root, inv_root = ((u * f) @ matcore._dagger(u) for f in (np.sqrt(w), 1 / np.sqrt(w)))
    blocks, (c0_at, c1_at), lift = matcore._lifted((c0, c1), order, free.pack(root), free)
    x = blocks.product(lift, c0_at - c1_at, lift)
    trace = matcore.TailTrace(blocks.flat, blocks.side, out)  # Tr_out, copy by copy
    rows, cols = np.divmod(trace.flat, trace.side)
    at = rows * d_in + cols % d_in  # (ladder step, row, column): the copies are block-diagonal
    t, s = np.zeros((2, ladder.size, d_in, d_in), dtype=complex)
    for block, v in ((t, blocks.map(x, np.abs)), (s, c0_at + c1_at)):
        block.reshape(-1)[at] = trace(v)
    lam = np.linalg.eigvalsh(matcore._hermitian(inv_root @ t @ inv_root - s))[:, -1]
    norm = np.trace(t, axis1=1, axis2=2).real  # ||LΔL||_1
    allowance = 4 * n * np.finfo(float).eps * (norm * d_in / ladder + 1)
    best = int(np.argmin(lam + allowance))
    return min(2.0, 2.0 + float(lam[best])), float(allowance[best])


def cb_distance(c0: LabeledOperator, c1: LabeledOperator, *,
                restarts: int = 20, seed: int = 0,
                max_iter: int = 300, tol: float = 1e-12) -> DistanceEstimate:
    """Seesaw lower bound on the cb distance of two channels given as Chois.

    One deterministic start, the maximally entangled input, runs for at most
    ``restarts * max_iter`` steps: ``restarts`` multiplies the step budget,
    and ``seed`` is accepted and unused, as no step is random; both stay so
    that existing callers run unchanged.  Each step values the over-relaxed
    trial, or the plain update where the trial gains at most ``max(tol, 0)``
    (see the module notes).  The seesaw stops once ``upper - value <= GAP``
    at its best input, checked at its last step and every
    :data:`CHECK_EVERY` steps, past 25 a quarter more apart, unless the best
    value rose by more than ``GAP`` in that step (proof that the last best is
    open, as ``upper >= optimum``, and evidence for the new one) or has not
    moved since its check; and, off the schedule, at any step where the best
    value passes ``2 - GAP``, as ``upper = 2`` then closes it with no
    :func:`one_use_upper`.  It also stops once its value gains at most
    ``tol`` (``-inf`` turns off only that rule).  The estimate reproduces only
    under bit-identical arithmetic: ``L Δ L†`` has low rank for unitary
    pairs, so its kernel signs, and with them ``S``, ``H`` and the next
    input, come from rounding.
    """
    require_budget(restarts, max_iter)
    if np.isnan(tol):
        raise ValueError(f"tol must be a number, got {tol}")
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
    whole = matcore.Blocks.one(d_in)  # a state's partition: packing is a reshape
    objective = _memory_objective(diff, out_label)[0]

    def certify(psi: np.ndarray) -> tuple[float, float, np.ndarray]:  # value, upper, state
        rho = psi.reshape(d_in, d_in).conj() @ psi.reshape(d_in, d_in).T
        rho = matcore.hermitian_part(rho / np.trace(rho).real)
        value = min(2.0, float(objective(rho)))
        if value >= 2.0 - GAP:  # 2 bounds every distance: [value, 2] is closed
            return value, 2.0, rho
        upper = min(2.0, sum(one_use_upper(c0, c1, [out_label], whole, whole.pack(rho))))
        return value, upper, rho

    side = d_in * d_in
    psi = (np.eye(d_in).reshape(-1) / np.sqrt(d_in)).astype(complex)  # maximally entangled
    if np.linalg.norm(delta) < 1e-15:
        _, upper, rho = certify(psi)
        return DistanceEstimate(0.0, upper, LabeledOperator(rho, (in_label,), (d_in,)),
                                0, 0, [0.0])
    # Δ^T[(a', o'), (a, o)] as a matrix from (a', a) to (o', o)
    dt = delta.T.reshape(d_in, d_out, d_in, d_out).transpose(0, 2, 1, 3).reshape(side, -1)
    gain = max(tol, 0.0)  # what a trial must add to the last value to be kept

    def spectrum(psi: np.ndarray):  # eigenpairs of L Δ L† at an input, and its trace norm
        lift = matcore.kron_eye(psi.reshape(d_in, d_in).T, d_out)
        w, v = np.linalg.eigh(lift @ delta @ matcore._dagger(lift))  # reads one triangle
        return w, v, float(np.abs(w).sum())

    budget = restarts * max_iter
    history, best_val, best_psi, top = [], -1.0, psi, -np.inf  # top: the best value last certified
    prev, phi, beta = -np.inf, psi, BETA_START  # the start is its own plain update
    check = min(CHECK_EVERY, budget)  # the step count of the next certification
    for step in range(budget):
        w, v, val = spectrum(psi)
        if lose := val <= prev + gain:  # a trial that gained too little falls back to phi
            psi = phi
            w, v, val = spectrum(psi)
        beta = min(max(beta * (BETA_CUT if lose else BETA_GROW), BETA_MIN), BETA_MAX)
        history.append(val)
        rise = val - best_val  # beyond GAP, proof that the last best is open
        if val > best_val:
            best_val, best_psi = val, psi
        stalled = val <= prev + tol
        prev = val
        near = best_val > 2.0 - GAP  # may close on its value alone: check now
        if stalled or step + 1 == check or near:
            last = stalled or step + 1 == budget
            if (last or near or rise <= GAP) and best_val > top:
                top = best_val
                value, upper, rho = certify(best_psi)
            if last or best_val == top and upper - value <= GAP:
                break  # no step left to value a new psi, or the interval closed
            if step + 1 == check:  # ever sparser
                check = min(budget, check + max(CHECK_EVERY, check // 4))
        s = (v * np.sign(w)) @ matcore._dagger(v)
        # H[(a', b'), (a, b)] = sum_{o, o'} Δ[(a, o), (a', o')] S[(b', o'), (b, o)]
        s = s.reshape(d_in, d_out, d_in, d_out).transpose(1, 3, 0, 2)
        h = (dt @ s.reshape(d_out * d_out, side)).reshape((d_in,) * 4)
        h = h.transpose(0, 2, 1, 3).reshape(side, side)
        phi = np.linalg.eigh(h)[1][:, -1]
        # the trial steps past phi, away from psi at phi's phase; pairwise
        # sums, not BLAS dots, as where the seesaw stalls depends on rounding
        psi = phi + beta * (phi - np.exp(1j * np.angle((psi.conj() * phi).sum())) * psi)
        psi /= np.sqrt((psi.conj() * psi).real.sum())
    else:  # a budget of 0: the maximally entangled start, unvalued
        value, upper, rho = certify(psi)

    return DistanceEstimate(
        value=value, upper=upper, achiever=LabeledOperator(rho, (in_label,), (d_in,)),
        iterations=len(history), capped=int(upper - value > GAP), history=history,
    )


def _memory_objective(delta: LabeledOperator, top_label: int):
    """``Ξ -> ||L Δ L||_1`` with ``L = Ξ^1/2 ⊗ I_top``, and a subgradient of it.

    ``top_label`` must be the last factor of ``delta``.
    """
    if delta.labels[-1] != top_label:
        raise ValueError("the top space must be the last factor of the difference")
    top = delta.dims[-1]
    dmat = delta.matrix

    def value(xi: np.ndarray) -> float:
        lift = matcore.kron_eye(psd_sqrt_matrix(xi), top)
        return trace_norm(lift @ dmat @ lift)

    def value_and_subgrad(xi: np.ndarray) -> tuple[float, np.ndarray]:
        # raw Hermitian parts: every operand is built here from checked ones
        w, v = np.linalg.eigh(matcore._hermitian(xi))
        w = np.clip(w, 0.0, None)
        root = (v * np.sqrt(w)) @ v.conj().T
        lift = matcore.kron_eye(root, top)
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
    this reduces to the cb distance.  One start, the uniform normalization,
    ascends for at most ``restarts * max_iter`` steps; ``seed`` is accepted
    and unused, as no step is random.
    """
    require_budget(restarts, max_iter)
    a, b = c0.choi, c1.choi
    if a.dims != b.dims:
        raise ValueError("memory channels act on different spaces")
    top = 2 * c0.uses - 1
    delta = a - b
    xi_set = XiChainSet(a.dims[:-1])
    whole = xi_set.blocks  # one block: packing is a reshape
    value, value_and_subgrad = _memory_objective(delta, top)

    xi = xi_set.uniform()
    val, g = value_and_subgrad(xi)
    history, iterations, capped = [val], 0, 0
    step = 0.5 * max(1.0, np.linalg.norm(xi)) / max(np.linalg.norm(g), 1e-12)
    for iterations in range(1, restarts * max_iter + 1):
        cand = whole.unpack(xi_set.project(whole.pack(xi + step * g)))
        cval, cg = value_and_subgrad(cand)
        if cval > val + 1e-15:
            xi, val, g = cand, cval, cg
            history.append(val)
            step *= 1.2
        else:
            step *= 0.5
            if step < 1e-10:
                break
    else:
        capped = 1

    upper = (min(2.0, sum(one_use_upper(a, b, [top], whole, whole.pack(xi))))
             if c0.uses == 1 else None)
    return DistanceEstimate(
        value=min(2.0, float(value(xi))), upper=upper,
        achiever=LabeledOperator(xi, xi_set.labels, xi_set.dims), iterations=iterations,
        capped=capped, history=history,
    )
