"""Channel distances by trace-norm maximization.

Both distances maximize the trace norm of the Choi difference ``Δ`` under
one lift, ``L = R ⊗ I_top`` with the top (last output) space last, formed
on raw arrays, one matrix or a stack, by :func:`matcore.kron_eye`.
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
0)``; elsewhere the restart falls back to ``φ``, solved again over those rows
alone.  So the seesaw stays monotone, and a restart stalls only at a plain
update, never at a trial.  Its maximally entangled start runs alone, and
only if its certified interval is open the random restarts follow as one
stacked batch, with the same arithmetic per restart as a loop over them.  A
restart stops when its value stalls, a wave once the best interval is within
``GAP``, checked on a schedule or once the best value passes ``2 - GAP``.

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
from .sampling import random_pure_state, rng_from
from .unitary import discriminability


# the input mixings ε of :func:`one_use_upper`'s ladder
EPS_LADDER = (1.0, 1e-2, 1e-4, 1e-6, 1e-8)
CHECK_EVERY = 5  # seesaw steps between cb_distance's first certifications of its best input
GAP = 1e-6  # the certified width at which cb_distance's batch stops
# cb_distance's over-relaxation β per restart: at a wave's start, its factor
# after a kept trial and after a fallback, and its bounds
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
    restarts: int  # the restarts that ran
    # open restarts: memory_distance's at ``max_iter``, cb_distance's all that ran unless it closed
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

    Each step values every live restart's over-relaxed trial, or its plain
    update where the trial gains at most ``max(tol, 0)`` (see the module
    notes).  Each wave, the maximally entangled start and then, if it is left
    open, the random restarts, stops once ``upper - value <= GAP`` at the best
    input, checked at its last step and every :data:`CHECK_EVERY` steps, past
    25 a quarter more apart, unless the best value rose by more than ``GAP``
    in that step (proof that the last best is open, as ``upper >= optimum``,
    and evidence for the new one) or has not moved since its check; and, off
    the schedule, at any step where the best value passes ``2 - GAP``, as
    ``upper = 2`` then closes it with no :func:`one_use_upper`.  The
    first restart to reach the largest value gives the estimate; a restart
    stops once its value gains at most ``tol`` (``-inf`` turns off only that
    rule).  The estimate reproduces only under bit-identical arithmetic: ``L
    Δ L†`` has low rank for unitary pairs, so its kernel signs, and with them
    ``S``, ``H`` and the next input, come from rounding.
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
    psi = (np.eye(d_in).reshape(1, -1) / np.sqrt(d_in)).astype(complex)  # maximally entangled
    if np.linalg.norm(delta) < 1e-15:
        _, upper, rho = certify(psi[0])
        return DistanceEstimate(0.0, upper, LabeledOperator(rho, (in_label,), (d_in,)),
                                0, 0, 0, [0.0])
    # Δ^T[(a', o'), (a, o)] as a matrix from (a', a) to (o', o)
    dt = delta.T.reshape(d_in, d_out, d_in, d_out).transpose(0, 2, 1, 3).reshape(side, -1)
    gain = max(tol, 0.0)  # what a trial must add to the last value to be kept

    def spectra(psi: np.ndarray):  # eigenpairs of L Δ L† per input, and its trace norm
        lift = matcore.kron_eye(psi.reshape(-1, d_in, d_in).swapaxes(-1, -2), d_out)
        w, v = np.linalg.eigh(lift @ delta @ matcore._dagger(lift))  # reads one triangle
        return w, v, np.abs(w).sum(axis=-1)

    # row r of best_psi and best_val belongs to restart r, row 0 to the first
    # start; ``live`` indexes a wave's unstopped restarts, and psi (the input
    # a step values), phi (its plain update), beta, prev (the last value) and
    # each step's values follow it
    best_psi = np.zeros((restarts, side), dtype=complex)
    best_val = np.full(restarts, -1.0)
    # (live, values) per step, after an empty record for a call of no steps
    steps = [(np.zeros(0, dtype=int), np.zeros(0))]
    count, top, live = 1, -np.inf, np.arange(1)  # top: the best value last certified
    while True:
        prev = np.full(live.size, -np.inf)
        phi, beta = psi, np.full(live.size, BETA_START)  # a start is its own plain update
        check = min(CHECK_EVERY, max_iter)  # the step count of the next certification
        for step in range(max_iter):
            w, v, val = spectra(psi)
            lose = val <= prev + gain  # trials that gained too little fall back to phi
            if lose.any():
                psi[lose] = phi[lose]
                w[lose], v[lose], val[lose] = spectra(psi[lose])
            beta = np.minimum(np.maximum(beta * np.where(lose, BETA_CUT, BETA_GROW), BETA_MIN),
                              BETA_MAX)
            steps.append((live, val))
            rise = val.max() - best_val.max()  # beyond GAP, proof that the last best is open
            better = val > best_val[live]
            best_val[live[better]] = val[better]
            best_psi[live[better]] = psi[better]
            going = ~(val <= prev + tol)
            prev = val
            if not going.all():
                live, psi, w, v, prev, beta = (a[going] for a in (live, psi, w, v, val, beta))
            near = best_val.max() > 2.0 - GAP  # may close on its value alone: check now
            if live.size == 0 or step + 1 == check or near:
                last = live.size == 0 or step + 1 == max_iter
                if (last or near or rise <= GAP) and best_val.max() > top:
                    top = best_val.max()
                    value, upper, rho = certify(best_psi[int(np.argmax(best_val))])
                if last or best_val.max() == top and upper - value <= GAP:
                    break  # no step left to value a new psi, or the interval closed
                if step + 1 == check:  # ever sparser
                    check = min(max_iter, check + max(CHECK_EVERY, check // 4))
            s = (v * np.sign(w)[:, None, :]) @ matcore._dagger(v)
            # H[(a', b'), (a, b)] = sum_{o, o'} Δ[(a, o), (a', o')] S[(b', o'), (b, o)]
            s = s.reshape(-1, d_in, d_out, d_in, d_out).transpose(0, 2, 4, 1, 3)
            h = (dt @ s.reshape(-1, d_out * d_out, side)).reshape((-1,) + (d_in,) * 4)
            h = h.transpose(0, 1, 3, 2, 4).reshape(-1, side, side)
            phi = np.linalg.eigh(h)[1][:, :, -1]
            # the trial steps past phi, away from psi at phi's phase
            phase = np.exp(1j * np.angle((psi.conj() * phi).sum(axis=-1)))
            psi = phi + beta[:, None] * (phi - phase[:, None] * psi)
            psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        else:  # max_iter is 0: the maximally entangled start, unvalued
            value, upper, rho = certify(psi[0])
        if count == restarts or not max_iter or upper - value <= GAP:
            break
        live, count = np.arange(1, restarts), restarts
        rng = rng_from(seed)
        psi = np.array([random_pure_state(side, rng) for _ in live], dtype=complex)

    # the first restart that reaches the largest value, as a sequential scan keeps
    at, val = map(np.concatenate, zip(*steps))
    return DistanceEstimate(
        value=value, upper=upper, achiever=LabeledOperator(rho, (in_label,), (d_in,)),
        iterations=at.size, restarts=count,
        capped=0 if upper - value <= GAP else count,
        history=val[at == np.argmax(best_val)].tolist(),
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
    this reduces to the cb distance.  Restart points are the uniform
    normalization and random feasible points, each feasible as drawn.
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
            cand = whole.unpack(xi_set.project(whole.pack(xi + step * g)))
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
    upper = (min(2.0, sum(one_use_upper(a, b, [top], whole, whole.pack(best_xi))))
             if c0.uses == 1 else None)
    return DistanceEstimate(
        value=min(2.0, float(cert)), upper=upper, achiever=achiever, iterations=total_iter,
        restarts=len(starts), capped=capped, history=best_hist,
    )
