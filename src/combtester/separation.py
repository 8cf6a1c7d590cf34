"""A two-use memory-channel pair separating causal from parallel testing.

The pair is built from the discrete shift and clock unitaries.  The first
channel broadcasts a uniformly random index pair (p, q) into its first
output and its internal memory, then applies the shift-and-multiply unitary
``W_pq = Z^p U^q`` selected by the memory to its second input.  The second
channel outputs uniform noise on the first output and a fixed basis state on
the second.  No joint input state makes the two outputs orthogonal: the
relevant product of Choi operators partial-traces to a positive multiple of
the identity, ``Tr_{13}[C0 C1] = I / d^3``, which forces any orthogonality
witness to vanish.  An adaptive strategy discriminates them perfectly in one
shot: measure the first output in the index basis, feed ``W_pq† |1>`` into
the second input, and check whether ``|1>`` comes back.

Note the constant in the trace identity: with the Choi normalization used
here (trace of an N-use comb equal to the product of its input dimensions),
the correct constant is 1/d^3.  The value 1/d^2 sometimes quoted for this
construction does not match any consistent normalization of these Choi
operators; proportionality to the identity, which is all the impossibility
argument needs, holds either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import IsometricComb, MemoryChannel, _comb_matrix, validate_comb
from .discrimination import FeasibilityReport, delta_matrix, parallel_discriminable
from .matcore import Blocks, LabeledOperator, kron_eye
from .testers import Tester, TesterCircuit, tester_from_circuit


def shift_clock(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic shift Z|n> = |n+1 mod d> and clock U|n> = exp(2*pi*i*n/d)|n>."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    z = np.zeros((d, d), dtype=complex)
    for n in range(d):
        z[(n + 1) % d, n] = 1.0
    u = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return z, u


def shift_multiply(p: int, q: int, d: int) -> np.ndarray:
    """Shift-and-multiply unitary W_pq = Z^p U^q."""
    if not (0 <= p < d and 0 <= q < d):
        raise ValueError(f"indices ({p}, {q}) out of range for dimension {d}")
    z, u = shift_clock(d)
    return np.linalg.matrix_power(z, p) @ np.linalg.matrix_power(u, q)


@dataclass(frozen=True)
class ExampleInstance:
    d: int
    c0: MemoryChannel
    c1: MemoryChannel


def _closed_form_chois(d: int) -> tuple[LabeledOperator, LabeledOperator]:
    """Choi operators on spaces (0,1,2,3) with dims (d, d^2, d, d), built as
    their block entries.

    ``C0 = sum_pq I_0 ⊗ |pq><pq|_1 ⊗ |W_pq>><<W_pq|_{2,3} / d^2``: ``W_pq``
    maps ``|c>`` to a phase times ``|c + p>``, so each (space 0, space 1)
    pair holds one block of side d on the indices ``(c, c + p)`` of spaces
    (2, 3), and every other index is a zero singleton.
    ``C1 = I_{0,1,2} ⊗ |0><0|_3 / d^2`` is diagonal.
    """
    d2 = d * d
    dims = (d, d2, d, d)
    side = int(np.prod(dims))
    c = np.arange(d)
    spots, blocks = [], []
    for pq in range(d2):
        p = pq // d
        # |W_pq>> is ordered (3, 2); its transpose reorders it to (2, 3)
        v = shift_multiply(p, pq % d, d).T.reshape(-1)
        on = c * d + (c + p) % d  # its nonzero entries
        spots.append(on)
        blocks.append(np.outer(v[on], v[on].conj()) / d2)
    on = (np.arange(d)[:, None, None] * d2 + np.arange(d2)[:, None]) * d2 + np.array(spots)
    rest = np.ones(side, dtype=bool)
    rest[on] = False
    groups = [np.flatnonzero(rest)[:, None], on.reshape(-1, d)]
    c0 = np.concatenate([np.zeros(side - on.size, dtype=complex),
                         np.tile(np.array(blocks), (d, 1, 1)).reshape(-1)])
    c1 = np.where(np.arange(side) % d == 0, 1.0 / d2, 0.0)
    labels = (0, 1, 2, 3)
    return (
        LabeledOperator(c0, labels, dims, blocks=Blocks(groups, side)),
        LabeledOperator(c1, labels, dims, blocks=Blocks([np.arange(side)[:, None]], side)),
    )


def dilation_blocks(d: int, which: int) -> IsometricComb:
    """Isometric realization of either channel.

    The memory wire carries the broadcast index pair together with a dump of
    the first input (dimension d^3), so that tracing the final ancilla
    reproduces the exact Choi operators: with less memory, coherences that
    the first output must not carry could not be purified away.
    """
    d2 = d * d
    if which == 0:
        a1, a2 = d2 * d, d2 * d
        v1 = np.zeros((d2 * a1, d), dtype=complex)
        for m in range(d):
            for pq in range(d2):
                v1[(pq * a1) + (pq * d + m), m] = 1.0 / d
        v2 = np.zeros((d * a2, d * a1), dtype=complex)
        for pq in range(d2):
            p, q = divmod(pq, d)
            w = shift_multiply(p, q, d)
            for m in range(d):
                for n in range(d):
                    col = n * a1 + (pq * d + m)
                    for c in range(d):
                        v2[c * a2 + (pq * d + m), col] = w[c, n]
    elif which == 1:
        a1 = d2 * d
        a2 = d * a1
        v1 = np.zeros((d2 * a1, d), dtype=complex)
        for m in range(d):
            for jk in range(d2):
                v1[(jk * a1) + (jk * d + m), m] = 1.0 / d
        v2 = np.zeros((d * a2, d * a1), dtype=complex)
        for n in range(d):
            for x in range(a1):
                v2[0 * a2 + (n * a1 + x), n * a1 + x] = 1.0
    else:
        raise ValueError("which must be 0 or 1")
    return IsometricComb(
        blocks=(v1, v2), system_dims=(d, d2, d, d), ancilla_dims=(a1, a2)
    )


def build_example(d: int) -> ExampleInstance:
    """Build both memory channels from the closed-form Choi operators.

    For d <= 3 the Choi operators are also constructed independently
    through the isometric dilations and the two must agree to 1e-10: the
    dilations' matrices are compared with a temporary matrix of the closed
    form, so neither is labelled and the returned combs keep their entries
    alone.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    choi0, choi1 = _closed_form_chois(d)
    c0 = MemoryChannel(choi0, 2)
    c1 = MemoryChannel(choi1, 2)
    if d <= 3:
        for mc, which in ((c0, 0), (c1, 1)):
            built = _comb_matrix(dilation_blocks(d, which))
            err = np.linalg.norm(built - mc.choi.blocks.unpack(mc.choi.entries))
            if err > 1e-10:
                raise RuntimeError(
                    f"dilation of channel {which} deviates from the closed form "
                    f"by {err:.3e}"
                )
    return ExampleInstance(d=d, c0=c0, c1=c1)


@dataclass(frozen=True)
class ParallelImpossibilityReport:
    """The ``Tr_13[C0 C1]`` check and the parallel solver's decision; its JSON
    report prints every field, ``solver`` as a nested report."""

    d: int
    identity_residual: float
    proportionality_residual: float
    fitted_constant: float
    expected_constant: float
    quoted_constant_residual: float
    solver: FeasibilityReport


def _trace_13(c0: LabeledOperator, c1: LabeledOperator) -> np.ndarray:
    """``Tr_{13}[C0 C1]`` on spaces (0, 2): each ``C0[(i0 j1 i2 j3), m] C1[m,
    (k0 j1 k2 j3)]`` adds to entry ``((i0 i2), (k0 k2))``, so the stored entries
    are joined on the key ``(m, j1, j3)``, the products added in C1's order."""
    dims, side = c0.dims, c0.dims[0] * c0.dims[2]
    (r, m0), (m1, col) = c0.blocks.index, c1.blocks.index
    (i0, j1, i2, j3), (k0, l1, k2, l3) = (np.unravel_index(x, dims) for x in (r, col))
    key, key1 = ((m * dims[1] + j) * dims[3] + k for m, j, k in ((m0, j1, j3), (m1, l1, l3)))
    order = np.argsort(key, kind="stable")
    lo, hi = (np.searchsorted(key[order], key1, end) for end in ("left", "right"))
    e1 = np.repeat(np.arange(key1.size), hi - lo)
    e0 = order[np.arange(e1.size) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)]
    t = np.zeros((side, side), dtype=complex)
    np.add.at(t.reshape(-1), ((i0 * dims[2] + i2) * side)[e0] + (k0 * dims[2] + k2)[e1],
              c0.entries[e0] * c1.entries[e1])
    return t


def verify_parallel_impossible(inst: ExampleInstance) -> ParallelImpossibilityReport:
    """Machine-check that no parallel scheme discriminates the pair.

    Computes ``Tr_{13}[C0 C1]`` and compares it with ``I/d^3`` (the constant
    implied by the comb normalization; also reported against the quoted
    ``I/d^2``), then decides the parallel criterion: the distance bound at the
    maximally mixed input, ``(d - 1 + sqrt((d - 1)(d + 3)))/d`` (fitted), is a
    proof; the residual is the objective there, its minimum ``1/d^8``.
    Where the bound does not prove it, the decision's one descent runs its
    default ``max_iter`` steps.
    """
    d = inst.d
    t = _trace_13(inst.c0.choi, inst.c1.choi)
    eye = np.eye(t.shape[0])
    fitted = float(np.trace(t).real / t.shape[0])
    report_solver = parallel_discriminable(inst.c0.choi, inst.c1.choi)
    return ParallelImpossibilityReport(
        d=d,
        identity_residual=float(np.linalg.norm(t - eye / d**3)),
        proportionality_residual=float(np.linalg.norm(t - fitted * eye)),
        fitted_constant=fitted,
        expected_constant=1.0 / d**3,
        quoted_constant_residual=float(np.linalg.norm(t - eye / d**2)),
        solver=report_solver,
    )


def protocol_circuit(inst: ExampleInstance, psi: np.ndarray) -> TesterCircuit:
    """The adaptive protocol as a delayed-measurement tester circuit.

    The mid-protocol index measurement is dilated into an isometry that
    records (p, q) coherently in the tester ancilla while preparing
    ``W_pq† |1>`` for the second input; the final POVM checks the last output
    for ``|1>``, ignoring the record.
    """
    d = inst.d
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (d,):
        raise ValueError(f"protocol input must have dimension {d}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("protocol input state must be normalized")
    d2 = d * d
    block = np.zeros((d * d2, d2), dtype=complex)
    for pq in range(d2):
        p, q = divmod(pq, d)
        target = shift_multiply(p, q, d).conj().T[:, 1]
        for c in range(d):
            block[c * d2 + pq, pq] = target[c]
    ket1 = np.zeros((d, d), dtype=complex)
    ket1[1, 1] = 1.0
    m0 = kron_eye(ket1, d2)
    m1 = kron_eye(np.eye(d) - ket1, d2)
    return TesterCircuit(
        input_state=np.outer(psi, psi.conj()),
        blocks=(block,),
        povm=(m0, m1),
        system_dims=(d, d2, d, d),
        ancilla_dims=(1, d2),
    )


def causal_protocol(inst: ExampleInstance, psi: np.ndarray) -> tuple[Tester, np.ndarray]:
    """Run the adaptive protocol; returns the tester and the table
    ``Tr[P_i C_j]``, which equals the identity for every input state."""
    tester = tester_from_circuit(protocol_circuit(inst, psi))
    return tester, delta_matrix(tester, (inst.c0, inst.c1))


def comb_validation_summary(inst: ExampleInstance) -> dict:
    v0 = validate_comb(inst.c0, 1e-10)
    v1 = validate_comb(inst.c1, 1e-10)
    return {
        "c0": {"valid": v0.valid, "max_residual": v0.max_residual},
        "c1": {"valid": v1.valid, "max_residual": v1.max_residual},
    }
