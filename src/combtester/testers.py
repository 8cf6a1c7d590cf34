"""Testers: generalized measurements on memory channels.

A tester for an N-use comb is a list of positive operators ``P_i`` on spaces
``0..2N-1`` whose sum factorizes as (normalization chain element on spaces
``0..2N-2``) ⊗ (identity on the last output space), with the chain itself
satisfying a recursive partial-trace normalization ending in a unit trace.
Outcome probabilities follow the generalized Born rule ``p(i) = Tr[P_i C]``.

Every tester is realizable as a concrete circuit: prepare a joint state of
the first input and an ancilla, interleave processing isometries with the
comb's uses, and measure a POVM at the end.  ``tester_from_circuit`` builds
the tester elements of such a scheme as the link product of its parts,
contracted as kets: the processing isometries compose into one ket, which
meets the input state and each POVM element in one contraction.
``simulate_tester_circuit`` evolves states through the same scheme
explicitly; the two must agree, which pins down every transpose convention.
The key fact, fixed by the row-major vectorization: a circuit that prepares
``sigma`` and measures ``M_i`` directly on a single channel use has tester
elements ``sigma^T``-weighted, i.e. the chain element is the transpose of
the prepared reduced input state.  The check and the Born rule read each
element as its entries on its block partition, however it was built.  The
POVM reduction and the reduced state sandwich by the lifted root of the top
level, from its entries, block by block (:func:`matcore._lifted`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .channels import IsometricComb, MemoryChannel, _isometry_chain, _ket_chain
from .matcore import LabeledOperator, kron_eye, partial_trace


@dataclass(frozen=True)
class Tester:
    """Tester elements plus their normalization chain.

    ``chain[n-1]`` is the level-n normalization operator, living on spaces
    ``0..2n-2``; ``chain[-1]`` normalizes the element sum.
    """

    elements: tuple[LabeledOperator, ...]
    chain: tuple[LabeledOperator, ...]
    uses: int

    def __post_init__(self):
        n = self.uses
        expected = tuple(range(2 * n))
        if not self.elements or len(self.chain) != n:
            raise ValueError(f"need at least one element and {n} chain operators, "
                             f"got {len(self.elements)} and {len(self.chain)}")
        elements = tuple(e.sorted() for e in self.elements)
        dims = elements[0].dims
        for e in elements:
            if e.labels != expected or e.dims != dims:
                raise ValueError(f"tester elements must carry labels {expected} "
                                 f"and dims {dims}, got {e.labels} and {e.dims}")
        chain = tuple(x.sorted() for x in self.chain)
        for level, x in enumerate(chain, start=1):
            if x.labels != expected[:2 * level - 1] or x.dims != dims[:2 * level - 1]:
                raise ValueError(
                    f"chain level {level} must live on spaces 0..{2 * level - 2} "
                    f"with dims {dims[:2 * level - 1]}, got dims {x.dims}"
                )
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "chain", chain)


def tester_from_elements(elements, uses: int) -> Tester:
    """The tester of ``elements``; its chain is the normalization chain of
    the element sum, topped by ``Tr_last(sum) / d_last``, walked on the
    elements' entries (:func:`matcore.chain_levels`) and held as the
    entry-built levels of that walk."""
    elements = tuple(e.permuted(tuple(range(2 * uses))) for e in elements)
    dims = elements[0].dims
    walk = matcore.chain_levels(matcore.Entries.of(*elements), dims + (1,))
    lowers = [lower for lower, _ in walk][::-1]
    chain = tuple(LabeledOperator._nonzeros(*np.divmod(x.flat, x.side), x.values,
                                            range(2 * n - 1), dims[:2 * n - 1])
                  for n, x in enumerate(lowers, start=1))
    return Tester(elements, chain, uses)


@dataclass(frozen=True)
class TesterValidation:
    """A tester check; its JSON report prints every field, ``kind`` first."""

    kind: str = field(default="tester", init=False)
    valid: bool
    max_residual: float
    normalization_residual: float
    chain_residuals: dict = field(default_factory=dict)
    min_element_eigenvalue: float = 0.0


def validate_tester(t: Tester, tol: float = 1e-9) -> TesterValidation:
    """Check element positivity and the recursive chain normalization.  One
    walk on the entries of the element sum (:func:`matcore.chain_levels`),
    with the stored chain as its levels, gives every residual: the
    normalization residual ``sum_i P_i - Xi ⊗ I``, with ``Xi`` the top chain
    level, and then each lower one.  The element spectra come from their
    packed blocks."""
    total = matcore.trace_last(matcore.Entries.of(*t.elements), 1)  # the sum, each position once
    lowers = [matcore.Entries.of(x) for x in t.chain]
    walk = matcore.chain_levels(total, t.elements[0].dims + (1,), lowers)
    norm_res, *lower_res = (float(np.linalg.norm(residual().values)) for _, residual in walk)
    scale = max(1.0, float(np.linalg.norm(total.values)))
    chain_res = dict(zip(range(t.uses, 1, -1), lower_res))
    chain_res[1] = float(abs(t.chain[0].trace() - 1.0))

    min_eig = min([0.0] + [float(e.blocks.eigvalsh(e.entries)[0]) for e in t.elements])
    max_res = max([norm_res, max(0.0, -min_eig), *chain_res.values()])
    return TesterValidation(
        valid=bool(norm_res <= tol and max(chain_res.values()) <= tol
                   and min_eig >= -tol * scale),
        max_residual=max_res,
        normalization_residual=norm_res,
        chain_residuals=chain_res,
        min_element_eigenvalue=min_eig,
    )


def _require_same_spaces(t: Tester, mc: MemoryChannel) -> None:
    if t.elements[0].dims != mc.dims:  # both carry the labels 0..len(dims)-1
        raise ValueError(f"tester on dims {t.elements[0].dims} and comb on dims {mc.dims} "
                         "act on different spaces")


def born_probabilities(t: Tester, mc: MemoryChannel) -> np.ndarray:
    """Generalized Born rule ``p(i) = Tr[P_i C]``."""
    _require_same_spaces(t, mc)
    # Re Tr[P C] = Re Tr[P† C] when P or C is Hermitian: vdot over each
    # element's entries and the comb's entries at their positions
    c = mc.choi
    return np.array([float(np.vdot(e.entries, c.at(*e.blocks.index)).real)
                     for e in t.elements])


def povm_from_tester(t: Tester) -> list[LabeledOperator]:
    """POVM on the reduced output state, inverting the chain sandwiching.

    The inverse square root of the top chain element, taken on its support,
    sandwiches each element block by block (:func:`matcore._lifted`); the
    completion defect (its kernel, lifted) is assigned to the last outcome so
    the operators sum to the identity exactly.
    """
    level, labels = t.chain[-1], t.elements[0].labels
    root = matcore.root_entries(level, inverse=True)
    blocks, elements, lift = matcore._lifted(t.elements, labels, root, level.blocks)
    rows, cols = blocks.index
    povm = [blocks.product(lift, e, lift) for e in elements]
    povm[-1] = povm[-1] + ((rows == cols) - sum(povm[1:], povm[0]))
    return [LabeledOperator._nonzeros(rows, cols, p, labels, t.elements[0].dims) for p in povm]


def reduced_state(mc: MemoryChannel, t: Tester) -> LabeledOperator:
    """Output state after the tester's processing: the Choi operator
    sandwiched by the root of the top chain element (:func:`matcore._lifted`)."""
    _require_same_spaces(t, mc)
    level = t.chain[-1]
    root = matcore.root_entries(level)
    blocks, (c,), lift = matcore._lifted((mc.choi,), mc.choi.labels, root, level.blocks)
    c = blocks.product(lift, c, lift)
    return LabeledOperator._nonzeros(*blocks.index, c, mc.choi.labels, mc.dims)


@dataclass(frozen=True)
class TesterCircuit:
    """Concrete measurement scheme realizing a tester.

    ``input_state`` is a density matrix on (space 0 ⊗ ancilla b_1), system
    factor first.  ``blocks[n-1]`` is an isometry from (space 2n-1 ⊗ ancilla
    b_n) to (space 2n ⊗ ancilla b_{n+1}).  ``povm`` lives on
    (space 2N-1 ⊗ ancilla b_N).
    """

    input_state: np.ndarray
    blocks: tuple[np.ndarray, ...]
    povm: tuple[np.ndarray, ...]
    system_dims: tuple[int, ...]
    ancilla_dims: tuple[int, ...]

    def __post_init__(self):
        sd, ad = self.system_dims, self.ancilla_dims
        n = len(ad)
        if n < 1:
            raise ValueError("a tester circuit needs at least one use")
        if len(sd) != 2 * n:
            raise ValueError("need dims for spaces 0..2N-1 and ancillas b_1..b_N")
        if len(self.blocks) != n - 1:
            raise ValueError(f"need {n - 1} processing blocks, got {len(self.blocks)}")
        state = np.asarray(self.input_state, dtype=complex)
        d0 = sd[0] * ad[0]
        if state.shape != (d0, d0):
            raise ValueError(f"input state has shape {state.shape}, expected {(d0, d0)}")
        if abs(np.trace(state).real - 1.0) > 1e-9:
            raise ValueError("input state must have unit trace")
        matcore.require_psd_spectrum(matcore.eigvalsh(state), "input state")
        blocks = _isometry_chain(self.blocks, sd, ad, 1)
        povm = tuple(np.asarray(m, dtype=complex) for m in self.povm)
        dm = sd[-1] * ad[-1]
        acc = np.zeros((dm, dm), dtype=complex)
        for m in povm:
            if m.shape != (dm, dm):
                raise ValueError(f"POVM element shape {m.shape}, expected ({dm}, {dm})")
            matcore.require_psd_spectrum(matcore.eigvalsh(m), "POVM element")
            acc += m
        if np.linalg.norm(acc - np.eye(dm)) > 1e-9 * max(1.0, dm):
            raise ValueError("POVM does not sum to the identity")
        object.__setattr__(self, "input_state", state)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "povm", povm)

    @property
    def uses(self) -> int:
        return len(self.ancilla_dims)


def tester_from_circuit(tc: TesterCircuit) -> Tester:
    """Tester elements of a circuit scheme, by contraction of kets.

    Linking the input state, the processing blocks' Choi operators and the
    transposed POVM element over the ancilla wires, then transposing the
    result, gives an element.  The blocks' Choi operators are pure, so their
    link is ``|K><K|`` with ``K`` the composed ket of the processing chain
    (:func:`channels._ket_chain`) on (b_1, spaces 1..2N-2, b_N).  Element
    ``i`` is then one contraction of the input state, ``K``, its conjugate
    and ``M_i^T`` over b_1 and b_N, whose subscripts name the transposed,
    label-sorted layout: of ``G``, the state and ``conj(K)`` on the blocks
    ``(X, x)`` of space 0 that the state reaches, with ``B``, ``K`` and
    ``M_i^T`` on the pairs ``(z, Z)`` of the last space that ``M_i``
    reaches, as one GEMM of their nonzero rows and columns per block.  Its
    nonzero entries are kept, as the entries of the components of their
    pattern (:func:`matcore.edge_groups`).  For ``separation``'s protocol
    on a basis input, ``G`` holds ``d⁵`` entries and ``B`` ``(d - 1) d⁵``.
    """
    n = tc.uses
    sd, ad = tc.system_dims, tc.ancilla_dims
    ket = _ket_chain(tc.blocks, sd, ad, 1)
    state = tc.input_state.reshape(sd[0], ad[0], sd[0], ad[0])
    side, dz, ny = int(np.prod(sd)), sd[-1], ket.shape[1]
    w = side // sd[0]
    # P[x y z, X Y Z] = sum G[X x, S t, y] B[S t, z Y Z] over (S, t), with
    # G = sum_s conj(K[s y t]) state[X S, x s] and B = sum_T M^T[Z T, z t] K[S Y T]
    Xs, xs = np.nonzero(state.any(axis=(1, 3)))
    g = np.einsum("syt,kSs->kSty", ket.conj(), state[Xs, :, xs, :], order="C")
    g = g.reshape(len(Xs), -1, ny)  # a view, as the layout is C
    elements = []
    for m in tc.povm:
        m = m.reshape(dz, ad[-1], dz, ad[-1])
        zs, Zs = np.nonzero(m.any(axis=(1, 3)))
        b = np.einsum("ktT,SYT->StkY", m[zs, :, Zs, :], ket, order="C").reshape(g.shape[1], -1)
        # the reached columns in the (z, Y, Z) order of the whole B: each GEMM sums alike
        k, Y = np.divmod(np.flatnonzero(b.any(axis=0)), ny)
        k, Y = (a[np.lexsort((Zs[k], Y, zs[k]))] for a in (k, Y))
        z, Z, b = zs[k], Zs[k], b[:, k * ny + Y]
        flat, values = [], []
        for X, x, gx in zip(Xs, xs, g):
            ys = np.flatnonzero(gx.any(axis=0))  # none where the block of P vanishes
            part = gx[:, ys].T @ b
            i, j = np.nonzero(part)
            flat.append((x * w + ys[i] * dz + z[j]) * side + X * w + Y[j] * dz + Z[j])
            values.append(part[i, j])
        rows, cols = np.divmod(np.concatenate(flat), side)
        elements.append(LabeledOperator._nonzeros(rows, cols, np.concatenate(values),
                                                  range(2 * n), sd))
    return tester_from_elements(elements, n)


def _wire(uses: int, space: int, d_sys: int, k: int, d_anc: int):
    """Labels and dims of system space ``space`` joined by ancilla wire ``k``.

    The ancilla wires of an N-use scheme follow its system labels
    ``0..2N-1``: wire ``k`` carries label ``2N + k``.  A dimension-1 ancilla
    carries no wire.
    """
    if d_anc == 1:
        return (space,), (d_sys,)
    return (space, 2 * uses + k), (d_sys, d_anc)


def _apply_block(state: LabeledOperator, block: np.ndarray,
                 in_labels, out_labels, out_dims) -> LabeledOperator:
    """Conjugate a labeled density operator by (block ⊗ identity on the rest)."""
    in_labels = list(in_labels)
    rest = [l for l in state.labels if l not in in_labels]
    s = state.permuted(tuple(in_labels + rest))
    d_rest = int(np.prod([s.dim_of(l) for l in rest])) if rest else 1
    full = kron_eye(block, d_rest)
    out = full @ s.matrix @ full.conj().T
    labels = tuple(list(out_labels) + rest)
    dims = tuple(list(out_dims) + [s.dim_of(l) for l in rest])
    return LabeledOperator(out, labels, dims)


def simulate_tester_circuit(tc: TesterCircuit, comb: IsometricComb) -> np.ndarray:
    """Outcome distribution by explicit state evolution through the scheme.

    Alternates the comb's isometric blocks with the tester's processing
    blocks, traces the comb's final memory, and applies the POVM.  Serves as
    the independent oracle for the generalized Born rule.
    """
    n = tc.uses
    if comb.uses != n:
        raise ValueError("tester circuit and comb have different numbers of uses")
    if comb.system_dims != tc.system_dims:
        raise ValueError("tester circuit and comb disagree on system dimensions")
    sd, ad = tc.system_dims, tc.ancilla_dims
    # the tester's memory rides on ancilla wire 0, the comb's on wire 1
    state = LabeledOperator(tc.input_state, *_wire(n, 0, sd[0], 0, ad[0]))
    anc_in = 1
    for j in range(n):
        out_labels, out_dims = _wire(n, 2 * j + 1, sd[2 * j + 1], 1, comb.ancilla_dims[j])
        in_labels, _ = _wire(n, 2 * j, sd[2 * j], 1, anc_in)
        state = _apply_block(state, comb.blocks[j], in_labels, out_labels, out_dims)
        anc_in = comb.ancilla_dims[j]
        if j < n - 1:
            t_out_labels, t_out_dims = _wire(n, 2 * j + 2, sd[2 * j + 2], 0, ad[j + 1])
            t_in_labels, _ = _wire(n, 2 * j + 1, sd[2 * j + 1], 0, ad[j])
            state = _apply_block(state, tc.blocks[j], t_in_labels, t_out_labels, t_out_dims)
    state = partial_trace(state, out_labels[1:])  # the comb's final memory, if any
    m_labels, _ = _wire(n, 2 * n - 1, sd[2 * n - 1], 0, ad[-1])
    state = state.permuted(m_labels)
    return np.array([float(np.trace(m @ state.matrix).real) for m in tc.povm])
