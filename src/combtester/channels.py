"""Channels and memory channels (combs) in the Choi representation.

Space labeling follows the time-ordered wire numbering used throughout:
an N-use memory channel acts on spaces ``0 .. 2N-1`` with even labels the
inputs and odd labels the outputs.  Comb Choi operators are stored with
tensor factors in ascending label order.

With the row-major vectorization of :mod:`combtester.matcore`, the Choi
operator of a channel with Kraus operators ``K_j`` is ``sum_j |K_j>><<K_j|``
on (output, input); trace preservation reads ``Tr_out C = I_in``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .matcore import LabeledOperator, double_ket, partial_trace, tensor_many

TP_TOL = 1e-9


@dataclass(frozen=True)
class Channel:
    """Completely positive trace-preserving map in Kraus form."""

    kraus: tuple[np.ndarray, ...]
    in_dim: int
    out_dim: int

    def __post_init__(self):
        ks = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ks:
            raise ValueError("a channel needs at least one Kraus operator")
        for j, k in enumerate(ks):
            if k.shape != (self.out_dim, self.in_dim):
                raise ValueError(
                    f"Kraus operator {j} has shape {k.shape}, "
                    f"expected ({self.out_dim}, {self.in_dim})"
                )
        acc = sum(k.conj().T @ k for k in ks)
        if np.linalg.norm(acc - np.eye(self.in_dim)) > TP_TOL * max(1.0, self.in_dim):
            raise ValueError("Kraus operators do not satisfy trace preservation")
        frozen = []
        for k in ks:
            k = k.copy()
            k.flags.writeable = False
            frozen.append(k)
        object.__setattr__(self, "kraus", tuple(frozen))


@dataclass(frozen=True)
class MemoryChannel:
    """An N-use comb: Choi operator on spaces 0..2N-1, ascending factor order."""

    choi: LabeledOperator
    uses: int

    def __post_init__(self):
        n = self.uses
        expected = tuple(range(2 * n))
        c = self.choi.sorted()
        if c.labels != expected:
            raise ValueError(
                f"a {n}-use comb must carry labels {expected}, got {self.choi.labels}"
            )
        object.__setattr__(self, "choi", c)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.choi.dims

    @property
    def input_dims(self) -> tuple[int, ...]:
        return self.choi.dims[0::2]

    @property
    def output_dims(self) -> tuple[int, ...]:
        return self.choi.dims[1::2]

    def as_single_use(self) -> "MemoryChannel":
        """The comb read as one channel: its inputs grouped as space 0 and its
        outputs as space 1, each in label order.  One use returns ``self``."""
        if self.uses == 1:
            return self
        spaces = len(self.dims)
        perm = list(range(0, spaces, 2)) + list(range(1, spaces, 2))
        dims = (int(np.prod(self.input_dims)), int(np.prod(self.output_dims)))
        return MemoryChannel(self.choi._permuted_as(perm, (0, 1), dims), 1)


def identity_channel(d: int) -> Channel:
    return Channel((np.eye(d, dtype=complex),), d, d)


def unitary_channel(u: np.ndarray) -> Channel:
    u = np.asarray(u, dtype=complex)
    return Channel((u,), u.shape[1], u.shape[0])


def choi_from_kraus(ch: Channel, out_label: int = 1, in_label: int = 0) -> LabeledOperator:
    """Choi operator sum_j |K_j>><<K_j| with factor order (output, input)."""
    d = ch.out_dim * ch.in_dim
    c = np.zeros((d, d), dtype=complex)
    for k in ch.kraus:
        v = double_ket(k)
        c += np.outer(v, v.conj())
    return LabeledOperator(c, (out_label, in_label), (ch.out_dim, ch.in_dim))


def kraus_from_choi(c: LabeledOperator, in_dim: int, out_dim: int) -> Channel:
    """Extract a Kraus form from a valid Choi operator.

    The two-label operator is read with the higher label as the output
    space.  Eigenvectors with eigenvalue above the support cutoff become
    Kraus operators; the round trip through ``choi_from_kraus`` reproduces
    the input.
    """
    if len(c.labels) != 2:
        raise ValueError("kraus_from_choi expects a two-label Choi operator")
    out_label, in_label = max(c.labels), min(c.labels)
    c = c.permuted((out_label, in_label))
    if c.dims != (out_dim, in_dim):
        raise ValueError(f"Choi dims {c.dims} do not match ({out_dim}, {in_dim})")
    red = partial_trace(c, [out_label])
    if np.linalg.norm(red.matrix - np.eye(in_dim)) > 1e-8 * max(1.0, in_dim):
        raise ValueError("Choi operator is not trace preserving to tolerance")
    w, v = matcore.eigh(c.matrix)
    matcore.require_psd_spectrum(w, "Choi operator")
    kraus = [
        np.sqrt(w[j]) * matcore.undouble_ket(v[:, j], out_dim, in_dim)
        for j in range(len(w))
        if w[j] > 1e-12
    ]
    return Channel(tuple(kraus), in_dim, out_dim)


def apply_channel(ch: Channel, state: np.ndarray) -> np.ndarray:
    """sum_j K_j rho K_j† for a density matrix rho."""
    rho = np.asarray(state, dtype=complex)
    if rho.shape != (ch.in_dim, ch.in_dim):
        raise ValueError(f"state has shape {rho.shape}, channel input is {ch.in_dim}")
    out = np.zeros((ch.out_dim, ch.out_dim), dtype=complex)
    for k in ch.kraus:
        out += k @ rho @ k.conj().T
    return out


def compose_channels(second: Channel, first: Channel) -> Channel:
    """Kraus form of ``second ∘ first`` (first applied first)."""
    if first.out_dim != second.in_dim:
        raise ValueError("channel composition dimension mismatch")
    kraus = tuple(k2 @ k1 for k1 in first.kraus for k2 in second.kraus)
    return Channel(kraus, first.in_dim, second.out_dim)


def comb_from_sequence(channels: list[Channel]) -> MemoryChannel:
    """Memoryless N-use comb: tensor product of per-use Choi operators."""
    if not channels:
        raise ValueError("need at least one channel")
    parts = [
        choi_from_kraus(ch, out_label=2 * j + 1, in_label=2 * j)
        for j, ch in enumerate(channels)
    ]
    return MemoryChannel(tensor_many(parts).sorted(), len(channels))


@dataclass(frozen=True)
class IsometricComb:
    """Isometric realization of an N-use comb.

    Block ``n`` (0-based) is an isometry from (input space 2n ⊗ ancilla
    ``a_n``) to (output space 2n+1 ⊗ ancilla ``a_{n+1}``), with system factor
    first and ``a_0 = 1``.  The final ancilla is traced out.
    """

    blocks: tuple[np.ndarray, ...]
    system_dims: tuple[int, ...]
    ancilla_dims: tuple[int, ...]

    def __post_init__(self):
        n = len(self.blocks)
        if n < 1:
            raise ValueError("an isometric comb needs at least one use")
        if len(self.system_dims) != 2 * n:
            raise ValueError("need one (input, output) dim pair per block")
        if len(self.ancilla_dims) != n:
            raise ValueError("need one output-ancilla dim per block")
        blocks = _isometry_chain(self.blocks, self.system_dims, (1, *self.ancilla_dims), 0)
        object.__setattr__(self, "blocks", blocks)

    @property
    def uses(self) -> int:
        return len(self.blocks)


def _isometry_chain(blocks, system_dims, ancilla_dims, space0: int) -> tuple[np.ndarray, ...]:
    """The blocks of a chain as complex arrays, each checked to be an isometry.

    Block ``j`` maps (space ``space0 + 2j`` ⊗ ancilla wire ``j``) to (space
    ``space0 + 2j + 1`` ⊗ wire ``j + 1``); wire ``k`` has dimension
    ``ancilla_dims[k]``.
    """
    blocks = tuple(np.asarray(b, dtype=complex) for b in blocks)
    for j, b in enumerate(blocks):
        s = space0 + 2 * j
        din = system_dims[s] * ancilla_dims[j]
        dout = system_dims[s + 1] * ancilla_dims[j + 1]
        if b.shape != (dout, din):
            raise ValueError(f"block {j} has shape {b.shape}, expected ({dout}, {din})")
        if np.linalg.norm(b.conj().T @ b - np.eye(din)) > 1e-9 * max(1.0, din):
            raise ValueError(f"block {j} is not an isometry to tolerance")
    return blocks


def _ket_chain(blocks, system_dims, ancilla_dims, space0: int) -> np.ndarray:
    """Ket of the isometry composed from a chain laid out as in
    :func:`_isometry_chain`, as a ``(a_0, S, a_N)`` array: the input ancilla,
    the chain's system spaces in ascending label order, the output ancilla.

    The link product of pure Choi operators is the pure Choi operator of the
    composed isometry, so the chain's Choi operator is ``|K><K|`` with ``K``
    the blocks' kets contracted over their inner ancilla wires, row index
    with row index as :func:`matcore.link` pairs them: one GEMM per block.
    An empty chain is the identity on its one ancilla.
    """
    a = ancilla_dims[0]
    ket = np.eye(a, dtype=complex)
    for j, b in enumerate(blocks):
        s = space0 + 2 * j
        v = b.reshape(system_dims[s + 1], ancilla_dims[j + 1], system_dims[s], ancilla_dims[j])
        # ket[x, (p, in, out), y] = sum_k ket[x, p, k] v[out, y, in, k]
        v = v.transpose(3, 2, 0, 1).reshape(ancilla_dims[j], -1)
        ket = ket.reshape(-1, ancilla_dims[j]) @ v
    return ket.reshape(ancilla_dims[0], -1, ancilla_dims[len(blocks)])


def comb_from_isometries(comb: IsometricComb) -> MemoryChannel:
    """Choi operator of the comb induced by an isometric block chain.

    It is ``K K^dagger``, with ``K`` the chain's composed ket
    (:func:`_ket_chain`) read as a (comb side x final ancilla) matrix, so
    the GEMM itself traces out the final ancilla.
    """
    ket = _ket_chain(comb.blocks, comb.system_dims, (1, *comb.ancilla_dims), 0)[0]
    choi = LabeledOperator._built(ket @ ket.conj().T, range(2 * comb.uses), comb.system_dims)
    return MemoryChannel(choi, comb.uses)


@dataclass(frozen=True)
class CombValidation:
    """A comb check; its JSON report prints every field, ``kind`` first."""

    kind: str = field(default="comb", init=False)
    valid: bool
    max_residual: float
    level_residuals: dict = field(default_factory=dict)
    min_eigenvalue: float = 0.0


def validate_comb(mc: MemoryChannel, tol: float = 1e-9) -> CombValidation:
    """Check the recursive causal-structure constraints of a comb.

    A comb on spaces ``D`` is a normalization chain on ``(1,) + D``; one
    :func:`matcore.chain_levels` walk peels its uses from the last: tracing
    output ``2n-1`` of the n-use reduction must leave (the (n-1)-use reduction,
    its normalized trace over input ``2n-2``) ⊗ I, down to a scalar 1.
    """
    c = mc.choi
    levels: dict[int, float] = {}
    w = c.blocks.eigvalsh(c.matrix)
    scale = max(1.0, float(abs(w[-1])) if len(w) else 1.0)
    min_eig = float(w[0])
    current = c.matrix
    walk = matcore.chain_levels(current, (1,) + c.dims)
    for n, (lower, residual) in zip(range(mc.uses, 0, -1), walk):
        # the n-use reduction of a valid comb has trace = product of its
        # input dimensions, so a normalization deficit is charged to the
        # level where it first appears instead of trickling to the bottom
        expected_trace = float(np.prod(c.dims[0:2 * n:2]))
        trace_res = float(abs(np.trace(current) - expected_trace))
        levels[n] = max(float(np.linalg.norm(residual())), trace_res)
        current = lower
    levels[0] = float(abs(current[0, 0] - 1.0))
    max_res = max(max(levels.values()), max(0.0, -min_eig / scale))
    return CombValidation(
        valid=bool(max_res <= tol and min_eig >= -tol * scale),
        max_residual=max_res,
        level_residuals=levels,
        min_eigenvalue=min_eig,
    )
