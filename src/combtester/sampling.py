"""Seeded random generators for states, unitaries, channels and circuits."""

from __future__ import annotations

import numpy as np

from .matcore import psd_inv_sqrt_matrix


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def haar_unitary(d: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    rng = rng_from(rng)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_isometry(dim_out: int, dim_in: int, rng) -> np.ndarray:
    """Random isometry (dim_out x dim_in, dim_out >= dim_in) with V†V = I."""
    if dim_out < dim_in:
        raise ValueError("isometry needs dim_out >= dim_in")
    return haar_unitary(dim_out, rng)[:, :dim_in]


def random_pure_state(d: int, rng) -> np.ndarray:
    rng = rng_from(rng)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_density(d: int, rng) -> np.ndarray:
    rng = rng_from(rng)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_psd(d: int, rng) -> np.ndarray:
    rng = rng_from(rng)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g @ g.conj().T


def random_kraus(dim_in: int, dim_out: int, n_kraus: int, rng) -> list[np.ndarray]:
    """Kraus operators of a random channel from a Haar Stinespring isometry."""
    v = haar_isometry(dim_out * n_kraus, dim_in, rng)
    # v maps H_in -> H_out ⊗ H_env with env index the slow one here
    blocks = v.reshape(n_kraus, dim_out, dim_in)
    return [blocks[j] for j in range(n_kraus)]


def random_povm(d: int, n_outcomes: int, rng) -> list[np.ndarray]:
    rng = rng_from(rng)
    raw = [random_psd(d, rng) for _ in range(n_outcomes)]
    s = psd_inv_sqrt_matrix(sum(raw))
    return [s @ a @ s for a in raw]
