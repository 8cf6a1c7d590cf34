import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from combtester.matcore import LabeledOperator, hermitian_part
from combtester.optim import XiChainSet, project_simplex, project_to_density
from combtester.sampling import random_density, rng_from


def test_project_simplex():
    w = np.array([0.4, 1.2, -0.3])
    p = project_simplex(w)
    assert abs(p.sum() - 1.0) < 1e-12 and p.min() >= 0.0
    already = np.array([0.25, 0.75])
    assert np.abs(project_simplex(already) - already).max() < 1e-12


def test_project_to_density():
    rng = rng_from(1)
    h = hermitian_part(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rho = project_to_density(h)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    rho0 = random_density(4, rng)
    assert np.abs(project_to_density(rho0) - rho0).max() < 1e-10


def test_affine_projection_is_idempotent_and_feasible():
    rng = rng_from(3)
    xi_set = XiChainSet((2, 2, 2))
    x = hermitian_part(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    p1 = xi_set.project_affine(x)
    p2 = xi_set.project_affine(p1)
    assert np.abs(p1 - p2).max() < 1e-10
    violation = [np.linalg.norm(r) for r in xi_set.chain_residuals(p1)]
    violation.append(np.trace(p1).real - xi_set.trace_target)
    assert np.linalg.norm(violation) < 1e-10


def _random_hermitian(side, rng):
    h = hermitian_part(rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
    return h / np.linalg.norm(h)


def _hermitian_basis(side):
    """Orthonormal basis of the Hermitian side x side matrices (Hilbert-Schmidt)."""
    basis = []
    for j in range(side):
        for k in range(j, side):
            e = np.zeros((side, side), dtype=complex)
            if j == k:
                e[j, j] = 1.0
                basis.append(e)
                continue
            e[j, k] = e[k, j] = 2 ** -0.5
            basis.append(e)
            f = np.zeros((side, side), dtype=complex)
            f[j, k], f[k, j] = -1j * 2 ** -0.5, 1j * 2 ** -0.5
            basis.append(f)
    return basis


def _lstsq_projection(xi_set, x):
    """Nearest point of the affine chain set, from its constraints alone."""
    def constraints(h):
        blocks = [r.ravel() for r in xi_set.chain_residuals(h)]
        flat = np.concatenate(blocks) if blocks else np.zeros(0)
        return np.concatenate([flat.real, flat.imag, [np.trace(h).real - xi_set.trace_target]])

    basis = _hermitian_basis(xi_set.side)
    offset = constraints(np.zeros_like(x))
    lin = np.column_stack([constraints(e) - offset for e in basis])
    step = np.linalg.lstsq(lin, -constraints(x), rcond=None)[0]
    return x + sum(c * e for c, e in zip(step, basis))


chain_dims = st.integers(1, 3).flatmap(
    lambda uses: st.lists(st.integers(2, 3), min_size=2 * uses - 1, max_size=2 * uses - 1))


@settings(max_examples=40, deadline=None)
@given(dims=chain_dims, seed=st.integers(0, 2 ** 32 - 1))
def test_affine_projection_laws(dims, seed):
    rng = rng_from(seed)
    xi_set = XiChainSet(dims)
    x, y = (_random_hermitian(xi_set.side, rng) for _ in range(2))
    p = xi_set.project_affine(x)
    # idempotent
    assert np.abs(xi_set.project_affine(p) - p).max() <= 1e-12
    # trace-exact, and every chain level holds
    assert abs(np.trace(p).real - xi_set.trace_target) <= 1e-12
    assert all(np.linalg.norm(r) <= 1e-12 for r in xi_set.chain_residuals(p))
    # the linear part is self-adjoint under the Hilbert-Schmidt inner product
    p0 = xi_set.project_affine(np.zeros_like(x))
    lx, ly = p - p0, xi_set.project_affine(y) - p0
    assert abs(np.vdot(lx, y) - np.vdot(x, ly)) <= 1e-12
    if xi_set.side <= 16:
        assert np.abs(_lstsq_projection(xi_set, x) - p).max() <= 1e-12


def test_full_projection_lands_in_the_set():
    rng = rng_from(4)
    for dims in ((2,), (2, 2, 2), (2, 4, 2)):
        xi_set = XiChainSet(dims)
        x = hermitian_part(
            rng.normal(size=(xi_set.side, xi_set.side))
            + 1j * rng.normal(size=(xi_set.side, xi_set.side))
        )
        p = xi_set.project(x)
        assert xi_set.membership_residual(p) < 1e-9
        assert xi_set.membership_residual(xi_set.uniform()) < 1e-12
        assert xi_set.membership_residual(xi_set.random_feasible(rng)) < 1e-9


def test_embed_state_is_feasible_and_consistent():
    rng = rng_from(5)
    xi_set = XiChainSet((2, 3, 2))
    rho = random_density(4, rng)
    lifted = xi_set.embed_state(LabeledOperator(rho, (0, 2), (2, 2)))
    assert xi_set.membership_residual(lifted) < 1e-10
    assert abs(np.trace(lifted).real - xi_set.trace_target) < 1e-10
