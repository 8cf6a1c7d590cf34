import numpy as np
import pytest

from combtester.channels import (
    Channel,
    comb_from_sequence,
    identity_channel,
    unitary_channel,
)
from combtester.distances import (
    cb_distance,
    memory_distance,
    unitary_cb_oracle,
)
from combtester.matcore import LabeledOperator, identity, psd_sqrt, tensor, trace_norm
from combtester.optim import XiChainSet
from combtester.sampling import haar_unitary, random_kraus
from combtester.separation import build_example
from combtester.unitary import angular_spread, discriminability

X = np.array([[0, 1], [1, 0]], dtype=complex)


def qubit_choi(u):
    return comb_from_sequence([unitary_channel(u)]).choi


def random_qubit_channel(rng, k=2):
    return Channel(tuple(random_kraus(2, 2, k, rng)), 2, 2)


def test_oracle_identical():
    rng = np.random.default_rng(0)
    u = haar_unitary(3, rng)
    assert unitary_cb_oracle(u, u) == 0.0


def test_oracle_antipodal_phases():
    assert abs(unitary_cb_oracle(np.eye(2), X) - 2.0) < 1e-12


def test_oracle_phase_chord():
    for theta in (0.4, np.pi / 2, 2.0):
        u = np.diag([1.0, np.exp(1j * theta)])
        assert abs(unitary_cb_oracle(np.eye(2), u) - 2 * np.sin(theta / 2)) < 1e-12


def test_oracle_is_the_spread_form():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        for _ in range(5):
            u, v = haar_unitary(d, rng), haar_unitary(d, rng)
            nu = discriminability(u.conj().T @ v)
            assert abs(unitary_cb_oracle(u, v) - 2 * np.sqrt(1 - nu**2)) <= 1e-12
    w = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    u = haar_unitary(3, rng)
    assert angular_spread(w) > np.pi
    assert unitary_cb_oracle(u, u @ w) == 2.0


def test_oracle_accepts_inputs_within_its_tolerance():
    rng = np.random.default_rng(10)
    u, v = haar_unitary(3, rng), haar_unitary(3, rng)
    h = rng.normal(size=(3, 3))
    near = u @ (np.eye(3) + 1.2e-10 * (h + h.T) / np.linalg.norm(h + h.T))
    assert np.linalg.norm(near.conj().T @ near - np.eye(3)) <= 1e-10 * 3
    assert abs(unitary_cb_oracle(near, v) - unitary_cb_oracle(u, v)) <= 1e-8


def test_oracle_rejects_non_unitary():
    with pytest.raises(ValueError):
        unitary_cb_oracle(np.eye(2) * 2.0, np.eye(2))


def test_cb_identical_channels():
    c = qubit_choi(np.eye(2))
    est = cb_distance(c, c, restarts=3, seed=0)
    assert est.value == 0.0


def test_cb_identity_vs_exchange():
    est = cb_distance(qubit_choi(np.eye(2)), qubit_choi(X), restarts=8, seed=0)
    assert abs(est.value - 2.0) < 1e-4


def test_cb_phase_gate():
    u = np.diag([1.0, np.exp(1j * np.pi / 2)])
    est = cb_distance(qubit_choi(np.eye(2)), qubit_choi(u), restarts=8, seed=0)
    assert abs(est.value - np.sqrt(2)) < 1e-3


def test_cb_matches_oracle_on_haar_pairs():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        for _ in range(10):
            u, v = haar_unitary(d, rng), haar_unitary(d, rng)
            a = comb_from_sequence([unitary_channel(u)]).choi
            b = comb_from_sequence([unitary_channel(v)]).choi
            est = cb_distance(a, b, restarts=10, seed=2)
            oracle = unitary_cb_oracle(u, v)
            assert abs(est.value - oracle) <= 1e-3 * max(oracle, 1e-6)


def test_cb_certified_at_achiever_and_in_range():
    rng = np.random.default_rng(3)
    a = comb_from_sequence([random_qubit_channel(rng)]).choi
    b = comb_from_sequence([random_qubit_channel(rng)]).choi
    est = cb_distance(a, b, restarts=6, seed=0)
    delta = LabeledOperator(
        a.permuted((1, 0)).matrix - b.permuted((1, 0)).matrix, (1, 0), (2, 2)
    )
    lift = tensor(psd_sqrt(est.achiever), identity([1], [2])).permuted((1, 0))
    direct = trace_norm(lift.matrix @ delta.matrix @ lift.matrix)
    assert abs(est.value - direct) <= 1e-9
    assert -1e-12 <= est.value <= 2 + 1e-9


def test_cb_symmetry():
    rng = np.random.default_rng(4)
    a = comb_from_sequence([random_qubit_channel(rng)]).choi
    b = comb_from_sequence([random_qubit_channel(rng)]).choi
    ab = cb_distance(a, b, restarts=8, seed=5).value
    ba = cb_distance(b, a, restarts=8, seed=5).value
    assert abs(ab - ba) <= 1e-6


def test_cb_history_monotone_at_fixed_steps():
    rng = np.random.default_rng(8)
    pairs = [(qubit_choi(haar_unitary(2, rng)), qubit_choi(haar_unitary(2, rng)))]
    pairs += [(comb_from_sequence([random_qubit_channel(rng)]).choi,
               comb_from_sequence([random_qubit_channel(rng)]).choi) for _ in range(3)]
    for a, b in pairs:
        h = cb_distance(a, b, restarts=4, seed=1, max_iter=30, tol=-np.inf).history
        assert len(h) == 30
        assert all(y >= x - 1e-12 * max(1.0, abs(x)) for x, y in zip(h, h[1:]))


def test_cb_ignores_factor_order():
    rng = np.random.default_rng(9)
    a = comb_from_sequence([random_qubit_channel(rng)]).choi
    b = comb_from_sequence([random_qubit_channel(rng)]).choi
    est = cb_distance(a, b, restarts=4, seed=3)
    swapped = cb_distance(a, b.permuted((1, 0)), restarts=4, seed=3)
    assert swapped.value == est.value
    assert swapped.history == est.history


def test_memory_identical():
    mc = comb_from_sequence([identity_channel(2), identity_channel(2)])
    est = memory_distance(mc, mc, restarts=2, seed=0, max_iter=30)
    assert est.value <= 1e-9


def test_memory_reduces_to_cb_for_single_use():
    rng = np.random.default_rng(5)
    for k in range(4):
        a = comb_from_sequence([random_qubit_channel(rng)])
        b = comb_from_sequence([random_qubit_channel(rng)])
        cbv = cb_distance(a.choi, b.choi, restarts=8, seed=k).value
        mdv = memory_distance(a, b, restarts=8, seed=k).value
        assert abs(cbv - mdv) <= 1e-4


def test_memory_counterexample_saturates_bound():
    inst = build_example(2)
    est = memory_distance(inst.c0, inst.c1, restarts=2, seed=0, max_iter=200)
    assert est.value >= 2 - 1e-3
    assert est.value <= 2 + 1e-9


def test_memory_dominates_product_embeddings():
    rng = np.random.default_rng(6)
    for k in range(3):
        a = comb_from_sequence([random_qubit_channel(rng), random_qubit_channel(rng)])
        b = comb_from_sequence([random_qubit_channel(rng), random_qubit_channel(rng)])
        est = memory_distance(a, b, restarts=4, seed=k, max_iter=150)
        xi_set = XiChainSet(a.choi.dims[:-1])
        delta = LabeledOperator(
            a.choi.matrix - b.choi.matrix, a.choi.labels, a.choi.dims
        )
        from combtester.distances import _memory_objective

        value, _ = _memory_objective(delta, 3)
        for _ in range(5):
            rho = np.kron(
                np.diag(np.random.default_rng(k).dirichlet([1, 1])),
                np.diag(np.random.default_rng(k + 1).dirichlet([1, 1])),
            ).astype(complex)
            embedded = xi_set.embed_state(
                LabeledOperator(rho, (0, 2), (2, 2))
            )
            assert est.value >= value(embedded) - 1e-6


def test_memory_certified_at_achiever():
    inst = build_example(2)
    est = memory_distance(inst.c0, inst.c1, restarts=1, seed=0, max_iter=100)
    delta = LabeledOperator(
        inst.c0.choi.matrix - inst.c1.choi.matrix,
        inst.c0.choi.labels, inst.c0.choi.dims,
    )
    from combtester.distances import _memory_objective

    value, _ = _memory_objective(delta, 3)
    assert abs(est.value - value(est.achiever.matrix)) <= 1e-9
