import numpy as np
import pytest

from combtester.channels import (
    Channel,
    comb_from_sequence,
    identity_channel,
    unitary_channel,
)
from combtester.cli import _jsonable
from combtester.distances import (
    _lift,
    _memory_objective,
    cb_distance,
    memory_distance,
    unitary_cb_oracle,
)
from combtester.matcore import (
    LabeledOperator,
    hermitian_part,
    identity,
    psd_sqrt,
    tensor,
    trace_norm,
)
from combtester.optim import XiChainSet
from combtester.sampling import haar_unitary, random_kraus, random_pure_state, rng_from
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


def _reference_cb(c0, c1, *, restarts, seed, max_iter=300, tol=1e-12):
    """The seesaw one restart at a time, as ``cb_distance`` ran it before its
    restarts were stacked: (value, iterations, restarts, history)."""
    c0 = c0.sorted()
    diff = c0 - c1.permuted(c0.labels)
    d_in, d_out = diff.dims
    delta, side = diff.matrix, d_in * d_in
    dt = delta.T.reshape(d_in, d_out, d_in, d_out).transpose(0, 2, 1, 3).reshape(side, -1)
    rng = rng_from(seed)
    starts = [np.eye(d_in).reshape(-1) / np.sqrt(d_in)]
    starts += [random_pure_state(side, rng) for _ in range(restarts - 1)]
    best_val, best_psi, best_hist, total_iter = -np.inf, None, [], 0
    for psi in starts:
        val_prev, local_val, local_psi, history = -np.inf, -1.0, psi, []
        for _ in range(max_iter):
            lift = _lift(psi.reshape(d_in, d_in).T, d_out)
            w, v = np.linalg.eigh(hermitian_part(lift @ delta @ lift.conj().T))
            val = float(np.abs(w).sum())
            history.append(val)
            total_iter += 1
            if val > local_val:
                local_val, local_psi = val, psi
            if val <= val_prev + tol:
                break
            val_prev = val
            s = (v * np.sign(w)) @ v.conj().T
            s = s.reshape(d_in, d_out, d_in, d_out).transpose(1, 3, 0, 2).reshape(-1, side)
            h = (dt @ s).reshape((d_in,) * 4).transpose(0, 2, 1, 3).reshape(side, side)
            psi = np.linalg.eigh(hermitian_part(h))[1][:, -1]
        if local_val > best_val:
            best_val, best_psi, best_hist = local_val, local_psi, history
    m = best_psi.reshape(d_in, d_in)
    rho = m.conj() @ m.T
    rho = hermitian_part(rho / np.trace(rho).real)
    value = _memory_objective(diff, diff.labels[-1])[0](rho)
    return value, total_iter, len(starts), best_hist


@pytest.mark.parametrize("d_in,d_out", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_cb_stacked_restarts_match_one_at_a_time(d_in, d_out):
    rng = np.random.default_rng(12 + 4 * d_in + d_out)
    channels = [Channel(tuple(random_kraus(d_in, d_out, 2, rng)), d_in, d_out)
                for _ in range(4)]
    if d_in == d_out:
        channels += [unitary_channel(haar_unitary(d_in, rng)) for _ in range(2)]
    chois = [comb_from_sequence([ch]).choi for ch in channels]
    for k, (a, b) in enumerate(zip(chois[::2], chois[1::2])):
        for kw in ({"restarts": 5}, {"restarts": 5, "tol": -np.inf, "max_iter": 25},
                   {"restarts": 5, "max_iter": 0}, {"restarts": 1}):
            est = cb_distance(a, b, seed=k, **kw)
            value, iterations, restarts, history = _reference_cb(a, b, seed=k, **kw)
            assert (est.restarts, est.iterations, len(est.history)) == (
                restarts, iterations, len(history))
            assert abs(est.value - value) <= 1e-12
            assert np.allclose(est.history, history, rtol=0, atol=1e-12)


def test_cb_max_iter_zero_certifies_the_maximally_entangled_start():
    rng = np.random.default_rng(13)
    a = comb_from_sequence([random_qubit_channel(rng)]).choi
    b = comb_from_sequence([random_qubit_channel(rng)]).choi
    est = cb_distance(a, b, restarts=4, seed=0, max_iter=0)
    assert (est.iterations, est.restarts, est.capped, est.history) == (0, 4, 4, [])
    assert np.allclose(est.achiever.matrix, np.eye(2) / 2, rtol=0, atol=1e-15)
    assert abs(est.value - _memory_objective(a - b, 1)[0](np.eye(2) / 2)) <= 1e-12


def test_capped_restarts_are_counted():
    rng = np.random.default_rng(14)
    a = comb_from_sequence([random_qubit_channel(rng)]).choi
    b = comb_from_sequence([random_qubit_channel(rng)]).choi
    fixed = cb_distance(a, b, restarts=4, seed=1, max_iter=10, tol=-np.inf)
    assert fixed.capped == 4 and _jsonable(fixed)["capped"] == 4
    assert cb_distance(a, b, restarts=4, seed=1).capped == 0
    assert cb_distance(a, a, restarts=3, seed=0).capped == 0
    mc = comb_from_sequence([identity_channel(2), identity_channel(2)])
    ma = comb_from_sequence([random_qubit_channel(rng), random_qubit_channel(rng)])
    assert memory_distance(ma, mc, restarts=2, seed=0, max_iter=1).capped == 2
    # identical combs: every step is rejected, so the step shrinks below 1e-10
    assert memory_distance(mc, mc, restarts=2, seed=0, max_iter=200).capped == 0


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
    value, _ = _memory_objective(delta, 3)
    assert abs(est.value - value(est.achiever.matrix)) <= 1e-9


def test_memory_starts_are_projected_once(monkeypatch):
    # the uniform start is feasible by construction and a random start is
    # projected as it is drawn; neither is projected again before the ascent
    calls = []
    project = XiChainSet.project

    def counted(self, x, *args, **kwargs):
        calls.append(x.shape)
        return project(self, x, *args, **kwargs)

    monkeypatch.setattr(XiChainSet, "project", counted)
    rng = np.random.default_rng(15)
    a = comb_from_sequence([random_qubit_channel(rng), random_qubit_channel(rng)])
    b = comb_from_sequence([random_qubit_channel(rng), random_qubit_channel(rng)])
    est = memory_distance(a, b, restarts=2, seed=0, max_iter=0)
    assert len(calls) == 1
    assert est.restarts == 2 and est.iterations == 0
