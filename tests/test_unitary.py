import numpy as np
import pytest

from combtester.sampling import haar_unitary
from combtester.unitary import (
    EigenphaseSet,
    angular_spread,
    check_spread_laws,
    discriminability,
    eigenphases,
    matching_conjugation,
    parallel_optimality_check,
    reduce_sequences,
    spread_of_phases,
    tensor_power_spread,
)
from util import random_spread_unitary


def test_spread_identity():
    assert angular_spread(np.eye(4)) == 0.0


def test_spread_antipodal():
    assert abs(angular_spread(np.diag([1.0, -1.0]).astype(complex)) - np.pi) < 1e-12


def test_spread_arc():
    u = np.diag([1.0, np.exp(1j * np.pi / 2), np.exp(1j * np.pi)])
    assert abs(angular_spread(u) - np.pi) < 1e-12


def test_spread_rejects_non_unitary():
    with pytest.raises(ValueError):
        angular_spread(np.diag([1.0, 2.0]))


def test_eigenphase_set_invariants():
    with pytest.raises(ValueError):
        EigenphaseSet(())
    with pytest.raises(ValueError):
        EigenphaseSet((7.0,))
    s = EigenphaseSet((3.0, 1.0))
    assert s.phases == (1.0, 3.0)
    assert abs(spread_of_phases(s) - 2.0) < 1e-12


def test_discriminability_values():
    assert discriminability(np.eye(2)) == 1.0
    assert discriminability(np.diag([1.0, -1.0]).astype(complex)) < 1e-12
    got = discriminability(np.diag([1.0, np.exp(1j * np.pi / 2)]))
    assert abs(got - np.sqrt(2) / 2) < 1e-12


def test_discriminability_zero_iff_spread_at_least_pi():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        u = haar_unitary(d, rng)
        theta = angular_spread(u)
        disc = discriminability(u)
        if theta >= np.pi + 1e-9:
            assert disc == 0.0
        if theta <= np.pi - 1e-9:
            assert disc > 0.0


def test_spread_laws_identity_pair():
    rep = check_spread_laws(np.eye(2), np.eye(2))
    assert rep.theta_x == rep.theta_y == rep.theta_product == rep.theta_tensor == 0.0
    assert rep.subadditivity_slack == 0.0 and rep.tensor_gap == 0.0


def test_spread_laws_diagonal_additivity():
    # exact additivity while the total arc stays within a semicircle
    for alpha, beta in ((0.3, 0.5), (1.0, 2.0), (0.1, 2.9)):
        x = np.diag([1.0, np.exp(1j * alpha)])
        y = np.diag([1.0, np.exp(1j * beta)])
        rep = check_spread_laws(x, y)
        assert rep.additive_guard == (alpha + beta <= np.pi)
        if rep.additive_guard:
            assert rep.tensor_gap < 1e-12
            assert abs(rep.theta_tensor - alpha - beta) < 1e-12


def test_spread_laws_wrap_regime_caps_the_arc():
    # beyond a semicircle the minimized covering arc of a sparse spectrum
    # re-closes: the tensor spread drops below the phase-interval sum
    alpha = 0.9 * np.pi
    x = np.diag([1.0, np.exp(1j * alpha)])
    rep = check_spread_laws(x, x)
    assert rep.guard and not rep.additive_guard
    # phases {0, alpha, 2*alpha}: largest gap is alpha, so the arc is 2*pi - alpha
    assert abs(rep.theta_tensor - (2 * np.pi - alpha)) < 1e-12
    assert rep.tensor_gap > 0.5  # the unguarded identity genuinely fails here


def test_spread_laws_randomized():
    rng = np.random.default_rng(1)
    for k in range(300):
        d = int(rng.integers(2, 5))
        x, y = haar_unitary(d, rng), haar_unitary(d, rng)
        rep = check_spread_laws(x, y, seed=k)
        assert rep.conjugation_gap <= 1e-9
        if rep.guard:
            assert rep.subadditivity_slack >= -1e-9
        if rep.additive_guard:
            assert rep.tensor_gap <= 1e-9


def test_reduce_sequences():
    rng = np.random.default_rng(2)
    ts = [haar_unitary(2, rng) for _ in range(3)]
    assert all(
        np.abs(u - np.eye(2)).max() < 1e-12 for u in reduce_sequences(ts, ts)
    )
    vs = [haar_unitary(2, rng) for _ in range(3)]
    eyes = [np.eye(2, dtype=complex)] * 3
    got = reduce_sequences(eyes, vs)
    assert all(np.abs(g - v).max() < 1e-12 for g, v in zip(got, vs))
    for u in reduce_sequences(ts, vs):
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
    with pytest.raises(ValueError):
        reduce_sequences(ts, vs[:2])


def test_matching_conjugation_common_eigenbasis():
    alpha = 0.4
    u = np.diag([1.0, np.exp(1j * alpha)])
    t = matching_conjugation(u, u)
    got = angular_spread(u @ t @ u @ t.conj().T)
    assert abs(got - 2 * alpha) < 1e-9
    assert abs(angular_spread(np.kron(u, u)) - 2 * alpha) < 1e-12


def test_matching_conjugation_rotated_basis():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    alpha, beta = 0.7, 1.1
    u = np.diag([1.0, np.exp(1j * alpha)])
    v = h @ np.diag([1.0, np.exp(1j * beta)]) @ h.conj().T
    t = matching_conjugation(u, v)
    got = angular_spread(u @ t @ v @ t.conj().T)
    assert abs(got - (alpha + beta)) < 1e-9


def test_matching_conjugation_randomized_additive_regime():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(300):
        d = int(rng.integers(2, 4))
        split = rng.uniform(0.2, 0.8)
        total = rng.uniform(0.2, np.pi - 0.01)
        u = random_spread_unitary(d, split * total, rng)
        v = random_spread_unitary(d, (1 - split) * total, rng)
        t = matching_conjugation(u, v)
        got = angular_spread(u @ t @ v @ t.conj().T)
        tens = angular_spread(np.kron(u, v))
        worst = max(worst, abs(got - tens))
    assert worst <= 1e-9


def test_matching_conjugation_diagonal_sum_oracle_all_regimes():
    # in every regime the conjugated product's spread equals the spread of
    # the paired phase sums
    from combtester.unitary import _arc_sorted_eigensystem

    rng = np.random.default_rng(4)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        u, v = haar_unitary(d, rng), haar_unitary(d, rng)
        t = matching_conjugation(u, v)
        got = angular_spread(u @ t @ v @ t.conj().T)
        pu, _ = _arc_sorted_eigensystem(u)
        pv, _ = _arc_sorted_eigensystem(v)
        sums = np.sort(np.mod(pu + pv, 2 * np.pi))
        gaps = np.diff(np.concatenate([sums, [sums[0] + 2 * np.pi]]))
        assert abs(got - (2 * np.pi - gaps.max())) < 1e-8


def test_matching_conjugation_unitary_on_clusters_straddling_zero():
    # a threefold eigenphase 0 splits under rounding into phases near 0 and
    # near 2*pi; the cluster is still orthonormalized as one
    rng = np.random.default_rng(7)
    phases = np.diag(np.exp(1j * np.array([0.0, 0.0, 0.0, 2.0])))
    worst = 0.0
    for _ in range(100):
        u, v = (b @ phases @ b.conj().T for b in (haar_unitary(4, rng), haar_unitary(4, rng)))
        t = matching_conjugation(u, v)
        worst = max(worst, np.abs(t.conj().T @ t - np.eye(4)).max())
    assert worst <= 1e-10


def test_parallel_optimality_quarter_turn():
    u = np.diag([1.0, np.exp(1j * np.pi / 2)])
    rep = parallel_optimality_check(u, 2)
    assert abs(rep.theta_joint - np.pi) < 1e-12
    assert rep.threshold_uses == 2 and rep.threshold_reached


def test_parallel_optimality_identity():
    rep = parallel_optimality_check(np.eye(2), 3)
    assert rep.theta_joint == 0.0
    assert rep.threshold_uses is None and not rep.threshold_reached


def test_parallel_optimality_matches_direct_kron():
    rng = np.random.default_rng(5)
    for _ in range(30):
        u = haar_unitary(2, rng)
        theta = angular_spread(u)
        if theta < np.pi / 4:
            continue  # keep the direct Kronecker below 4 uses
        rep = parallel_optimality_check(u, 2)
        direct = angular_spread(np.kron(u, u))
        assert abs(rep.theta_joint - direct) < 1e-9
        n = rep.threshold_uses
        assert n == int(np.ceil(np.pi / theta))
        m = u
        for _ in range(n - 1):
            m = np.kron(m, u)
        assert (angular_spread(m) >= np.pi - 1e-9) == rep.threshold_reached
        assert rep.threshold_reached


def test_parallel_optimality_small_spread_keeps_the_phase_sums_few():
    # the threshold ceil(pi / theta) grows as theta shrinks; 315 uses of a
    # qubit phase gate have 316 distinct phase sums, not 2**315 ordered ones
    for theta, uses in ((0.1, 32), (0.01, 315)):
        rep = parallel_optimality_check(np.diag([1.0, np.exp(1j * theta)]), 2)
        assert abs(rep.theta_joint - 2 * theta) < 1e-12
        assert rep.threshold_uses == uses and rep.threshold_reached


def test_parallel_optimality_threshold_reads_few_phase_sums_of_a_qudit():
    # six phases in [0, 0.05] reach pi at 71 uses, which have C(76, 5), about
    # 1.8e7, distinct phase sums; the threshold is read from 72 of them
    u = np.diag(np.exp(1j * np.random.default_rng(0).uniform(0, 0.05, 6)))
    rep = parallel_optimality_check(u, 2)
    assert rep.threshold_uses == 71 and rep.threshold_reached


def test_parallel_optimality_additive_spread_matches_all_phase_sums():
    # while (n + 1) theta <= 2 pi the joint spread is read from the n + 1
    # arc-end sums, past n theta = pi too
    rng = np.random.default_rng(11)
    checked = past_pi = 0
    for d in (2, 3, 4):
        for _ in range(12):
            u = random_spread_unitary(d, rng.uniform(0.05, np.pi), rng)
            theta = angular_spread(u)
            for n in range(1, 9):
                if (n + 1) * theta > 2 * np.pi:
                    break
                rep = parallel_optimality_check(u, n)
                assert abs(rep.theta_joint - tensor_power_spread(u, n)) <= 1e-12
                checked += 1
                past_pi += n * theta > np.pi
    assert checked >= 60 and past_pi >= 20


def test_parallel_optimality_additive_spread_reads_two_phases(monkeypatch):
    # 60 uses of six phases in [0, 0.05] have C(65, 5), about 8.3e6, distinct
    # phase sums, 139 uses about 4.8e8; while (uses + 1) theta <= 2 pi the
    # spread and the threshold both read two-phase ends
    from combtester import unitary

    def two_phases_only(u, n):
        assert np.shape(u) == (2, 2), np.shape(u)
        return tensor_power_spread(u, n)

    monkeypatch.setattr(unitary, "tensor_power_spread", two_phases_only)
    u = np.diag(np.exp(1j * np.random.default_rng(0).uniform(0, 0.05, 6)))
    for uses in (60, 71, 139):
        rep = parallel_optimality_check(u, uses)
        assert rep.additive_guard == (uses == 60)
        assert abs(rep.theta_joint - uses * rep.theta) <= 1e-9
        assert rep.threshold_uses == 71 and rep.threshold_reached


def test_tensor_power_spread_matches_all_phase_sums():
    # reference: every ordered sum of n eigenphases, deduplicated only at the end
    rng = np.random.default_rng(7)
    for n in range(1, 8):
        u = haar_unitary(3, rng)
        ph = np.asarray(eigenphases(u).phases)
        sums = np.zeros(1)
        for _ in range(n):
            sums = np.add.outer(sums, ph).reshape(-1)
        uniq = np.unique(np.round(np.mod(sums, 2 * np.pi), 12))
        reference = 2 * np.pi - np.diff(np.concatenate([uniq, [uniq[0] + 2 * np.pi]])).max()
        assert abs(tensor_power_spread(u, n) - reference) < 1e-12


def test_tensor_power_spread_matches_kron():
    rng = np.random.default_rng(6)
    for _ in range(10):
        u = haar_unitary(2, rng)
        assert abs(tensor_power_spread(u, 3)
                   - angular_spread(np.kron(np.kron(u, u), u))) < 1e-9


def test_spread_equals_pi_enables_single_use_discrimination():
    # cross-module check: spread >= pi iff a single-use perfect tester exists
    from combtester.channels import comb_from_sequence, identity_channel, unitary_channel
    from combtester.discrimination import (
        delta_matrix,
        parallel_discriminable,
        synthesize_tester,
    )

    rng = np.random.default_rng(7)
    for _ in range(5):
        basis = haar_unitary(3, rng)
        phases = np.array([0.0, 1.2, np.pi + 0.2])
        u = basis @ np.diag(np.exp(1j * phases)) @ basis.conj().T
        assert discriminability(u) == 0.0
        ci = comb_from_sequence([identity_channel(3)])
        cu = comb_from_sequence([unitary_channel(u)])
        rep = parallel_discriminable(ci.choi, cu.choi, restarts=6, seed=0)
        assert rep.feasible
        t = synthesize_tester(ci, cu, rep.witness)
        assert np.abs(delta_matrix(t, [ci, cu]) - np.eye(2)).max() <= 1e-6
