import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combtester.channels import (
    Channel,
    comb_from_sequence,
    identity_channel,
    unitary_channel,
)
import combtester
from combtester import distances, matcore
from combtester.cli import _jsonable
from combtester.distances import (
    _memory_objective,
    cb_distance,
    memory_distance,
    one_use_upper,
    unitary_cb_oracle,
)
from combtester.matcore import (
    Blocks,
    LabeledOperator,
    hermitian_part,
    identity,
    psd_sqrt,
    tensor,
    trace_norm,
)
from combtester.optim import XiChainSet
from combtester.sampling import haar_unitary, random_kraus, rng_from
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


@pytest.mark.parametrize("u,v", [(np.eye(2), np.eye(3)), (np.ones((2, 3)), np.ones((2, 3))),
                                 (np.eye(3), np.ones((2, 3))), (np.ones(3), np.ones(3))])
def test_oracle_rejects_bad_shapes_before_testing_unitarity(u, v):
    with pytest.raises(ValueError, match="inputs must be square and of one size"):
        unitary_cb_oracle(u, v)


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


def test_cb_upper_bound_brackets_the_oracle_and_widens_when_truncated():
    # a qutrit pair below distance 2: the converged seesaw's interval is
    # narrow, one step leaves it visibly wide
    rng = np.random.default_rng(3)
    haar_unitary(2, rng), haar_unitary(2, rng)
    u, v = haar_unitary(3, rng), haar_unitary(3, rng)
    a, b = (comb_from_sequence([unitary_channel(m)]).choi for m in (u, v))
    oracle = unitary_cb_oracle(u, v)
    assert oracle < 2 - 1e-3
    full = cb_distance(a, b, restarts=10, seed=0)
    short = cb_distance(a, b, restarts=1, seed=0, max_iter=1)
    for est in (full, short):
        assert est.value <= oracle <= est.upper <= 2.0
    assert full.upper - full.value < 1e-5
    assert short.upper - short.value > 0.1


def test_memory_distance_bounds_one_use_only():
    one = [comb_from_sequence([c]) for c in (identity_channel(2), unitary_channel(X))]
    two = [comb_from_sequence([c, c]) for c in (identity_channel(2), unitary_channel(X))]
    est = memory_distance(*one, restarts=2, seed=0)
    assert est.upper == 2.0 and abs(est.value - 2.0) <= 1e-9
    assert est.value <= est.upper
    assert memory_distance(*two, restarts=1, seed=0, max_iter=5).upper is None


@pytest.mark.parametrize("ladder", [(1e-8,), distances.EPS_LADDER])
def test_one_use_upper_never_proves_a_feasible_pair_infeasible(ladder, monkeypatch):
    # identity against exchange, one use and two, is perfectly discriminated
    # by a product basis input: at that rank-deficient state, and at the
    # smallest mixing alone, where ||rho_eps^-1/2||^2 = d_in / 1e-8, the bound
    # stays at 2 within its allowance
    monkeypatch.setattr(distances, "EPS_LADDER", ladder)
    for uses in (1, 2):
        c0, c1 = (comb_from_sequence([c] * uses).choi
                  for c in (identity_channel(2), unitary_channel(X)))
        pure = np.diag(np.arange(2 ** uses) == 0).astype(complex)
        diagonal = Blocks.of(pure)
        upper, allowance = one_use_upper(c0, c1, c0.labels[1::2], diagonal, diagonal.pack(pure))
        assert upper >= 2 - allowance
        assert 0 < allowance < 1e-4


def test_cb_symmetry():
    rng = np.random.default_rng(4)
    a = comb_from_sequence([random_qubit_channel(rng)]).choi
    b = comb_from_sequence([random_qubit_channel(rng)]).choi
    ab = cb_distance(a, b, restarts=8, seed=5).value
    ba = cb_distance(b, a, restarts=8, seed=5).value
    assert abs(ab - ba) <= 1e-6


def test_cb_history_monotone_at_fixed_steps(monkeypatch):
    monkeypatch.setattr(distances, "GAP", -np.inf)  # no certified stop: fixed steps
    rng = np.random.default_rng(8)
    pairs = [(qubit_choi(haar_unitary(2, rng)), qubit_choi(haar_unitary(2, rng)))]
    pairs += [(comb_from_sequence([random_qubit_channel(rng)]).choi,
               comb_from_sequence([random_qubit_channel(rng)]).choi) for _ in range(3)]
    for a, b in pairs:
        h = cb_distance(a, b, restarts=4, seed=1, max_iter=30, tol=-np.inf).history
        assert len(h) == 4 * 30
        assert all(y >= x - 1e-12 * max(1.0, abs(x)) for x, y in zip(h, h[1:]))


def test_cb_ignores_factor_order():
    rng = np.random.default_rng(9)
    a = comb_from_sequence([random_qubit_channel(rng)]).choi
    b = comb_from_sequence([random_qubit_channel(rng)]).choi
    est = cb_distance(a, b, restarts=4, seed=3)
    swapped = cb_distance(a, b.permuted((1, 0)), restarts=4, seed=3)
    assert swapped.value == est.value
    assert swapped.history == est.history


def _reference_cb(c0, c1, *, max_iter=300, tol=1e-12):
    """The one-start seesaw with its over-relaxed step and no certified stop,
    lifted with ``np.kron``: (value, history)."""
    c0 = c0.sorted()
    diff = c0 - c1.permuted(c0.labels)
    d_in, d_out = diff.dims
    delta, side = diff.matrix, d_in * d_in
    dt = delta.T.reshape(d_in, d_out, d_in, d_out).transpose(0, 2, 1, 3).reshape(side, -1)

    def spectrum(psi):
        lift = np.kron(psi.reshape(d_in, d_in).T, np.eye(d_out))
        w, v = np.linalg.eigh(lift @ delta @ lift.conj().T)
        return w, v, float(np.abs(w).sum())

    psi = phi = np.eye(d_in).reshape(-1).astype(complex) / np.sqrt(d_in)
    val_prev, best_val, best_psi, history, beta = -np.inf, -1.0, psi, [], 1.0
    for _ in range(max_iter):
        w, v, val = spectrum(psi)
        if val <= val_prev + max(tol, 0.0):  # the trial lost: take the plain update
            (w, v, val), psi, beta = spectrum(phi), phi, max(beta / 2, 0.25)
        else:
            beta = min(beta * 1.5, 8.0)
        history.append(val)
        if val > best_val:
            best_val, best_psi = val, psi
        if val <= val_prev + tol:
            break
        val_prev = val
        s = (v * np.sign(w)) @ v.conj().T
        s = s.reshape(d_in, d_out, d_in, d_out).transpose(1, 3, 0, 2).reshape(-1, side)
        h = (dt @ s).reshape((d_in,) * 4).transpose(0, 2, 1, 3).reshape(side, side)
        phi = np.linalg.eigh(h)[1][:, -1]
        phase = np.exp(1j * np.angle((psi.conj() * phi).sum()))
        psi = phi + beta * (phi - phase * psi)
        psi /= np.linalg.norm(psi, axis=-1)
    m = best_psi.reshape(d_in, d_in)
    rho = m.conj() @ m.T
    rho = hermitian_part(rho / np.trace(rho).real)
    return _memory_objective(diff, diff.labels[-1])[0](rho), history


@pytest.mark.parametrize("d_in,d_out", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_cb_matches_the_one_start_reference(d_in, d_out, monkeypatch):
    monkeypatch.setattr(distances, "GAP", -np.inf)  # the reference has no certified stop
    rng = np.random.default_rng(12 + 4 * d_in + d_out)
    channels = [Channel(tuple(random_kraus(d_in, d_out, 2, rng)), d_in, d_out)
                for _ in range(4)]
    if d_in == d_out:
        channels += [unitary_channel(haar_unitary(d_in, rng)) for _ in range(2)]
    chois = [comb_from_sequence([ch]).choi for ch in channels]
    for a, b in zip(chois[::2], chois[1::2]):
        for kw in ({}, {"tol": -np.inf, "max_iter": 25}, {"max_iter": 0}):
            est = cb_distance(a, b, restarts=1, **kw)
            value, history = _reference_cb(a, b, **kw)
            assert est.iterations == len(est.history) == len(history)
            assert abs(est.value - min(2.0, value)) <= 1e-12
            assert np.allclose(est.history, history, rtol=0, atol=1e-12)


def test_cb_haar_qutrit_calls_match_the_reference_bit_for_bit(monkeypatch):
    # the shape of a cb-haar call, one start of 10 x 30 steps, not stopping
    monkeypatch.setattr(distances, "GAP", -np.inf)
    rng = np.random.default_rng(40)
    for k in range(3):
        a, b = (comb_from_sequence([unitary_channel(haar_unitary(3, rng))]).choi for _ in "ab")
        est = cb_distance(a, b, restarts=10, seed=k, max_iter=30, tol=-np.inf)
        value, history = _reference_cb(a, b, max_iter=300, tol=-np.inf)
        assert est.history == history
        assert est.value == min(2.0, value)
        assert est.iterations == 300


def test_cb_max_iter_zero_certifies_the_maximally_entangled_start():
    rng = np.random.default_rng(13)
    a = comb_from_sequence([random_qubit_channel(rng)]).choi
    b = comb_from_sequence([random_qubit_channel(rng)]).choi
    est = cb_distance(a, b, restarts=4, seed=0, max_iter=0)
    assert (est.iterations, est.capped, est.history) == (0, 1, [])
    assert np.allclose(est.achiever.matrix, np.eye(2) / 2, rtol=0, atol=1e-15)
    assert abs(est.value - _memory_objective(a - b, 1)[0](np.eye(2) / 2)) <= 1e-12


def test_open_estimates_are_capped(monkeypatch):
    rng = np.random.default_rng(14)
    a = comb_from_sequence([random_qubit_channel(rng)]).choi
    b = comb_from_sequence([random_qubit_channel(rng)]).choi
    with monkeypatch.context() as m:
        m.setattr(distances, "GAP", -np.inf)  # the seesaw runs its whole budget
        fixed = cb_distance(a, b, restarts=4, seed=1, max_iter=10, tol=-np.inf)
    assert (fixed.capped, fixed.iterations) == (1, 40) and _jsonable(fixed)["capped"] == 1
    assert cb_distance(a, b, restarts=4, seed=1).capped == 0
    assert cb_distance(a, a, restarts=3, seed=0).capped == 0
    mc = comb_from_sequence([identity_channel(2), identity_channel(2)])
    ma = comb_from_sequence([random_qubit_channel(rng), random_qubit_channel(rng)])
    assert memory_distance(ma, mc, restarts=2, seed=0, max_iter=1).capped == 1
    # identical combs: every step is rejected, so the step shrinks below 1e-10
    assert memory_distance(mc, mc, restarts=2, seed=0, max_iter=200).capped == 0


def test_cb_interval_closes_on_most_haar_qutrit_pairs():
    # the cb-haar call shape, one start of at most 10 x 30 steps
    rng = np.random.default_rng(41)
    closed = 0
    for k in range(20):
        a, b = (qubit_choi(haar_unitary(3, rng)) for _ in "ab")
        est = cb_distance(a, b, restarts=10, seed=k, max_iter=30, tol=-np.inf)
        closed += est.upper - est.value <= distances.GAP
    assert closed >= 10


def test_cb_open_interval_is_capped():
    rng = np.random.default_rng(16)
    a, b = (qubit_choi(haar_unitary(3, rng)) for _ in "ab")
    at_cap = cb_distance(a, b, restarts=1, max_iter=2, tol=-np.inf)
    assert at_cap.upper - at_cap.value > 1e-6
    assert (at_cap.capped, at_cap.iterations) == (1, 2)
    # a stall rule this loose stops the seesaw at its second step, open
    stalled = cb_distance(a, b, restarts=4, seed=0, tol=1.0)
    assert stalled.upper - stalled.value > 1e-6
    assert (stalled.capped, stalled.iterations) == (1, 2)


def _counted(monkeypatch, name):
    """A list that grows by one at each call of ``distances.<name>``."""
    calls, f = [], getattr(distances, name)
    monkeypatch.setattr(distances, name, lambda *args: calls.append(1) or f(*args))
    return calls


def _kraus_qutrit_pair(seed):
    rng = np.random.default_rng(seed)
    return [comb_from_sequence([Channel(tuple(random_kraus(3, 3, 2, rng)), 3, 3)]).choi
            for _ in "ab"]


def _open_qutrit_pair():
    """A pair that the plain seesaw step left open after 300 steps; the
    over-relaxed step closes it in 175."""
    return _kraus_qutrit_pair(2)


def _stubborn_qutrit_pair():
    """A pair near distance 2 whose interval closes only after 1035
    over-relaxed steps of the default budget; 300 leave it open (width
    9.6e-5), as the optimal input state is rank-deficient."""
    return _kraus_qutrit_pair(46)


@pytest.mark.parametrize("seed", [46, 47, 59])
def test_cb_default_call_closes_the_stubborn_qutrit_pairs(seed):
    # pairs that 20 random starts of 300 steps left open (widths 8.1e-5,
    # 6.5e-6 and 2.7e-5): one start with the same budget closes each
    est = cb_distance(*_kraus_qutrit_pair(seed))
    assert est.upper - est.value <= distances.GAP
    assert est.capped == 0


def test_cb_closed_call_certifies_once_per_check(monkeypatch):
    # the seesaw closes at step 15; its value rose by more than GAP in steps
    # 5 and 10, so the check that closes it is the only one made
    calls = _counted(monkeypatch, "one_use_upper")
    rng = np.random.default_rng(17)
    a, b = (qubit_choi(haar_unitary(3, rng)) for _ in "ab")
    est = cb_distance(a, b, restarts=4, seed=0, tol=-np.inf)
    assert est.upper - est.value <= distances.GAP
    assert (est.iterations, est.capped, len(calls)) == (15, 0, 1)


def test_cb_open_call_certifies_ever_less_often(monkeypatch):
    calls = _counted(monkeypatch, "one_use_upper")
    est = cb_distance(*_stubborn_qutrit_pair(), restarts=4, seed=0, max_iter=100)
    assert est.upper - est.value > distances.GAP
    assert (est.iterations, est.capped) == (400, 1)
    # a budget of 400 steps schedules checks after steps 5, 10, 15, 20, 25,
    # 31, 38, 47, 58, 72, 90, 112, 140, 175, 218, 272, 340 and 400.  The
    # value rose by more than GAP at each of the first 11 and by less at the
    # others: one certification at each of the last 7, not 80 at every 5
    best = np.maximum.accumulate(est.history)
    rose = [best[k - 1] - best[k - 2] > distances.GAP for k in (90, 112, 400)]
    assert rose == [True, False, False]
    assert len(calls) == 7


def test_cb_check_waits_while_the_best_rises(monkeypatch):
    # a budget of 300 steps: a scheduled check is made only where its
    # best value rose by at most GAP in that step, and at the last step
    calls = _counted(monkeypatch, "one_use_upper")
    est = cb_distance(*_stubborn_qutrit_pair(), restarts=1)
    assert est.iterations == 300 and est.upper - est.value > distances.GAP
    schedule = [5, 10, 15, 20, 25, 31, 38, 47, 58, 72, 90, 112, 140, 175, 218, 272]
    best = np.maximum.accumulate(est.history)
    rose = [best[k - 1] - best[k - 2] > distances.GAP for k in schedule]
    assert rose == [True] * 11 + [False] * 5
    assert len(calls) == 5 + 1


def test_cb_lead_closes_the_pair_the_plain_step_left_open():
    est = cb_distance(*_open_qutrit_pair())
    assert (est.iterations, est.capped) == (175, 0)
    assert est.upper - est.value <= distances.GAP


def test_cb_trial_is_kept_only_above_the_stall_tolerance():
    # on this pair the trial at step 55 gains 2.8e-13: kept for any gain, it
    # trips the stall rule (tol = 1e-12) at an input whose interval is 1.5e-6
    # wide, which ends the call open; the plain update taken in its place
    # stalls too, but closes the interval
    est = cb_distance(*_kraus_qutrit_pair(11))
    assert (est.iterations, est.capped) == (55, 0)
    assert est.upper - est.value <= distances.GAP


def _perfect_unitary_pair():
    """I against a unitary whose eigenphases 0, 2.1 and 4.2 spread beyond π:
    perfectly discriminable, at cb distance 2."""
    return qubit_choi(np.eye(3)), qubit_choi(np.diag(np.exp(1j * np.array([0.0, 2.1, 4.2]))))


def _first_step_near_2(history):
    return next((k + 1 for k, x in enumerate(history) if x > 2 - distances.GAP), None)


@pytest.mark.parametrize("kwargs", [{}, dict(restarts=10, max_iter=30, tol=-np.inf)],
                         ids=["default", "short"])
def test_cb_perfect_pair_closes_on_its_value_alone(monkeypatch, kwargs):
    # the value passes 2 - GAP at step 3, before the first scheduled check:
    # it is checked at once, and [value, 2] closes it with no dual bound
    calls = _counted(monkeypatch, "one_use_upper")
    est = cb_distance(*_perfect_unitary_pair(), **kwargs)
    assert est.upper == 2.0 and est.value >= 2 - distances.GAP
    assert (len(calls), est.capped) == (0, 0)
    assert est.iterations == _first_step_near_2(est.history) == 3 < distances.CHECK_EVERY


def test_cb_haar_pairs_stop_at_the_step_their_value_nears_2(monkeypatch):
    # the cb-haar call shape: a seesaw whose value passes 2 - GAP stops at that
    # step, on or off the schedule, and before step 5 it never reaches a
    # scheduled check, so no dual bound is computed
    calls = _counted(monkeypatch, "one_use_upper")
    rng = np.random.default_rng(41)
    early = 0
    for k in range(20):
        a, b = (qubit_choi(haar_unitary(3, rng)) for _ in "ab")
        before = len(calls)
        est = cb_distance(a, b, restarts=10, seed=k, max_iter=30, tol=-np.inf)
        near = _first_step_near_2(est.history)
        if near is None:
            continue
        assert (est.iterations, est.capped, est.upper) == (near, 0, 2.0)
        if near < distances.CHECK_EVERY:
            early += 1
            assert len(calls) == before
    assert early >= 2


def test_cb_off_schedule_check_ends_no_wave_early(monkeypatch):
    # a certified value held 2 GAP below the seesaw's never closes: every step
    # past 2 - GAP is checked off the schedule and left open, and the seesaw
    # still runs its whole budget: the off-schedule check at step 6, between
    # the scheduled ones at 5 and 7, is not its last
    objective = distances._memory_objective

    def lowered(*args):
        value, value_and_subgrad = objective(*args)
        return lambda xi: value(xi) - 2 * distances.GAP, value_and_subgrad

    monkeypatch.setattr(distances, "_memory_objective", lowered)
    calls = _counted(monkeypatch, "one_use_upper")
    est = cb_distance(*_perfect_unitary_pair(), restarts=1, max_iter=7, tol=-np.inf)
    assert (est.iterations, est.capped) == (7, 1)
    assert est.upper - est.value > distances.GAP
    assert len(calls) > 2  # more than the scheduled checks, at steps 5 and 7


@settings(derandomize=True, deadline=None, max_examples=25)
@given(d_in=st.sampled_from([2, 3]), d_out=st.sampled_from([2, 3]),
       ranks=st.tuples(st.integers(2, 3), st.integers(2, 3)), seed=st.integers(0, 2**32 - 1))
def test_cb_history_never_decreases(d_in, d_out, ranks, seed):
    # a kept trial gains more than max(tol, 0); a fallback takes the plain
    # update, which loses nothing but rounding
    rng = np.random.default_rng(seed)
    a, b = (comb_from_sequence([Channel(tuple(random_kraus(d_in, d_out, k, rng)), d_in,
                                        d_out)]).choi for k in ranks)
    for tol in (1e-12, -np.inf):
        h = cb_distance(a, b, restarts=2, seed=seed % 5, max_iter=60, tol=tol).history
        assert all(y >= x - 1e-12 * max(1.0, abs(x)) for x, y in zip(h, h[1:]))


def test_cb_closed_lead_imports_no_random_generator():
    # no step of the seesaw is random, so a call never imports numpy.random
    script = ("import sys, numpy as np; "
              "from combtester.channels import comb_from_sequence, unitary_channel; "
              "from combtester.distances import cb_distance; "
              "u = np.diag(np.exp(1j * np.array([0.0, 1.0, 2.5]))); "
              "a, b = (comb_from_sequence([unitary_channel(m)]).choi for m in (np.eye(3), u)); "
              "est = cb_distance(a, b); "
              "print(est.capped, 'numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(combtester.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == ["0", "False"]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_cb_interval_brackets_the_unitary_oracle(d, seed):
    rng = np.random.default_rng(seed)
    u, v = haar_unitary(d, rng), haar_unitary(d, rng)
    est = cb_distance(qubit_choi(u), qubit_choi(v), restarts=4, seed=seed % 7)
    oracle = unitary_cb_oracle(u, v)
    assert est.value <= oracle + 1e-12
    assert oracle <= est.upper
    assert est.capped > 0 or est.upper - est.value <= distances.GAP


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
        draws = np.random.default_rng(k)  # five distinct product states per pair
        for _ in range(5):
            rho = np.kron(
                np.diag(draws.dirichlet([1, 1])), np.diag(draws.dirichlet([1, 1]))
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


def test_memory_start_is_not_projected_before_the_ascent(monkeypatch):
    # the uniform start is feasible by construction, so a call of no steps
    # projects nothing
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
    assert len(calls) == 0
    assert (est.iterations, est.capped, len(est.history)) == (0, 1, 1)


@pytest.mark.parametrize("max_iter,fallbacks", [(1, 0), (4, 1)], ids=["1", "4"])
def test_cb_seesaw_takes_no_half_step_after_its_last(monkeypatch, max_iter, fallbacks):
    # each step values its trial input with one lift and one eigh, and the
    # plain update, where the trial lost, with one more of each (a fallback
    # solve); the half-step that moves psi runs between steps only, as one
    # eigh with no lift: a last half-step would move a psi that no step
    # values.  The solves are counted until the best psi is read out at the
    # end (the value function of _memory_objective, built once per call)
    rng = rng_from(3)
    a, b = (qubit_choi(haar_unitary(3, rng)) for _ in range(2))
    eighs, lifts, seen = [], [], []
    eigh, kron_eye = np.linalg.eigh, matcore.kron_eye
    objective = distances._memory_objective

    def counted_objective(*args):
        value, value_and_subgrad = objective(*args)
        return lambda xi: seen.append((len(eighs), len(lifts))) or value(xi), value_and_subgrad

    monkeypatch.setattr(np.linalg, "eigh", lambda h: eighs.append(1) or eigh(h))
    monkeypatch.setattr(matcore, "kron_eye", lambda r, n: lifts.append(1) or kron_eye(r, n))
    monkeypatch.setattr(distances, "_memory_objective", counted_objective)
    calls = _counted(monkeypatch, "one_use_upper")
    est = cb_distance(a, b, restarts=1, max_iter=max_iter, tol=-np.inf)
    assert (est.iterations, est.capped) == (max_iter, 1)
    # certified once, at the last step: a value solve per step and per
    # fallback, and a half-step between steps, as (eighs, lifts)
    assert len(calls) == 1
    assert seen == [(2 * max_iter - 1 + fallbacks, max_iter + fallbacks)]
