"""Acceptance suite: one check per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.

Two checks are pinned to quoted reference claims that the library's own
verified algebra contradicts, and they fail by design rather than being
silently adjusted:

* criterion 1a quotes ``Tr_13[C0 C1] = I/d^2`` for the counterexample pair;
  the product of the stated Choi operators partial-traces to ``I/d^3``
  exactly (checked to 1e-15 here and provable by telescoping the traces:
  ``Tr[C0 C1] = 1/d``, while the quoted constant would force trace 1).  The
  impossibility argument itself only needs proportionality to the identity,
  which holds and is asserted in the verified companion.
* criterion 6 asserts tensor additivity of the angular spread, and spread
  matching for the eigenbasis-aligned product, for total spreads up to 2*pi.
  The spread of a sparse spectrum re-minimizes its covering arc once the
  accumulated phases pass a semicircle (e.g. phases {0, 0.9*pi} tensored
  with themselves give arc 1.1*pi, not 1.8*pi), so the additive identities
  are theorems only up to total spread pi; the verified companions assert
  exactly that regime and pass.
"""

import time

import numpy as np
import pytest

from combtester import testers, unitary
from combtester.channels import (
    Channel,
    MemoryChannel,
    comb_from_isometries,
    comb_from_sequence,
    identity_channel,
    unitary_channel,
    validate_comb,
)
from combtester.cli import main as cli_main
from combtester.discrimination import (
    delta_matrix,
    parallel_discriminable,
    synthesize_tester,
)
from combtester.distances import cb_distance, memory_distance, unitary_cb_oracle
from combtester.sampling import haar_unitary, random_kraus, rng_from
from combtester.separation import build_example, causal_protocol, verify_parallel_impossible
from combtester.testers import Tester, validate_tester
from combtester.unitary import angular_spread, discriminability, matching_conjugation
from util import (
    random_isometric_comb,
    random_spread_unitary,
    random_tester_circuit,
    unitary_with_spread_at_least,
)


def _line(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


# -- criterion 1: counterexample separation ----------------------------------


@pytest.fixture(scope="module")
def counterexample_runs():
    runs = {}
    for d in (2, 3, 4):
        t0 = time.monotonic()
        inst = build_example(d)
        imp = verify_parallel_impossible(inst)
        psi = np.zeros(d, dtype=complex)
        psi[0] = 1.0
        tester, table = causal_protocol(inst, psi)
        elapsed = time.monotonic() - t0
        runs[d] = {
            "instance": inst,
            "impossibility": imp,
            "tester": tester,
            "table": table,
            "elapsed": elapsed,
        }
    return runs


def test_criterion_1a_trace_identity_as_stated(counterexample_runs):
    worst = max(r["impossibility"].quoted_constant_residual
                for r in counterexample_runs.values())
    ok = worst <= 1e-12
    _line("1a (as stated)", ok,
          f"max ||Tr_13[C0 C1] - I/d^2||_F = {worst:.3e} (tolerance 1e-12)")
    assert ok, (
        f"||Tr_13[C0 C1] - I/d^2||_F = {worst:.3e}: the quoted constant 1/d^2 "
        "does not match these Choi operators; the product partial-traces to "
        "I/d^3 exactly (see the verified companion test and the module "
        "docstring). Proportionality to the identity, which is what the "
        "impossibility proof uses, holds to 1e-15."
    )


def test_criterion_1a_trace_identity_verified(counterexample_runs):
    worst_id = max(r["impossibility"].identity_residual
                   for r in counterexample_runs.values())
    worst_prop = max(r["impossibility"].proportionality_residual
                     for r in counterexample_runs.values())
    ok = worst_id <= 1e-12 and worst_prop <= 1e-12
    _line("1a (verified)", ok,
          f"max ||Tr_13[C0 C1] - I/d^3||_F = {worst_id:.3e}, "
          f"proportionality residual {worst_prop:.3e} (tolerance 1e-12)")
    assert ok
    for d, r in counterexample_runs.items():
        assert r["impossibility"].solver.residual > 1e-8  # never feasible


def test_criterion_1b_adaptive_tester(counterexample_runs):
    worst = max(np.abs(r["table"] - np.eye(2)).max()
                for r in counterexample_runs.values())
    ok = worst <= 1e-10
    _line("1b", ok, f"max |Tr[P_i C_j] - delta_ij| = {worst:.3e} over d in 2..4 "
                    "(tolerance 1e-10)")
    assert ok
    for d, r in counterexample_runs.items():
        assert validate_tester(r["tester"], 1e-9).valid


def test_criterion_1_runtime(counterexample_runs, capsys):
    t0 = time.monotonic()
    rc = cli_main(["paper-example", "--d", "4"])
    elapsed = time.monotonic() - t0
    capsys.readouterr()
    ok = rc == 0 and elapsed < 30.0
    _line("1 (runtime)", ok, f"paper-example --d 4 finished in {elapsed:.1f}s "
                             f"with exit code {rc} (budget 30 s)")
    assert ok


# -- criterion 2: Born rule equals circuit simulation -------------------------


def test_criterion_2_born_equals_simulation():
    rng = rng_from(2024)
    worst_gap, worst_sum = 0.0, 0.0
    count = 0
    for n_uses in (1, 2):
        sd = (2, 2) if n_uses == 1 else (2, 2, 2, 2)
        for _ in range(50):
            # non-decreasing ancilla dims keep the interaction blocks isometric
            ad = tuple(sorted(int(rng.integers(1, 4)) for _ in range(n_uses)))
            ca = tuple(sorted(int(rng.integers(1, 4)) for _ in range(n_uses)))
            tc = random_tester_circuit(sd, ad, int(rng.integers(2, 4)), rng)
            ic = random_isometric_comb(sd, ca, rng)
            t = testers.tester_from_circuit(tc)
            mc = comb_from_isometries(ic)
            born = testers.born_probabilities(t, mc)
            sim = testers.simulate_tester_circuit(tc, ic)
            worst_gap = max(worst_gap, float(np.abs(born - sim).max()))
            worst_sum = max(worst_sum, abs(float(born.sum()) - 1.0))
            assert born.min() > -1e-12
            count += 1
    ok = worst_gap <= 1e-10 and worst_sum <= 1e-9
    _line("2", ok, f"{count} random tester/comb pairs: max |Born - simulated| = "
                   f"{worst_gap:.2e} (tol 1e-10), max |sum p - 1| = {worst_sum:.2e} "
                   "(tol 1e-9)")
    assert ok


# -- criterion 3: validators on random and corrupted instances ----------------


def test_criterion_3_validators():
    rng = rng_from(3)
    worst = 0.0
    count = 0
    rejected = 0
    corrupted_total = 0
    for _ in range(30):
        chs = [Channel(tuple(random_kraus(2, 2, 2, rng)), 2, 2)
               for _ in range(int(rng.integers(1, 3)))]
        mc = comb_from_sequence(chs)
        v = validate_comb(mc, 1e-9)
        assert v.valid
        worst = max(worst, v.max_residual)
        count += 1
        if count % 10 == 0:
            bad = MemoryChannel(1.1 * mc.choi, mc.uses)
            rejected += not validate_comb(bad, 1e-9).valid
            corrupted_total += 1
    for _ in range(30):
        n_uses = int(rng.integers(1, 3))
        sd = (2, 2) if n_uses == 1 else (2, 2, 2, 2)
        ca = tuple(sorted(int(rng.integers(1, 4)) for _ in range(n_uses)))
        mc = comb_from_isometries(random_isometric_comb(sd, ca, rng))
        v = validate_comb(mc, 1e-9)
        assert v.valid
        worst = max(worst, v.max_residual)
        count += 1
    for _ in range(40):
        n_uses = int(rng.integers(1, 3))
        sd = (2, 2) if n_uses == 1 else (2, 2, 2, 2)
        ad = tuple(sorted(int(rng.integers(1, 4)) for _ in range(n_uses)))
        t = testers.tester_from_circuit(
            random_tester_circuit(sd, ad, int(rng.integers(2, 4)), rng)
        )
        v = validate_tester(t, 1e-9)
        assert v.valid
        worst = max(worst, v.max_residual)
        count += 1
        if count % 10 == 0:
            bad = Tester(tuple(1.1 * e for e in t.elements), t.chain, t.uses)
            rejected += not validate_tester(bad, 1e-9).valid
            corrupted_total += 1
    ok = worst <= 1e-9 and rejected == corrupted_total
    _line("3", ok, f"{count} random instances validated, max residual {worst:.2e} "
                   f"(tol 1e-9); {rejected}/{corrupted_total} corrupted instances rejected")
    assert ok


# -- criterion 4: cb distance against the analytic unitary oracle -------------


def test_criterion_4_cb_distance_oracle():
    t0 = time.monotonic()
    rng = rng_from(4)
    worst_rel = widest = 0.0
    outside = 0
    for d in (2, 3):
        for _ in range(50):
            u, v = haar_unitary(d, rng), haar_unitary(d, rng)
            a = comb_from_sequence([unitary_channel(u)]).choi
            b = comb_from_sequence([unitary_channel(v)]).choi
            est = cb_distance(a, b, restarts=10, seed=17)
            oracle = unitary_cb_oracle(u, v)
            worst_rel = max(worst_rel, abs(est.value - oracle) / max(oracle, 1e-12))
            # the certified upper bound lies above the oracle
            outside += not oracle <= est.upper
            widest = max(widest, est.upper - est.value)
    ci = comb_from_sequence([identity_channel(2)]).choi
    same = cb_distance(ci, ci, restarts=3, seed=0).value
    cx = comb_from_sequence(
        [unitary_channel(np.array([[0, 1], [1, 0]], dtype=complex))]
    ).choi
    flip = cb_distance(ci, cx, restarts=10, seed=0).value
    elapsed = time.monotonic() - t0
    ok = worst_rel <= 1e-3 and abs(same) <= 1e-9 and abs(flip - 2) <= 1e-3 \
        and elapsed < 300 and outside == 0
    _line("4", ok, f"100 Haar pairs: worst relative error {worst_rel:.2e} (tol 1e-3), "
                   f"oracle above the upper bound {outside} times, widest interval "
                   f"{widest:.1e}; "
                   f"identical -> {same:.1e}; antipodal -> {flip:.6f}; "
                   f"runtime {elapsed:.0f}s (budget 300s)")
    assert ok


# -- criterion 5: single-use reduction of the memory distance -----------------


def test_criterion_5_memory_distance_single_use_reduction():
    rng = rng_from(5)
    worst = 0.0
    for k in range(20):
        a = comb_from_sequence([Channel(tuple(random_kraus(2, 2, 2, rng)), 2, 2)])
        b = comb_from_sequence([Channel(tuple(random_kraus(2, 2, 2, rng)), 2, 2)])
        cbv = cb_distance(a.choi, b.choi, restarts=8, seed=k).value
        mdv = memory_distance(a, b, restarts=8, seed=k).value
        worst = max(worst, abs(cbv - mdv))
    ok = worst <= 1e-4
    _line("5", ok, f"20 random qubit channel pairs: max |memory - cb| = "
                   f"{worst:.2e} (tol 1e-4)")
    assert ok


# -- criterion 6: angular-spread laws -----------------------------------------


@pytest.fixture(scope="module")
def haar_spread_pairs():
    rng = rng_from(6)
    pairs = []
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        pairs.append((haar_unitary(d, rng), haar_unitary(d, rng),
                      int(rng.integers(2**31))))
    return pairs


def test_criterion_6_conjugation_invariance(haar_spread_pairs):
    worst = 0.0
    for x, y, seed in haar_spread_pairs:
        rep = unitary.check_spread_laws(x, y, seed=seed)
        worst = max(worst, rep.conjugation_gap)
    ok = worst <= 1e-9
    _line("6 (conjugation)", ok,
          f"1000 Haar pairs: max |theta(TxT') - theta(x)| = {worst:.2e} (tol 1e-9)")
    assert ok


def test_criterion_6_subadditivity(haar_spread_pairs):
    worst = 0.0
    guarded = 0
    for x, y, seed in haar_spread_pairs:
        rep = unitary.check_spread_laws(x, y, seed=seed)
        if rep.guard:
            guarded += 1
            worst = max(worst, -rep.subadditivity_slack)
    ok = worst <= 1e-9
    _line("6 (subadditivity)", ok,
          f"{guarded} pairs under the 2*pi guard: max violation {worst:.2e} "
          "(slack tolerance -1e-9)")
    assert ok


def test_criterion_6_tensor_additivity_as_stated(haar_spread_pairs):
    worst = 0.0
    guarded = 0
    for x, y, seed in haar_spread_pairs:
        rep = unitary.check_spread_laws(x, y, seed=seed)
        if rep.guard:
            guarded += 1
            worst = max(worst, rep.tensor_gap)
    ok = worst <= 1e-9
    _line("6 (tensor additivity, as stated)", ok,
          f"{guarded} pairs under the 2*pi guard: max |theta(x kron y) - "
          f"theta(x) - theta(y)| = {worst:.2e} (tolerance 1e-9)")
    assert ok, (
        f"tensor additivity fails at {worst:.3f} under the 2*pi guard: once "
        "the total spread exceeds pi, the minimal covering arc of a sparse "
        "spectrum re-closes (phases {0, a, 2a} with a = 0.9*pi span an arc "
        "of 1.1*pi, not 1.8*pi), so the additive identity cannot hold for "
        "the re-minimized arc. The verified companion asserts the identity "
        "in its provable regime (total spread at most pi) and passes."
    )


def test_criterion_6_tensor_additivity_verified():
    rng = rng_from(60)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        split = rng.uniform(0.2, 0.8)
        total = rng.uniform(0.1, np.pi - 1e-3)
        x = random_spread_unitary(d, split * total, rng)
        y = random_spread_unitary(d, (1 - split) * total, rng)
        rep = unitary.check_spread_laws(x, y, seed=1)
        assert rep.additive_guard
        worst = max(worst, rep.tensor_gap)
    ok = worst <= 1e-9
    _line("6 (tensor additivity, verified)", ok,
          f"1000 pairs with total spread <= pi: max gap {worst:.2e} (tol 1e-9)")
    assert ok


def test_criterion_6_matching_conjugation_as_stated(haar_spread_pairs):
    worst = 0.0
    used = 0
    for x, y, _ in haar_spread_pairs[:500]:
        if angular_spread(x) + angular_spread(y) >= 2 * np.pi:
            continue
        used += 1
        t = matching_conjugation(x, y)
        got = angular_spread(x @ t @ y @ t.conj().T)
        tens = angular_spread(np.kron(x, y))
        worst = max(worst, abs(got - tens))
    ok = worst <= 1e-9
    _line("6 (matching, as stated)", ok,
          f"{used} pairs under the 2*pi guard: max |theta(xTyT') - "
          f"theta(x kron y)| = {worst:.2e} (tolerance 1e-9)")
    assert ok, (
        f"spread matching fails at {worst:.3f} under the 2*pi guard: the "
        "conjugated product has d paired phase sums while the tensor has "
        "d^2, and beyond total spread pi their re-minimized covering arcs "
        "differ. The verified companion asserts the regime where the "
        "identity is a theorem (total spread at most pi) and passes."
    )


def test_criterion_6_matching_conjugation_verified():
    rng = rng_from(61)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 4))
        split = rng.uniform(0.2, 0.8)
        total = rng.uniform(0.1, np.pi - 1e-3)
        x = random_spread_unitary(d, split * total, rng)
        y = random_spread_unitary(d, (1 - split) * total, rng)
        t = matching_conjugation(x, y)
        got = angular_spread(x @ t @ y @ t.conj().T)
        tens = angular_spread(np.kron(x, y))
        worst = max(worst, abs(got - tens))
    ok = worst <= 1e-9
    _line("6 (matching, verified)", ok,
          f"500 pairs with total spread <= pi: max gap {worst:.2e} (tol 1e-9)")
    assert ok


# -- criteria 7 and 8: discriminability threshold and solver soundness --------


@pytest.fixture(scope="module")
def threshold_runs():
    rng = rng_from(78)
    runs = []
    # spread >= pi: qubit antipodal pairs (spread exactly pi) and d = 3
    for _ in range(15):
        basis = haar_unitary(2, rng)
        u = basis @ np.diag([1.0, -1.0]).astype(complex) @ basis.conj().T
        runs.append(("at_least_pi", 2, u))
    for _ in range(15):
        u = unitary_with_spread_at_least(3, np.pi + 0.05, rng)
        runs.append(("at_least_pi", 3, u))
    # spread < pi with a numerical margin against the solver's
    # classification band
    for d, count in ((2, 20), (3, 10)):
        found = 0
        while found < count:
            u = haar_unitary(d, rng)
            if angular_spread(u) <= np.pi - 0.05:
                runs.append(("below_pi", d, u))
                found += 1
    out = []
    for kind, d, u in runs:
        ci = comb_from_sequence([identity_channel(d)])
        cu = comb_from_sequence([unitary_channel(u)])
        rep = parallel_discriminable(ci.choi, cu.choi, restarts=8, seed=3)
        out.append({"kind": kind, "d": d, "u": u, "ci": ci, "cu": cu, "report": rep})
    return out


def test_criterion_7_threshold(threshold_runs):
    worst_delta = 0.0
    ok = True
    for run in threshold_runs:
        rep = run["report"]
        if run["kind"] == "at_least_pi":
            if not rep.feasible:
                ok = False
                continue
            t = synthesize_tester(run["ci"], run["cu"], rep.witness)
            err = float(np.abs(delta_matrix(t, [run["ci"], run["cu"]]) - np.eye(2)).max())
            worst_delta = max(worst_delta, err)
        else:
            if rep.status not in ("infeasible", "undetermined"):
                ok = False
            if not discriminability(run["u"]) > 0:
                ok = False
    ok = ok and worst_delta <= 1e-6
    n_pos = sum(r["kind"] == "at_least_pi" for r in threshold_runs)
    n_neg = len(threshold_runs) - n_pos
    _line("7", ok, f"{n_pos} unitaries with spread >= pi: perfect tester found, "
                   f"max delta error {worst_delta:.2e} (tol 1e-6); {n_neg} with "
                   "spread < pi: all reported infeasible/undetermined with "
                   "positive discriminability")
    assert ok


def test_criterion_8_solver_soundness(threshold_runs):
    checked = 0
    worst_delta = 0.0
    monotone = True
    for run in threshold_runs:
        rep = run["report"]
        h = np.asarray(rep.objective_history)
        if not np.all(np.diff(h) <= 1e-15):
            monotone = False
        if rep.feasible:
            t = synthesize_tester(run["ci"], run["cu"], rep.witness)
            err = float(np.abs(delta_matrix(t, [run["ci"], run["cu"]]) - np.eye(2)).max())
            worst_delta = max(worst_delta, err)
            checked += 1
    # the causal solver on the counterexample pair, same soundness contract
    inst = build_example(2)
    from combtester.discrimination import causal_discriminable

    crep = causal_discriminable(inst.c0, inst.c1, restarts=4, seed=0, max_iter=1500)
    h = np.asarray(crep.objective_history)
    monotone = monotone and bool(np.all(np.diff(h) <= 1e-15))
    assert crep.feasible
    t = synthesize_tester(inst.c0, inst.c1, crep.witness)
    err = float(np.abs(delta_matrix(t, [inst.c0, inst.c1]) - np.eye(2)).max())
    worst_delta = max(worst_delta, err)
    checked += 1
    ok = monotone and worst_delta <= 1e-6 and checked > 0
    _line("8", ok, f"{checked} feasible verdicts all yield testers with delta error "
                   f"<= {worst_delta:.2e} (tol 1e-6); objective histories "
                   f"monotone: {monotone}")
    assert ok
