import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from combtester.channels import (
    Channel,
    IsometricComb,
    MemoryChannel,
    apply_channel,
    choi_from_kraus,
    comb_from_isometries,
    comb_from_sequence,
    compose_channels,
    identity_channel,
    kraus_from_choi,
    unitary_channel,
    validate_comb,
)
from combtester.matcore import LabeledOperator, double_ket, link, partial_trace
from combtester.sampling import haar_unitary, random_density, random_kraus
from util import random_isometric_comb, random_tester_circuit

from combtester import testers


def random_channel(din, dout, k, rng):
    return Channel(tuple(random_kraus(din, dout, k, rng)), din, dout)


def stinespring_comb(ch: Channel) -> IsometricComb:
    """Single-use isometric dilation of a channel for the circuit oracle."""
    k = len(ch.kraus)
    v = np.zeros((ch.out_dim * k, ch.in_dim), dtype=complex)
    for j, op in enumerate(ch.kraus):
        for c in range(ch.out_dim):
            v[c * k + j, :] += op[c, :]
    return IsometricComb((v,), (ch.in_dim, ch.out_dim), (k,))


def test_choi_identity_channel():
    c = choi_from_kraus(identity_channel(2))
    v = double_ket(np.eye(2))
    assert np.abs(c.matrix - np.outer(v, v)).max() < 1e-14
    assert abs(c.trace() - 2.0) < 1e-12


def test_choi_depolarizing():
    # rho -> I/2 has Kraus (1/sqrt(2)) |i><j|
    kraus = tuple(
        np.sqrt(0.5) * np.outer(np.eye(2)[i], np.eye(2)[j]) for i in range(2) for j in range(2)
    )
    ch = Channel(kraus, 2, 2)
    c = choi_from_kraus(ch)
    assert np.abs(c.matrix - np.eye(4) / 2).max() < 1e-12
    assert abs(c.trace() - 2.0) < 1e-12


def test_choi_trace_preservation_random():
    rng = np.random.default_rng(0)
    ch = random_channel(2, 2, 2, rng)
    c = choi_from_kraus(ch)
    red = partial_trace(c, [1])
    assert np.abs(red.matrix - np.eye(2)).max() < 1e-10


def test_kraus_from_choi_identity():
    c = choi_from_kraus(identity_channel(2))
    ch = kraus_from_choi(c, 2, 2)
    assert len(ch.kraus) == 1
    k = ch.kraus[0]
    phase = k[0, 0] / abs(k[0, 0])
    assert np.abs(k / phase - np.eye(2)).max() < 1e-10


def test_kraus_from_choi_round_trips():
    rng = np.random.default_rng(1)
    for din, dout, k in ((2, 2, 2), (2, 3, 2), (3, 2, 4)):
        ch = random_channel(din, dout, k, rng)
        c = choi_from_kraus(ch)
        back = choi_from_kraus(kraus_from_choi(c, din, dout))
        assert np.abs(back.matrix - c.matrix).max() < 1e-8
    # maximally depolarizing: d^2 Kraus operators, round trip only
    c = LabeledOperator(np.eye(4) / 2, (1, 0), (2, 2))
    ch = kraus_from_choi(c, 2, 2)
    assert len(ch.kraus) == 4
    back = choi_from_kraus(ch)
    assert np.abs(back.matrix - c.matrix).max() < 1e-10


def test_kraus_from_choi_rejects_bad_inputs():
    with pytest.raises(ValueError):
        kraus_from_choi(LabeledOperator(np.eye(4), (1, 0), (2, 2)), 2, 2)  # not TP
    with pytest.raises(ValueError):
        kraus_from_choi(LabeledOperator(np.diag([1, 1, 1, -1.0]) / 1, (1, 0), (2, 2)), 2, 2)


def test_apply_channel_identity():
    rng = np.random.default_rng(2)
    rho = random_density(2, rng)
    assert np.abs(apply_channel(identity_channel(2), rho) - rho).max() == 0.0


def test_apply_channel_broadcast_example():
    # first use of the counterexample: output is the uniform index-pair
    # broadcast regardless of the input state
    d = 2
    kraus = []
    for pq in range(d * d):
        for m in range(d):
            k = np.zeros((d**4, d), dtype=complex)
            k[pq * d * d + pq, m] = 1.0 / d
            kraus.append(k)
    ch = Channel(tuple(kraus), d, d**4)
    rho = random_density(d, np.random.default_rng(3))
    out = apply_channel(ch, rho)
    expected = np.zeros((d**4, d**4), dtype=complex)
    for pq in range(d * d):
        expected[pq * d * d + pq, pq * d * d + pq] = 1.0 / (d * d)
    assert np.abs(out - expected).max() < 1e-12


def test_apply_channel_preserves_trace_and_positivity():
    rng = np.random.default_rng(4)
    for _ in range(10):
        ch = random_channel(3, 2, 3, rng)
        rho = random_density(3, rng)
        out = apply_channel(ch, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-10


def test_comb_from_sequence_identity():
    mc = comb_from_sequence([identity_channel(2)])
    v = double_ket(np.eye(2))
    assert mc.uses == 1
    assert np.abs(mc.choi.matrix - np.outer(v, v)).max() < 1e-14


def test_comb_from_sequence_two_identities_is_causal():
    mc = comb_from_sequence([identity_channel(2), identity_channel(2)])
    v = validate_comb(mc, 1e-9)
    assert v.valid
    assert v.max_residual < 1e-12


def test_comb_from_sequence_matches_circuit_oracle():
    rng = np.random.default_rng(5)
    ch1 = random_channel(2, 2, 2, rng)
    ch2 = random_channel(2, 2, 2, rng)
    mc = comb_from_sequence([ch1, ch2])
    assert validate_comb(mc, 1e-9).valid
    # per-use Stinespring blocks with independent memories, merged ancillas
    s1, s2 = stinespring_comb(ch1), stinespring_comb(ch2)
    k1, k2 = s1.ancilla_dims[0], s2.ancilla_dims[0]
    b2 = np.kron(s2.blocks[0], np.eye(k1))
    b2 = b2.reshape(2, k2, k1, 2 * k1).transpose(0, 2, 1, 3).reshape(2 * k2 * k1, 2 * k1)
    ic = IsometricComb((s1.blocks[0], b2), (2, 2, 2, 2), (k1, k2 * k1))
    built = comb_from_isometries(ic)
    assert np.abs(built.choi.matrix - mc.choi.matrix).max() < 1e-10
    tc = random_tester_circuit((2, 2, 2, 2), (2, 2), 2, rng)
    t = testers.tester_from_circuit(tc)
    born = testers.born_probabilities(t, mc)
    sim = testers.simulate_tester_circuit(tc, ic)
    assert np.abs(born - sim).max() < 1e-10


def test_comb_from_isometries_single_unitary():
    rng = np.random.default_rng(6)
    u = haar_unitary(3, rng)
    ic = IsometricComb((u,), (3, 3), (1,))
    mc = comb_from_isometries(ic)
    direct = choi_from_kraus(unitary_channel(u)).sorted()
    assert np.abs(mc.choi.matrix - direct.matrix).max() < 1e-12


def test_comb_from_isometries_random_chains_are_causal():
    rng = np.random.default_rng(7)
    for _ in range(10):
        ic = random_isometric_comb((2, 2, 2, 2), (2, 3), rng)
        mc = comb_from_isometries(ic)
        v = validate_comb(mc, 1e-9)
        assert v.valid, v.max_residual


def test_validate_comb_single_use():
    mc = comb_from_sequence([identity_channel(2)])
    v = validate_comb(mc, 1e-9)
    assert v.valid and 1 in v.level_residuals


def test_validate_comb_rejects_wrong_normalization():
    for n_uses, labels, dims in ((1, (0, 1), (2, 2)), (2, (0, 1, 2, 3), (2, 2, 2, 2))):
        side = int(np.prod(dims))
        bad = MemoryChannel(
            LabeledOperator(np.eye(side) / side, labels, dims), n_uses
        )
        v = validate_comb(bad, 1e-9)
        assert not v.valid
        assert v.level_residuals[n_uses] > 0.1


def test_validate_comb_rejects_scaled():
    mc = comb_from_sequence([identity_channel(2), identity_channel(2)])
    bad = MemoryChannel(1.1 * mc.choi, 2)
    assert not validate_comb(bad, 1e-9).valid


def test_compose_channels_matches_link():
    rng = np.random.default_rng(8)
    ch1 = random_channel(2, 3, 2, rng)
    ch2 = random_channel(3, 2, 2, rng)
    comp = compose_channels(ch2, ch1)
    c1 = choi_from_kraus(ch1, out_label=1, in_label=0)
    c2 = choi_from_kraus(ch2, out_label=2, in_label=1)
    linked = link(c1, c2).sorted()
    direct = choi_from_kraus(comp, out_label=2, in_label=0).sorted()
    assert np.abs(linked.matrix - direct.matrix).max() < 1e-12


def test_channel_validation():
    with pytest.raises(ValueError):
        Channel((np.eye(2) * 0.5,), 2, 2)  # not trace preserving
    with pytest.raises(ValueError):
        Channel((np.eye(3),), 2, 2)  # shape mismatch


@settings(max_examples=60, deadline=None)
@given(sd=st.integers(1, 3).flatmap(
           lambda uses: st.lists(st.integers(1, 3), min_size=2 * uses, max_size=2 * uses)),
       extra=st.integers(0, 1), seed=st.integers(0, 2 ** 32 - 1))
def test_as_single_use_reads_the_comb_as_one_channel(sd, extra, seed):
    assume(np.prod(sd) <= 72)
    ancillas, anc = [], 1
    for d_in, d_out in zip(sd[0::2], sd[1::2]):
        anc = -(-d_in * anc // d_out)  # smallest ancilla that keeps the block isometric
        ancillas.append(anc)
    ancillas[-1] += extra
    assume(max(ancillas) <= 6)
    mc = comb_from_isometries(random_isometric_comb(sd, ancillas, np.random.default_rng(seed)))
    one = mc.as_single_use()
    if mc.uses == 1:
        assert one is mc
    assert one.uses == 1
    assert one.dims == (int(np.prod(mc.input_dims)), int(np.prod(mc.output_dims)))
    assert validate_comb(one).valid
    assert abs(one.choi.trace() - mc.choi.trace()) <= 1e-12 * abs(mc.choi.trace())
    # the grouped operator is the comb with its factors reordered, inputs first
    labels = mc.choi.labels[0::2] + mc.choi.labels[1::2]
    back = LabeledOperator(one.choi.matrix, labels, mc.input_dims + mc.output_dims)
    assert np.array_equal(back.sorted().matrix, mc.choi.matrix)


def test_isometric_comb_rejects_bad_blocks():
    rng = np.random.default_rng(21)
    ic = random_isometric_comb((2, 2, 2, 2), (2, 3), rng)
    with pytest.raises(ValueError, match=r"block 1 has shape \(6, 6\), expected \(6, 4\)"):
        IsometricComb((ic.blocks[0], np.eye(6)), ic.system_dims, ic.ancilla_dims)
    with pytest.raises(ValueError, match="block 0 is not an isometry"):
        IsometricComb((0.5 * ic.blocks[0], ic.blocks[1]), ic.system_dims, ic.ancilla_dims)


def test_isometric_comb_rejects_zero_uses():
    with pytest.raises(ValueError, match="at least one use"):
        IsometricComb((), (), ())
