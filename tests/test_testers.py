import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from combtester import matcore, testers
from combtester.channels import (
    IsometricComb,
    comb_from_isometries,
    comb_from_sequence,
    identity_channel,
)
from combtester.matcore import LabeledOperator, double_ket, identity, link, partial_trace, tensor
from combtester.sampling import random_density, random_povm, random_pure_state
from combtester.testers import (
    Tester,
    TesterCircuit,
    born_probabilities,
    povm_from_tester,
    reduced_state,
    simulate_tester_circuit,
    validate_tester,
)
from util import random_isometric_comb, random_tester_circuit


def state_povm_tester(rho, povm):
    """Ancilla-less single-use tester: elements rho^T ⊗ M_i."""
    elements = [
        tensor(LabeledOperator(rho.T, (0,), (rho.shape[0],)),
               LabeledOperator(m, (1,), (m.shape[0],)))
        for m in povm
    ]
    return testers.tester_from_elements(elements, 1)


def test_validate_single_use_state_povm():
    rng = np.random.default_rng(0)
    rho = random_density(2, rng)
    t = state_povm_tester(rho, random_povm(2, 2, rng))
    v = validate_tester(t, 1e-10)
    assert v.valid, v.max_residual
    xi = t.chain[0]
    assert abs(xi.trace() - 1.0) < 1e-12
    assert np.abs(xi.matrix - rho.T).max() < 1e-12


def test_validate_rejects_rescaled_elements():
    rng = np.random.default_rng(1)
    rho = random_density(2, rng)
    t = state_povm_tester(rho, random_povm(2, 2, rng))
    bad = Tester(tuple(1.1 * e for e in t.elements), t.chain, 1)
    v = validate_tester(bad, 1e-9)
    assert not v.valid
    xi_scale = np.linalg.norm(tensor(t.chain[0], identity([1], [2])).matrix)
    assert abs(v.normalization_residual - 0.1 * xi_scale) < 1e-9


def test_validate_protocol_class_circuit_testers():
    rng = np.random.default_rng(2)
    for _ in range(5):
        tc = random_tester_circuit((2, 2, 2, 2), (2, 3), 3, rng)
        t = testers.tester_from_circuit(tc)
        v = validate_tester(t, 1e-9)
        assert v.valid, v.max_residual


def test_born_deterministic_case():
    rho = np.diag([1.0, 0.0])
    p0 = np.diag([1.0, 0.0])
    t = state_povm_tester(rho, [p0, np.eye(2) - p0])
    mc = comb_from_sequence([identity_channel(2)])
    p = born_probabilities(t, mc)
    assert np.abs(p - [1.0, 0.0]).max() < 1e-12


def test_born_matches_simulation_randomized():
    rng = np.random.default_rng(3)
    for _ in range(10):
        tc = random_tester_circuit((2, 2), (3,), 2, rng)
        ic = random_isometric_comb((2, 2), (2,), rng)
        t = testers.tester_from_circuit(tc)
        mc = comb_from_isometries(ic)
        assert np.abs(born_probabilities(t, mc) - simulate_tester_circuit(tc, ic)).max() < 1e-10
    for _ in range(10):
        tc = random_tester_circuit((2, 2, 2, 2), (2, 2), 3, rng)
        ic = random_isometric_comb((2, 2, 2, 2), (2, 2), rng)
        t = testers.tester_from_circuit(tc)
        mc = comb_from_isometries(ic)
        p = born_probabilities(t, mc)
        assert np.abs(p - simulate_tester_circuit(tc, ic)).max() < 1e-10
        assert p.min() > -1e-12
        assert abs(p.sum() - 1.0) < 1e-9


def test_three_use_circuit_round_trip_unequal_dims():
    # b_1 > 1 and unequal spaces: the backward contraction carries the first
    # ancilla next to every comb wire at its last step
    system = (2, 3, 2, 2, 3, 2)
    rng = np.random.default_rng(8)
    for _ in range(3):
        tc = random_tester_circuit(system, (2, 3, 2), 3, rng)
        ic = random_isometric_comb(system, (2, 3, 5), rng)
        t = testers.tester_from_circuit(tc)
        assert validate_tester(t, 1e-9).valid
        p = born_probabilities(t, comb_from_isometries(ic))
        assert np.abs(p - simulate_tester_circuit(tc, ic)).max() < 1e-10


def test_povm_from_tester_uniform_normalization():
    # Xi = I/D: POVM elements are D * P_i and the reduced state is C/D
    d = 2
    big_d = d * d  # side of the space carrying Xi at N=1... one space only
    rho = np.eye(d) / d
    rng = np.random.default_rng(4)
    t = state_povm_tester(rho, random_povm(d, 2, rng))
    povm = povm_from_tester(t)
    for p_tilde, p in zip(povm, t.elements):
        assert np.abs(p_tilde.matrix - d * p.permuted(p_tilde.labels).matrix).max() < 1e-10
    mc = comb_from_sequence([identity_channel(d)])
    tilde_c = reduced_state(mc, t)
    assert np.abs(tilde_c.permuted(mc.choi.labels).matrix - mc.choi.matrix / d).max() < 1e-10


def test_povm_reduction_preserves_probabilities():
    rng = np.random.default_rng(5)
    for _ in range(10):
        tc = random_tester_circuit((2, 2, 2, 2), (2, 2), 2, rng)
        ic = random_isometric_comb((2, 2, 2, 2), (2, 2), rng)
        t = testers.tester_from_circuit(tc)
        mc = comb_from_isometries(ic)
        povm = povm_from_tester(t)
        tilde_c = reduced_state(mc, t)
        direct = born_probabilities(t, mc)
        reduced = [
            float(np.trace(p.permuted(tilde_c.labels).matrix @ tilde_c.matrix).real)
            for p in povm
        ]
        assert np.abs(np.array(reduced) - direct).max() < 1e-10
        assert abs(tilde_c.trace() - 1.0) < 1e-10
        total = povm[0]
        for p in povm[1:]:
            total = total + p
        assert np.abs(total.matrix - np.eye(total.side)).max() < 1e-9


def test_single_use_testers_decompose_as_state_povm():
    # chain element of any valid N=1 tester is a density matrix
    rng = np.random.default_rng(6)
    for _ in range(5):
        tc = random_tester_circuit((2, 3), (2,), 2, rng)
        t = testers.tester_from_circuit(tc)
        xi = t.chain[0]
        assert abs(xi.trace() - 1.0) < 1e-10
        assert np.linalg.eigvalsh(xi.matrix).min() > -1e-10


def test_tester_from_circuit_basis_preparation():
    # prepare |0>, measure the computational basis on the output
    d = 2
    ket0 = np.zeros((d, d), dtype=complex)
    ket0[0, 0] = 1.0
    povm = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    tc = TesterCircuit(ket0, (), povm, (d, d), (1,))
    t = testers.tester_from_circuit(tc)
    assert np.abs(t.chain[0].matrix - ket0.T).max() < 1e-12
    v = validate_tester(t, 1e-10)
    assert v.valid


def test_tester_from_circuit_pins_transpose_convention():
    # Born rule must equal circuit simulation on the identity channel for
    # arbitrary pure inputs; this fixes the transpose placement uniquely.
    rng = np.random.default_rng(7)
    d, b = 2, 2
    ic = IsometricComb((np.eye(d, dtype=complex),), (d, d), (1,))
    mc = comb_from_isometries(ic)
    for _ in range(10):
        psi = random_pure_state(d * b, rng)
        tc = TesterCircuit(np.outer(psi, psi.conj()), (), tuple(random_povm(d * b, 2, rng)),
                           (d, d), (b,))
        t = testers.tester_from_circuit(tc)
        assert np.abs(born_probabilities(t, mc) - simulate_tester_circuit(tc, ic)).max() < 1e-12
        psi_mat = psi.reshape(d, b)
        sigma0 = psi_mat @ psi_mat.conj().T
        assert np.abs(t.chain[0].matrix - sigma0.T).max() < 1e-10


def test_simulation_identity_channel_trivial_tester():
    d = 2
    ket0 = np.zeros((d, d), dtype=complex)
    ket0[0, 0] = 1.0
    povm = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    tc = TesterCircuit(ket0, (), povm, (d, d), (1,))
    ic = IsometricComb((np.eye(d, dtype=complex),), (d, d), (1,))
    assert np.abs(simulate_tester_circuit(tc, ic) - [1.0, 0.0]).max() < 1e-12


def test_tester_requires_consistent_labels():
    rho = np.diag([1.0, 0.0])
    t = state_povm_tester(rho, [np.eye(2)])
    with pytest.raises(ValueError):
        Tester(t.elements, t.chain, 2)


def test_tester_requires_consistent_dims():
    rng = np.random.default_rng(11)
    t = state_povm_tester(random_density(2, rng), random_povm(3, 2, rng))
    assert t.elements[0].dims == (2, 3)
    with pytest.raises(ValueError, match="chain level 1 must live on spaces 0..0 with dims"):
        Tester(t.elements, (LabeledOperator(np.eye(3) / 3, (0,), (3,)),), 1)
    other = LabeledOperator(np.eye(6) / 6, (0, 1), (3, 2))
    with pytest.raises(ValueError, match="tester elements must carry labels"):
        Tester((t.elements[0], other), t.chain, 1)


def test_reduced_state_names_mismatched_spaces():
    rng = np.random.default_rng(12)
    t = state_povm_tester(random_density(2, rng), random_povm(3, 2, rng))
    for other in ([identity_channel(2)], [identity_channel(3), identity_channel(3)]):
        mc = comb_from_sequence(other)
        with pytest.raises(ValueError, match="tester on dims \\(2, 3\\) and comb on dims"):
            reduced_state(mc, t)


def test_circuit_validation_errors():
    d = 2
    good = np.zeros((d, d), dtype=complex)
    good[0, 0] = 1.0
    povm = (np.eye(d, dtype=complex),)
    with pytest.raises(ValueError):
        TesterCircuit(2 * good, (), povm, (d, d), (1,))  # trace 2
    with pytest.raises(ValueError):
        TesterCircuit(good, (), (0.5 * np.eye(d),), (d, d), (1,))  # POVM sum


def test_circuit_rejects_unphysical_states_and_povms():
    d = 2
    good = np.diag([1.0, 0.0]).astype(complex)
    povm = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    with pytest.raises(ValueError, match="input state is not positive"):
        TesterCircuit(np.diag([1.5, -0.5]), (), povm, (d, d), (1,))
    with pytest.raises(ValueError, match="not Hermitian"):
        TesterCircuit(np.array([[0.5, 1.0], [0.0, 0.5]]), (), povm, (d, d), (1,))
    with pytest.raises(ValueError, match="POVM element is not positive"):
        TesterCircuit(good, (), (np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])), (d, d), (1,))


def test_circuit_rejects_zero_uses():
    with pytest.raises(ValueError, match="at least one use"):
        TesterCircuit(np.eye(1), (), (np.eye(1),), (), ())


def test_circuit_rejects_bad_processing_blocks():
    rng = np.random.default_rng(12)
    tc = random_tester_circuit((2, 2, 2, 2), (1, 2), 2, rng)
    args = (tc.input_state, tc.povm, tc.system_dims, tc.ancilla_dims)

    def rebuilt(block):
        return TesterCircuit(args[0], (block,), *args[1:])

    with pytest.raises(ValueError, match=r"block 0 has shape \(4, 4\), expected \(4, 2\)"):
        rebuilt(np.eye(4))
    with pytest.raises(ValueError, match="block 0 is not an isometry"):
        rebuilt(2 * tc.blocks[0])
    assert np.array_equal(rebuilt(tc.blocks[0]).blocks[0], tc.blocks[0])


def test_three_use_round_trip_with_one_dimensional_middle_wires():
    # unequal ancillas with a dimension-1 wire in the middle of both chains:
    # the comb's first memory and the tester's second carry no label
    system = (2, 2, 4, 2, 2, 3)
    rng = np.random.default_rng(13)
    for _ in range(3):
        tc = random_tester_circuit(system, (2, 1, 3), 2, rng)
        ic = random_isometric_comb(system, (1, 3, 2), rng)
        t = testers.tester_from_circuit(tc)
        assert validate_tester(t, 1e-9).valid
        p = born_probabilities(t, comb_from_isometries(ic))
        assert np.abs(p - simulate_tester_circuit(tc, ic)).max() < 1e-10


def _linked(parts) -> LabeledOperator:
    out = parts[0]
    for p in parts[1:]:
        out = link(out, p)
    return out


def _block_chois(blocks, uses, sd, ad, space0) -> list:
    """Pure Choi operator of each block on (output, output ancilla, input,
    input ancilla); ancilla wire k carries label 2 * uses + k, dimension 1 too."""
    chois = []
    for j, v in enumerate(blocks):
        s, w = space0 + 2 * j, 2 * uses + j
        k = double_ket(v)
        chois.append(LabeledOperator(np.outer(k, k.conj()), (s + 1, w + 1, s, w),
                                     (sd[s + 1], ad[j + 1], sd[s], ad[j])))
    return chois


def _comb_by_links(ic: IsometricComb) -> LabeledOperator:
    n = ic.uses
    c = _linked(_block_chois(ic.blocks, n, ic.system_dims, (1, *ic.ancilla_dims), 0))
    return partial_trace(c, [2 * n, 3 * n]).sorted()


def _elements_by_links(tc: TesterCircuit) -> list[LabeledOperator]:
    n, sd, ad = tc.uses, tc.system_dims, tc.ancilla_dims
    parts = [LabeledOperator(tc.input_state, (0, 2 * n), (sd[0], ad[0]))]
    parts += _block_chois(tc.blocks, n, sd, ad, 1)
    return [_linked(parts + [LabeledOperator(m.T, (2 * n - 1, 3 * n - 1), (sd[-1], ad[-1]))])
            .transpose().sorted() for m in tc.povm]


def _draw_ancillas(data, ins, outs, first):
    """The smallest ancillas that make every block an isometry, each plus 0
    or 1: a block whose output is at least its input may get a dimension-1 one."""
    anc, out = first, []
    for d_in, d_out in zip(ins, outs):
        anc = -(-d_in * anc // d_out) + data.draw(st.integers(0, 1))
        out.append(anc)
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), uses=st.integers(1, 3), outcomes=st.integers(2, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_builders_match_the_link_product_of_their_blocks(data, uses, outcomes, seed):
    # the ket compositions against the link product of the blocks' pure
    # Choi operators, on unequal dims with dimension-1 ancillas allowed
    small = 3 if uses < 3 else 2
    sd = tuple(data.draw(st.lists(st.integers(1, small), min_size=2 * uses, max_size=2 * uses)))
    comb_anc = _draw_ancillas(data, sd[0::2], sd[1::2], 1)
    first = data.draw(st.integers(1, 2))
    tester_anc = (first,) + _draw_ancillas(data, sd[1:-1:2], sd[2::2], first)
    assume(max(comb_anc + tester_anc) <= 6)
    rng = np.random.default_rng(seed)
    ic = random_isometric_comb(sd, comb_anc, rng)
    tc = random_tester_circuit(sd, tester_anc, outcomes, rng)
    comb, elements = _comb_by_links(ic), _elements_by_links(tc)

    def unused(*args):
        raise AssertionError("the builders must not call link")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matcore, "link", unused)
        built = comb_from_isometries(ic).choi
        tester = testers.tester_from_circuit(tc)
    assert built.labels == comb.labels and built.dims == comb.dims
    assert np.abs(built.matrix - comb.matrix).max() <= 1e-12
    assert len(tester.elements) == outcomes
    for e, ref in zip(tester.elements, elements):
        assert e.labels == ref.labels and e.dims == ref.dims
        assert np.abs(e.matrix - ref.matrix).max() <= 1e-12
