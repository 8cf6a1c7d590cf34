"""The package's public names, pinned: adding or deleting one is a visible
change to this list."""

import combtester

PUBLIC = [
    "Channel", "DistanceEstimate", "EigenphaseSet", "ExampleInstance",
    "FeasibilityReport", "IsometricComb", "LabeledOperator", "MemoryChannel",
    "Tester", "TesterCircuit", "angular_spread", "apply_channel",
    "born_probabilities", "build_example", "causal_discriminable",
    "causal_protocol", "cb_distance", "channels", "check_spread_laws",
    "choi_from_kraus", "comb_from_isometries", "comb_from_sequence",
    "delta_matrix", "discriminability", "discrimination", "distances",
    "double_ket", "eigh", "eigvalsh", "identity", "identity_channel",
    "kraus_from_choi", "kraus_orthogonality", "link", "matching_conjugation",
    "matcore", "memory_distance", "optim", "parallel_discriminable",
    "parallel_optimality_check", "partial_trace", "povm_from_tester",
    "psd_inv_sqrt", "psd_sqrt", "reduce_sequences", "reduced_state", "sampling",
    "separation", "shift_clock", "shift_multiply", "simulate_tester_circuit",
    "synthesize_tester", "tensor", "tester_from_circuit", "tester_from_elements",
    "testers", "trace_norm", "undouble_ket", "unitary", "unitary_cb_oracle",
    "unitary_channel", "validate_comb", "validate_tester",
    "verify_parallel_impossible",
]


def test_public_names_are_pinned():
    assert sorted(combtester.__all__) == PUBLIC
