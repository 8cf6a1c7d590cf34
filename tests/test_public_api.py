"""The package's public names and its size, pinned: adding or deleting a
name, or growing the source, is a visible change to a literal here."""

from pathlib import Path

import combtester

# lines of src/combtester/*.py at most; a change that grows the package
# raises this on purpose, and one that shrinks it may lower it
SOURCE_LINES = 3516

PUBLIC = [
    "Channel", "DistanceEstimate", "EigenphaseSet", "ExampleInstance",
    "FeasibilityReport", "IsometricComb", "LabeledOperator", "MemoryChannel",
    "Tester", "TesterCircuit", "angular_spread", "apply_channel",
    "born_probabilities", "build_example", "causal_discriminable",
    "causal_protocol", "cb_distance", "check_spread_laws", "choi_from_kraus",
    "comb_from_isometries", "comb_from_sequence", "delta_matrix",
    "discriminability", "double_ket", "eigh", "eigvalsh", "identity",
    "identity_channel", "kraus_from_choi", "kraus_orthogonality", "link",
    "matching_conjugation", "memory_distance", "parallel_discriminable",
    "parallel_optimality_check", "partial_trace", "povm_from_tester",
    "psd_inv_sqrt", "psd_sqrt", "reduce_sequences", "reduced_state", "shift_clock",
    "shift_multiply", "simulate_tester_circuit", "synthesize_tester", "tensor",
    "tester_from_circuit", "tester_from_elements", "trace_norm", "undouble_ket",
    "unitary_cb_oracle", "unitary_channel", "validate_comb", "validate_tester",
    "verify_parallel_impossible",
]


def test_public_names_are_pinned():
    assert sorted(combtester.__all__) == PUBLIC


def test_source_lines_stay_under_the_ceiling():
    package = Path(combtester.__file__).parent
    lines = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in package.glob("*.py"))
    assert lines <= SOURCE_LINES, f"src/combtester/*.py has {lines} lines"
