"""Combs, testers, discrimination criteria and distances for quantum memory channels."""

from types import ModuleType as _Module

from .channels import (
    Channel,
    IsometricComb,
    MemoryChannel,
    apply_channel,
    choi_from_kraus,
    comb_from_isometries,
    comb_from_sequence,
    identity_channel,
    kraus_from_choi,
    unitary_channel,
    validate_comb,
)
from .discrimination import (
    FeasibilityReport,
    causal_discriminable,
    delta_matrix,
    kraus_orthogonality,
    parallel_discriminable,
    synthesize_tester,
)
from .distances import DistanceEstimate, cb_distance, memory_distance, unitary_cb_oracle
from .matcore import (
    LabeledOperator,
    double_ket,
    eigh,
    eigvalsh,
    identity,
    link,
    partial_trace,
    psd_inv_sqrt,
    psd_sqrt,
    tensor,
    trace_norm,
    undouble_ket,
)
from .separation import (
    ExampleInstance,
    build_example,
    causal_protocol,
    shift_clock,
    shift_multiply,
    verify_parallel_impossible,
)
from .testers import (
    Tester,
    TesterCircuit,
    born_probabilities,
    povm_from_tester,
    reduced_state,
    simulate_tester_circuit,
    tester_from_circuit,
    tester_from_elements,
    validate_tester,
)
from .unitary import (
    EigenphaseSet,
    angular_spread,
    check_spread_laws,
    discriminability,
    matching_conjugation,
    parallel_optimality_check,
    reduce_sequences,
)

# the functions and classes imported above; submodules stay importable by name
__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_") or isinstance(value, _Module)))
__version__ = "0.1.0"
