"""The input checks of the public entry points: each rejects its bad input
with its own message."""

import numpy as np
import pytest

from combtester.channels import (
    Channel, IsometricComb, apply_channel, comb_from_sequence, identity_channel,
    kraus_from_choi,
)
from combtester.discrimination import kraus_orthogonality
from combtester.distances import cb_distance, memory_distance
from combtester.matcore import LabeledOperator, link, trace_norm, undouble_ket
from combtester.separation import build_example, shift_clock
from combtester.testers import TesterCircuit, simulate_tester_circuit
from combtester.unitary import matching_conjugation, parallel_optimality_check, reduce_sequences


def _comb(d: int):
    return comb_from_sequence([identity_channel(d)])


def _three_labels():
    return LabeledOperator(np.eye(8), (0, 1, 2), (2, 2, 2))


def _circuit(state=np.diag([1.0, 0.0]), blocks=(), system_dims=(2, 2)):
    povm = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    return TesterCircuit(state, blocks, povm, system_dims, (1,))


def _set_labels():
    LabeledOperator(np.eye(2), (0,), (2,)).labels = (1,)


CASES = [
    pytest.param(lambda: cb_distance(_three_labels(), _three_labels()), ValueError,
                 "cb_distance expects single-use Choi operators", id="cb_distance-labels"),
    pytest.param(lambda: cb_distance(_comb(2).choi, _comb(3).choi), ValueError,
                 "Choi operators act on different spaces", id="cb_distance-spaces"),
    pytest.param(lambda: memory_distance(_comb(2), _comb(3)), ValueError,
                 "memory channels act on different spaces", id="memory_distance-spaces"),
    pytest.param(lambda: kraus_orthogonality(identity_channel(2), identity_channel(3),
                                             np.eye(2) / 2), ValueError,
                 "channels must share input and output dimensions", id="kraus_orthogonality"),
    pytest.param(lambda: comb_from_sequence([]), ValueError, "need at least one channel",
                 id="comb_from_sequence"),
    pytest.param(lambda: Channel((), 2, 2), ValueError,
                 "a channel needs at least one Kraus operator", id="Channel"),
    pytest.param(lambda: IsometricComb((np.eye(2),), (2,), (1,)), ValueError,
                 "need one (input, output) dim pair per block", id="IsometricComb-dims"),
    pytest.param(lambda: IsometricComb((np.eye(2),), (2, 2), ()), ValueError,
                 "need one output-ancilla dim per block", id="IsometricComb-ancillas"),
    pytest.param(lambda: apply_channel(identity_channel(2), np.eye(3)), ValueError,
                 "state has shape (3, 3), channel input is 2", id="apply_channel"),
    pytest.param(lambda: kraus_from_choi(_three_labels(), 2, 2), ValueError,
                 "kraus_from_choi expects a two-label Choi operator", id="kraus_from_choi-labels"),
    pytest.param(lambda: kraus_from_choi(_comb(2).choi, 3, 3), ValueError,
                 "Choi dims (2, 2) do not match (3, 3)", id="kraus_from_choi-dims"),
    pytest.param(lambda: _circuit(system_dims=(2,)), ValueError,
                 "need dims for spaces 0..2N-1 and ancillas b_1..b_N", id="TesterCircuit-dims"),
    pytest.param(lambda: _circuit(blocks=(np.eye(2),)), ValueError,
                 "need 0 processing blocks, got 1", id="TesterCircuit-blocks"),
    pytest.param(lambda: _circuit(state=np.eye(3) / 3), ValueError,
                 "input state has shape (3, 3), expected (2, 2)", id="TesterCircuit-state"),
    pytest.param(lambda: simulate_tester_circuit(
        _circuit(), IsometricComb((np.eye(2), np.eye(2)), (2, 2, 2, 2), (1, 1))), ValueError,
        "tester circuit and comb have different numbers of uses", id="simulate-uses"),
    pytest.param(lambda: simulate_tester_circuit(
        _circuit(), IsometricComb((np.eye(3),), (3, 3), (1,))), ValueError,
        "tester circuit and comb disagree on system dimensions", id="simulate-dims"),
    pytest.param(lambda: parallel_optimality_check(np.eye(2), 0), ValueError,
                 "need at least one use", id="parallel_optimality_check"),
    pytest.param(lambda: reduce_sequences([np.eye(2)], [np.eye(3)]), ValueError,
                 "dimension mismatch at position 0", id="reduce_sequences"),
    pytest.param(lambda: matching_conjugation(np.eye(2), np.eye(3)), ValueError,
                 "dimension mismatch", id="matching_conjugation"),
    pytest.param(lambda: build_example(1), ValueError, "dimension must be at least 2",
                 id="build_example"),
    pytest.param(lambda: shift_clock(1), ValueError, "dimension must be at least 2",
                 id="shift_clock"),
    pytest.param(lambda: LabeledOperator(np.eye(2), (0, 1), (2,)), ValueError,
                 "labels and dims must have equal length", id="LabeledOperator-lengths"),
    pytest.param(lambda: LabeledOperator(np.eye(2), (0, 1), (2, 0)), ValueError,
                 "dimensions must be positive, got (2, 0)", id="LabeledOperator-dims"),
    pytest.param(_set_labels, AttributeError, "LabeledOperator is immutable: cannot set labels",
                 id="LabeledOperator-immutable"),
    pytest.param(lambda: _comb(2).choi.permuted((0, 2)), ValueError,
                 "(0, 2) is not a permutation of (0, 1)", id="permuted"),
    pytest.param(lambda: link(LabeledOperator(np.eye(2), (0,), (2,)),
                              LabeledOperator(np.eye(3), (0,), (3,))), ValueError,
                 "shared label 0 has mismatched dimensions", id="link"),
    pytest.param(lambda: trace_norm(np.ones((2, 3))), ValueError,
                 "trace_norm expects a square matrix", id="trace_norm"),
    pytest.param(lambda: undouble_ket(np.ones(5), 2, 2), ValueError,
                 "vector of length 5 is not 2x2", id="undouble_ket"),
]


@pytest.mark.parametrize("call, error, message", CASES)
def test_public_entry_points_reject_bad_input(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert message in str(exc.value)
