"""Shared generators and probes for the test suite."""

import tracemalloc

import numpy as np

from combtester.channels import IsometricComb
from combtester.matcore import LabeledOperator
from combtester.sampling import (
    haar_isometry,
    haar_unitary,
    random_density,
    random_povm,
    rng_from,
)
from combtester.testers import TesterCircuit
from combtester.unitary import angular_spread


def random_isometric_comb(system_dims, ancilla_dims, rng) -> IsometricComb:
    rng = rng_from(rng)
    blocks = []
    anc_in = 1
    for j in range(len(ancilla_dims)):
        din = system_dims[2 * j] * anc_in
        dout = system_dims[2 * j + 1] * ancilla_dims[j]
        blocks.append(haar_isometry(dout, din, rng))
        anc_in = ancilla_dims[j]
    return IsometricComb(tuple(blocks), tuple(system_dims), tuple(ancilla_dims))


def random_tester_circuit(system_dims, ancilla_dims, n_outcomes, rng) -> TesterCircuit:
    rng = rng_from(rng)
    sd, ad = tuple(system_dims), tuple(ancilla_dims)
    state = random_density(sd[0] * ad[0], rng)
    blocks = []
    for j in range(1, len(ad)):
        din = sd[2 * j - 1] * ad[j - 1]
        dout = sd[2 * j] * ad[j]
        blocks.append(haar_isometry(dout, din, rng))
    povm = random_povm(sd[-1] * ad[-1], n_outcomes, rng)
    return TesterCircuit(state, tuple(blocks), tuple(povm), sd, ad)


def matrix_built(op: LabeledOperator) -> LabeledOperator:
    """``op`` wrapped as its matrix, as a user's operator is built."""
    return LabeledOperator(op.matrix, op.labels, op.dims)


def random_spread_unitary(d: int, max_spread: float, rng) -> np.ndarray:
    """Haar-random eigenbasis with eigenphases inside an arc of given length."""
    rng = rng_from(rng)
    phases = rng.uniform(0.0, max_spread, size=d)
    phases[0] = 0.0
    if d > 1:
        phases[-1] = max_spread
    basis = haar_unitary(d, rng)
    return basis @ np.diag(np.exp(1j * phases)) @ basis.conj().T


def unitary_with_spread_at_least(d: int, bound: float, rng) -> np.ndarray:
    """Rejection-sample a unitary whose spread is at least ``bound``."""
    rng = rng_from(rng)
    while True:
        u = haar_unitary(d, rng)
        if angular_spread(u) >= bound:
            return u


def traced_peak(f, *args, **kwargs):
    """``(f(*args, **kwargs), peak)``: the call's result and its tracemalloc
    peak in bytes above the memory traced as live just before the call."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        result = f(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    return result, peak
