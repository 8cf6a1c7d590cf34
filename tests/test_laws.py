"""Laws of the one-use (cb) distance, checked on certified interval ends.

A one-use estimate is an interval ``[value, upper]`` with both ends
certified, so a law that fails between ends is a bug, not seesaw noise:
identity, symmetry and the bound 2, the triangle inequality, data
processing, and unitary invariance.  The pairs are Haar unitaries and
random Kraus channels on a qubit or a qutrit; a triangle's middle channel
may be one of its ends, and a processing channel may be unitary, where both
laws hold with equality.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from combtester.channels import Channel, comb_from_sequence, compose_channels, unitary_channel
from combtester.distances import cb_distance
from combtester.sampling import haar_unitary, random_kraus

dims = st.sampled_from([2, 3])
kinds = st.sampled_from(["haar", 2, 3])  # a Haar unitary, or a Kraus rank
seeds = st.integers(0, 2**32 - 1)
laws = settings(derandomize=True, deadline=None, max_examples=20)


def _channel(kind, d, rng, d_out=None) -> Channel:
    if kind == "haar":
        return unitary_channel(haar_unitary(d, rng))
    return Channel(tuple(random_kraus(d, d_out or d, kind, rng)), d, d_out or d)


def _interval(a: Channel, b: Channel) -> tuple[float, float]:
    est = cb_distance(*(comb_from_sequence([c]).choi for c in (a, b)), restarts=3)
    return est.value, est.upper


@laws
@given(d=dims, pair=st.tuples(kinds, kinds), seed=seeds)
def test_identity_symmetry_and_range(d, pair, seed):
    rng = np.random.default_rng(seed)
    a, b = (_channel(kind, d, rng) for kind in pair)
    value, upper = _interval(a, a)
    assert value == 0.0 <= upper
    ab, ba = _interval(a, b), _interval(b, a)
    for value, upper in (ab, ba):
        assert 0.0 <= value <= upper <= 2.0
    assert ab[0] <= ba[1] and ba[0] <= ab[1]


@laws
@given(d=dims, triple=st.tuples(kinds, kinds, kinds), middle=st.sampled_from("abc"),
       seed=seeds)
def test_triangle(d, triple, middle, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (_channel(kind, d, rng) for kind in triple)
    b = {"a": a, "b": b, "c": c}[middle]
    assert _interval(a, c)[0] <= _interval(a, b)[1] + _interval(b, c)[1]


@laws
@given(d=dims, pair=st.tuples(kinds, kinds), processing=kinds, d_out=dims, seed=seeds)
def test_data_processing(d, pair, processing, d_out, seed):
    rng = np.random.default_rng(seed)
    a, b = (_channel(kind, d, rng) for kind in pair)
    phi = _channel(processing, d, rng, d_out)
    processed = _interval(compose_channels(phi, a), compose_channels(phi, b))
    assert processed[0] <= _interval(a, b)[1]


@laws
@given(d=dims, pair=st.tuples(kinds, kinds), seed=seeds)
def test_unitary_invariance(d, pair, seed):
    # the same unitary before both channels and another after both leave the
    # distance as it is, so the two certified intervals overlap
    rng = np.random.default_rng(seed)
    a, b = (_channel(kind, d, rng) for kind in pair)
    before, after = (unitary_channel(haar_unitary(d, rng)) for _ in "ab")
    value, upper = _interval(a, b)
    moved = _interval(*(compose_channels(after, compose_channels(c, before)) for c in (a, b)))
    assert moved[0] <= upper and value <= moved[1]
