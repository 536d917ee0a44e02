"""Property-based tests for sparse-vector algebra."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vsm import SparseVector

keys = st.text(min_size=1, max_size=4)
# Subnormal doubles (≈5e-324) are excluded: at that scale the norm grid
# itself quantizes and no algorithm can keep unit length to 1e-9.  Real
# tf.idf weights live many hundred orders of magnitude above it.
weights = st.floats(
    min_value=-100.0,
    max_value=100.0,
    allow_nan=False,
    allow_infinity=False,
    allow_subnormal=False,
)
vectors = st.dictionaries(keys, weights, max_size=8).map(SparseVector)


@given(vectors, vectors)
def test_dot_commutative(u, v):
    assert math.isclose(u.dot(v), v.dot(u), rel_tol=1e-9, abs_tol=1e-9)


@given(vectors)
def test_dot_with_self_is_norm_squared(v):
    assert math.isclose(v.dot(v), v.norm() ** 2, rel_tol=1e-9, abs_tol=1e-9)


@given(vectors, vectors, vectors)
def test_dot_distributes_over_addition(u, v, w):
    left = u.dot(v + w)
    right = u.dot(v) + u.dot(w)
    assert math.isclose(left, right, rel_tol=1e-6, abs_tol=1e-6)


@given(vectors)
def test_normalized_has_unit_norm_or_zero(v):
    n = v.normalized()
    if len(v) == 0 or v.norm() == 0.0:
        assert n.norm() == 0.0
    else:
        assert math.isclose(n.norm(), 1.0, rel_tol=1e-9)


@given(vectors, st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_scaling_scales_norm(v, factor):
    assert math.isclose(
        v.scaled(factor).norm(), abs(factor) * v.norm(),
        rel_tol=1e-9, abs_tol=1e-9,
    )


@given(vectors, vectors)
def test_cauchy_schwarz(u, v):
    assert abs(u.dot(v)) <= u.norm() * v.norm() + 1e-6


@given(vectors, vectors)
def test_cosine_bounded(u, v):
    assert -1.0 - 1e-9 <= u.cosine(v) <= 1.0 + 1e-9


@given(vectors)
def test_addition_identity(v):
    assert (v + SparseVector()) == v


@given(vectors)
def test_subtraction_self_is_zero(v):
    assert len(v - v) == 0


@given(st.lists(vectors, max_size=6))
def test_centroid_norm_at_most_one(vs):
    assert SparseVector.centroid(vs).norm() <= 1.0 + 1e-9


@given(vectors)
def test_no_zero_entries_stored(v):
    assert all(w != 0.0 for _k, w in v.items())


def _folded_centroid(vs):
    """The reference: fold ``total + vec`` (a full copy per member)."""
    total = SparseVector()
    for v in vs:
        total = total + v
    return total.normalized() if vs else total


# Few distinct weights and keys, so running sums cancel to exactly 0.0.
cancelling = st.dictionaries(
    st.sampled_from("abcde"),
    st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.25, -0.25, 3.0]),
    max_size=5,
).map(SparseVector)


@given(st.lists(st.one_of(vectors, cancelling), max_size=8))
@settings(max_examples=300)
def test_centroid_matches_fold_bit_for_bit(vs):
    got = SparseVector.centroid(vs)
    want = _folded_centroid(vs)
    # Key order too: it is the summation order of a search.
    assert list(got.items()) == list(want.items())


def test_centroid_reinserts_a_cancelled_key_at_the_end():
    vs = [
        SparseVector({"a": 1.0, "b": 1.0}),
        SparseVector({"a": -1.0}),
        SparseVector({"a": 2.0}),
    ]
    assert list(SparseVector.centroid(vs).keys()) == ["b", "a"]
    assert list(SparseVector.centroid(vs).items()) == list(
        _folded_centroid(vs).items()
    )
