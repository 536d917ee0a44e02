"""Property-based invariants of the semistructured VSM over random graphs."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import Graph, Literal, Namespace, RDF, Schema
from repro.vsm import VectorSpaceModel

EX = Namespace("http://mp.example/")

values = st.one_of(
    st.integers(min_value=0, max_value=4).map(lambda i: EX[f"v{i}"]),
    st.sampled_from(["alpha beta", "gamma", "delta epsilon zeta", "eta"]).map(
        Literal
    ),
    st.integers(min_value=0, max_value=100).map(Literal),
)
properties = st.integers(min_value=0, max_value=3).map(lambda i: EX[f"p{i}"])


@st.composite
def corpora(draw):
    g = Graph()
    n = draw(st.integers(min_value=1, max_value=8))
    items = []
    for i in range(n):
        item = EX[f"item{i}"]
        g.add(item, RDF.type, EX.Thing)
        for _ in range(draw(st.integers(min_value=0, max_value=5))):
            g.add(item, draw(properties), draw(values))
        items.append(item)
    return g, items


@given(corpora())
@settings(max_examples=60)
def test_vectors_unit_length_or_empty(corpus):
    g, items = corpus
    model = VectorSpaceModel(g)
    model.index_items(items)
    for item in items:
        norm = model.vector(item).norm()
        assert norm == 0.0 or math.isclose(norm, 1.0, rel_tol=1e-9)


@given(corpora())
@settings(max_examples=60)
def test_similarity_symmetric_and_bounded(corpus):
    g, items = corpus
    model = VectorSpaceModel(g)
    model.index_items(items)
    for a in items[:4]:
        for b in items[:4]:
            ab = model.similarity(a, b)
            ba = model.similarity(b, a)
            assert math.isclose(ab, ba, rel_tol=1e-9, abs_tol=1e-9)
            assert -1e-9 <= ab <= 1.0 + 1e-9


@given(corpora())
@settings(max_examples=60)
def test_df_counts_match_profiles(corpus):
    g, items = corpus
    model = VectorSpaceModel(g)
    model.index_items(items)
    from collections import Counter

    expected = Counter()
    for item in items:
        for coord in model.profile(item).tf:
            expected[coord] += 1
    for coord, count in expected.items():
        assert model.stats.doc_frequency(coord) == count


@given(corpora())
@settings(max_examples=40)
def test_remove_then_readd_is_stable(corpus):
    g, items = corpus
    model = VectorSpaceModel(g)
    model.index_items(items)
    baseline = {item: model.vector(item) for item in items}
    target = items[0]
    schema = Schema(g)
    removed = VectorSpaceModel.advance(model, g, schema, items[1:], set())
    readded = VectorSpaceModel.advance(removed, g, schema, items, {target})
    for item in items:
        assert readded.vector(item) == baseline[item]


@given(corpora())
@settings(max_examples=40)
def test_insertion_order_irrelevant(corpus):
    g, items = corpus
    forward = VectorSpaceModel(g)
    forward.index_items(items)
    backward = VectorSpaceModel(g)
    backward.index_items(list(reversed(items)))
    for item in items:
        assert forward.vector(item) == backward.vector(item)


@given(corpora())
@settings(max_examples=40)
def test_centroid_bounded(corpus):
    g, items = corpus
    model = VectorSpaceModel(g)
    model.index_items(items)
    centroid = model.centroid(items)
    assert centroid.norm() <= 1.0 + 1e-9
