"""Facet postings profiles ≡ the graph sweep, bit for bit.

:meth:`FacetPostings.profile` replays precomputed per-item records
instead of walking the graph; its :class:`CollectionProfile` must be
identical to :func:`collection_profile`'s — including dict and Counter
insertion order, which ``most_common`` tie-breaking leaks into
suggestion ranking, and the handling of non-finite numeric readings
(NaN dropped, ±inf kept).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysts.common import collection_profile
from repro.query import QueryContext
from repro.rdf import Graph, Literal, Namespace, RDF

EX = Namespace("http://postings-profile.example/")


def _nan_aware_equal(a, b):
    if len(a) != len(b):
        return False
    return all(x == y or (x != x and y != y) for x, y in zip(a, b))


def _assert_profiles_identical(swept, replayed):
    assert replayed is not None
    assert swept.item_count == replayed.item_count
    # dict insertion order is part of the contract (suggestion ordering)
    assert list(swept.properties.keys()) == list(replayed.properties.keys())
    for prop, expected in swept.properties.items():
        actual = replayed.properties[prop]
        assert actual.declared == expected.declared
        assert actual.is_annotation == expected.is_annotation
        assert actual.coverage == expected.coverage
        assert actual.value_tally == expected.value_tally
        assert actual.continuous_tally == expected.continuous_tally
        # Counter insertion order leaks through most_common tie-breaks
        assert list(actual.counts.items()) == list(expected.counts.items())
        assert _nan_aware_equal(actual._readings, expected._readings)


@pytest.fixture(scope="module")
def nan_context():
    """Items whose numeric facets include NaN/inf/unparseable literals."""
    graph = Graph()
    oddities = ["nan", "inf", "-inf", "n/a", "3.5", "nan"]
    for i in range(24):
        item = EX[f"n{i}"]
        graph.add(item, RDF.type, EX.Doc)
        graph.add(item, EX.score, Literal(oddities[i % len(oddities)]))
        graph.add(item, EX.rank, Literal(i))
        if i % 3 == 0:
            graph.add(item, EX.label, Literal(f"label {i % 5}"))
    return QueryContext(graph)


class TestFacetProfileBitIdentity:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_subsets_on_recipes(self, recipe_workspace, data):
        context = recipe_workspace.query_context
        items = sorted(context.universe, key=lambda n: n.n3())
        subset = data.draw(
            st.lists(st.sampled_from(items), unique=True, max_size=60)
        )
        swept = collection_profile(context.graph, context.schema, subset)
        replayed = context.facet_postings().profile(subset)
        _assert_profiles_identical(swept, replayed)

    def test_nan_and_inf_readings_match(self, nan_context):
        context = nan_context
        items = sorted(context.universe, key=lambda n: n.n3())
        swept = collection_profile(context.graph, context.schema, items)
        replayed = context.facet_postings().profile(items)
        _assert_profiles_identical(swept, replayed)
        readings = replayed.properties[EX.score]._readings
        # NaN is dropped on both sides; +inf and -inf are kept.
        assert not any(math.isnan(r) for r in readings)
        assert math.inf in readings and -math.inf in readings

    def test_subset_order_controls_profile_order(self, nan_context):
        context = nan_context
        items = sorted(context.universe, key=lambda n: n.n3())
        for subset in (list(reversed(items)), items[::3], items[5:6]):
            swept = collection_profile(context.graph, context.schema, subset)
            replayed = context.facet_postings().profile(subset)
            _assert_profiles_identical(swept, replayed)

    def test_unknown_item_falls_back_to_none(self, nan_context):
        assert nan_context.facet_postings().profile([EX.stranger]) is None

    def test_empty_collection(self, nan_context):
        swept = collection_profile(nan_context.graph, nan_context.schema, [])
        replayed = nan_context.facet_postings().profile([])
        _assert_profiles_identical(swept, replayed)
