"""Facet-entry profiles ≡ the graph sweep, bit for bit.

:meth:`AnalystRecords.profile` replays per-item facet entries instead
of walking the graph; its :class:`CollectionProfile` must be identical
to :func:`collection_profile`'s — including dict and Counter insertion
order, which ``most_common`` tie-breaking leaks into suggestion
ranking, and the handling of non-finite numeric readings (NaN dropped,
±inf kept) — for any nodes, items of the workspace or not.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysts.common import collection_profile
from repro.core.workspace import Workspace
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
def nan_workspace():
    """Items whose numeric facets include NaN/inf/unparseable literals,
    plus untyped nodes outside the item universe."""
    graph = Graph()
    oddities = ["nan", "inf", "-inf", "n/a", "3.5", "nan"]
    for i in range(24):
        item = EX[f"n{i}"]
        graph.add(item, RDF.type, EX.Doc)
        graph.add(item, EX.score, Literal(oddities[i % len(oddities)]))
        graph.add(item, EX.rank, Literal(i))
        if i % 3 == 0:
            graph.add(item, EX.label, Literal(f"label {i % 5}"))
    for i in range(6):
        loose = EX[f"loose{i}"]
        graph.add(loose, EX.score, Literal(oddities[i]))
        graph.add(loose, EX.color, EX[f"c{i % 2}"])
    return Workspace(graph)


class TestFacetProfileBitIdentity:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_subsets_on_recipes(self, recipe_workspace, data):
        workspace = recipe_workspace
        items = sorted(workspace.items, key=lambda n: n.n3())
        subset = data.draw(
            st.lists(st.sampled_from(items), unique=True, max_size=60)
        )
        swept = collection_profile(workspace.graph, workspace.schema, subset)
        replayed = workspace.analyst_records().profile(subset)
        _assert_profiles_identical(swept, replayed)

    def test_nan_and_inf_readings_match(self, nan_workspace):
        workspace = nan_workspace
        items = sorted(workspace.items, key=lambda n: n.n3())
        swept = collection_profile(workspace.graph, workspace.schema, items)
        replayed = workspace.analyst_records().profile(items)
        _assert_profiles_identical(swept, replayed)
        readings = replayed.properties[EX.score]._readings
        # NaN is dropped on both sides; +inf and -inf are kept.
        assert not any(math.isnan(r) for r in readings)
        assert math.inf in readings and -math.inf in readings

    def test_subset_order_controls_profile_order(self, nan_workspace):
        workspace = nan_workspace
        items = sorted(workspace.items, key=lambda n: n.n3())
        for subset in (list(reversed(items)), items[::3], items[5:6]):
            swept = collection_profile(
                workspace.graph, workspace.schema, subset
            )
            replayed = workspace.analyst_records().profile(subset)
            _assert_profiles_identical(swept, replayed)

    def test_non_universe_nodes_profile_like_the_sweep(self, nan_workspace):
        workspace = nan_workspace
        loose = [EX[f"loose{i}"] for i in range(6)]
        assert workspace.query_context.universe.isdisjoint(loose)
        # Untyped nodes, a node with no triples at all, and a mix with
        # items, in an order the graph never inserted them in.
        for nodes in (
            loose,
            [EX.stranger],
            [loose[3], EX.n4, EX.stranger, loose[0], EX.n0],
        ):
            swept = collection_profile(
                workspace.graph, workspace.schema, nodes
            )
            replayed = workspace.analyst_records().profile(nodes)
            _assert_profiles_identical(swept, replayed)
            _assert_profiles_identical(swept, workspace.facet_profile(nodes))

    def test_empty_collection(self, nan_workspace):
        swept = collection_profile(
            nan_workspace.graph, nan_workspace.schema, []
        )
        replayed = nan_workspace.analyst_records().profile([])
        _assert_profiles_identical(swept, replayed)
