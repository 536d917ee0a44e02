"""The single-pass collection profile must equal the legacy multi-pass
scans exactly — including dict/Counter insertion order, which decides
``most_common`` tie-breaks downstream."""

import math
from collections import Counter

from repro.core.analysts.common import (
    ANNOTATION_PROPERTIES,
    collection_profile,
    is_facetable_value,
)
from repro.core.epochs import EpochManager
from repro.core.workspace import Workspace
from repro.rdf import Graph, Literal, Namespace, RDF
from repro.store.datom import OP_ASSERT


EX = Namespace("http://profile.example/")


def _legacy_facet_counts(graph, schema, items):
    """The pre-profile implementation, kept verbatim as the oracle."""
    counts = {}
    for item in items:
        for prop, values in graph.properties_of(item).items():
            if prop in ANNOTATION_PROPERTIES or schema.is_hidden(prop):
                continue
            declared = schema.value_type(prop)
            bucket = counts.setdefault(prop, Counter())
            for value in values:
                if is_facetable_value(value, declared):
                    bucket[value] += 1
    return {p: c for p, c in counts.items() if c}


def _collect_values(graph, items, prop):
    """Every finite numeric reading of a property, sorted: the naive loop."""
    values = []
    for item in items:
        for value in graph.objects(item, prop):
            if not isinstance(value, Literal):
                continue
            number = value.as_number()
            if number is not None and math.isfinite(number):
                values.append(number)
    values.sort()
    return values


def _legacy_continuous(graph, schema, items, threshold=0.9):
    """The pre-profile facet-overview detection, kept as the oracle."""
    tallies = {}
    for item in items:
        for prop, values in graph.properties_of(item).items():
            if schema.is_hidden(prop):
                continue
            stats = tallies.setdefault(prop, [0, 0])
            for value in values:
                stats[1] += 1
                if isinstance(value, Literal) and (
                    value.is_numeric or value.is_temporal
                ):
                    stats[0] += 1
    qualified = []
    for prop, (continuous, total) in tallies.items():
        if schema.is_continuous(prop):
            qualified.append(prop)
        elif total > 0 and continuous / total >= threshold:
            qualified.append(prop)
    return sorted(qualified)


class TestProfileEqualsLegacy:
    def test_facet_counts_identical_with_order(self, recipe_workspace):
        workspace = recipe_workspace
        for size in (1, 17, 80, len(workspace.items)):
            items = workspace.items[:size]
            got = collection_profile(
                workspace.graph, workspace.schema, items
            ).facet_counts()
            want = _legacy_facet_counts(workspace.graph, workspace.schema, items)
            assert got == want
            assert list(got) == list(want)
            for prop in want:
                assert list(got[prop].items()) == list(want[prop].items())

    def test_coverage_matches_per_property_scan(self, recipe_workspace):
        workspace = recipe_workspace
        items = workspace.items[:60]
        profile = collection_profile(workspace.graph, workspace.schema, items)
        for prop in profile.properties:
            expected = sum(
                1 for item in items if prop in workspace.graph.properties_of(item)
            )
            assert profile.coverage(prop) == expected

    def test_continuous_detection_matches(self, recipe_workspace):
        workspace = recipe_workspace
        items = workspace.items[:90]
        profile = collection_profile(workspace.graph, workspace.schema, items)
        assert profile.continuous_properties(workspace.schema) == (
            _legacy_continuous(workspace.graph, workspace.schema, items)
        )

    def test_readings_match_collect_values(self, recipe_workspace):
        workspace = recipe_workspace
        items = workspace.items[:90]
        profile = collection_profile(workspace.graph, workspace.schema, items)
        for prop in profile.continuous_properties(workspace.schema):
            assert profile.sorted_readings(prop) == _collect_values(
                workspace.graph, items, prop
            )


class TestWorkspaceMemo:
    def _workspace(self):
        graph = Graph()
        for i in range(6):
            item = EX[f"d{i}"]
            graph.add(item, RDF.type, EX.Doc)
            graph.add(item, EX.color, EX.red if i % 2 == 0 else EX.blue)
            graph.add(item, EX.size, Literal(i * 10))
        return Workspace(graph)

    def test_same_collection_reuses_profile(self):
        workspace = self._workspace()
        items = workspace.items[:4]
        first = workspace.facet_profile(items)
        assert workspace.facet_profile(items) is first
        assert workspace.facet_profile_stats.hits == 1

    def test_graph_mutation_invalidates(self):
        # A change arrives as the next epoch, which carries no profile
        # of a collection the delta touched; the old epoch keeps its own.
        workspace = self._workspace()
        items = list(workspace.items)
        first = workspace.facet_profile(items)
        epochs = EpochManager(workspace)
        epochs.ingest([(OP_ASSERT, EX.d0, EX.color, EX.green)])
        grown = epochs.publish().workspace
        second = grown.facet_profile(items)
        assert second is not first
        assert second.facet_counts()[EX.color][EX.green] == 1
        assert workspace.facet_profile(items) is first

    def test_distinct_collections_get_distinct_profiles(self):
        workspace = self._workspace()
        whole = workspace.facet_profile(workspace.items)
        part = workspace.facet_profile(workspace.items[:2])
        assert part is not whole
        assert part.item_count == 2
