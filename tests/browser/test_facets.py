"""Tests for the faceted overview (Figure 2)."""

import pytest

from repro.browser import FacetSummary
from repro.core import Workspace
from repro.rdf import Graph, Literal, Namespace, RDF, Schema, ValueType

EX = Namespace("http://f.example/")


def _graph():
    g = Graph()
    schema = Schema(g)
    schema.set_label(EX.kind, "kind")
    schema.set_value_type(EX.size, ValueType.INTEGER)
    for i in range(10):
        item = EX[f"d{i}"]
        g.add(item, RDF.type, EX.Doc)
        g.add(item, EX.kind, EX.a if i < 7 else EX.b)
        g.add(item, EX.size, Literal(i))
        if i < 4:
            g.add(item, EX.rare, EX.x)
    return g


@pytest.fixture()
def workspace():
    return Workspace(_graph())


class TestFacetSummary:
    def test_counts_per_value(self, workspace):
        summary = FacetSummary.of_collection(workspace, workspace.items)
        facet = summary.facet_for(EX.kind)
        counts = dict(
            (value, count) for value, count in facet.values
        )
        assert counts[EX.a] == 7 and counts[EX.b] == 3

    def test_values_sorted_by_count(self, workspace):
        summary = FacetSummary.of_collection(workspace, workspace.items)
        facet = summary.facet_for(EX.kind)
        counts = [count for _v, count in facet.values]
        assert counts == sorted(counts, reverse=True)

    def test_coverage(self, workspace):
        summary = FacetSummary.of_collection(workspace, workspace.items)
        assert summary.facet_for(EX.rare).coverage == 4
        assert summary.facet_for(EX.kind).coverage == 10

    def test_high_coverage_facets_first(self, workspace):
        summary = FacetSummary.of_collection(workspace, workspace.items)
        coverages = [facet.coverage for facet in summary]
        assert coverages == sorted(coverages, reverse=True)

    def test_continuous_property_gets_range(self, workspace):
        summary = FacetSummary.of_collection(workspace, workspace.items)
        facet = summary.facet_for(EX.size)
        assert facet.range_preview is not None
        assert facet.range_preview.low == 0.0
        assert facet.range_preview.high == 9.0

    def test_truncation_flag(self):
        g = _graph()
        for i in range(10):
            g.add(EX[f"d{i}"], EX.many, EX[f"v{i}"])
        workspace = Workspace(g)
        summary = FacetSummary.of_collection(
            workspace, workspace.items, max_values=3
        )
        facet = summary.facet_for(EX.many)
        assert facet.truncated
        assert len(facet.values) == 3
        assert facet.total_values == 10

    def test_hidden_properties_excluded(self):
        g = _graph()
        Schema(g).hide_property(EX.rare)
        workspace = Workspace(g)
        summary = FacetSummary.of_collection(workspace, workspace.items)
        assert summary.facet_for(EX.rare) is None

    def test_collection_size_recorded(self, workspace):
        summary = FacetSummary.of_collection(workspace, workspace.items[:4])
        assert summary.collection_size == 4

    def test_len_and_iter(self, workspace):
        summary = FacetSummary.of_collection(workspace, workspace.items)
        assert len(summary) == len(list(summary))
