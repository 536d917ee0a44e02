"""Tests for the text renderers behind the paper's figures."""

import pytest

from repro.browser import (
    FacetSummary,
    Session,
    render_item,
    render_navigation_pane,
    render_overview,
    render_range_widget,
)
from repro.core import Workspace
from repro.query import And, HasValue, RangePreview
from repro.rdf import Graph, Literal, Namespace, RDF, Schema

EX = Namespace("http://rr.example/")


def _graph():
    g = Graph()
    schema = Schema(g)
    schema.set_label(EX.cuisine, "cuisine")
    schema.set_label(EX.greek, "Greek")
    for name, cuisine, title in [
        ("r1", EX.greek, "salad one"),
        ("r2", EX.greek, "salad two"),
        ("r3", EX.mex, "soup three"),
    ]:
        item = EX[name]
        g.add(item, RDF.type, EX.Recipe)
        g.add(item, EX.cuisine, cuisine)
        g.add(item, EX.title, Literal(title))
    return g


@pytest.fixture()
def workspace():
    return Workspace(_graph())


class TestNavigationPane:
    def test_shows_constraint_chips(self, workspace):
        session = Session(workspace)
        session.run_query(HasValue(EX.cuisine, EX.greek))
        pane = render_navigation_pane(session)
        assert "[x] cuisine: Greek" in pane
        assert "(2 items)" in pane

    def test_shows_advisor_sections(self, workspace):
        session = Session(workspace)
        session.run_query(HasValue(EX.cuisine, EX.greek))
        pane = render_navigation_pane(session)
        assert "Refine Collection" in pane
        assert "Modify" in pane

    def test_item_view_header(self, workspace):
        session = Session(workspace)
        session.go_item(EX.r1)
        pane = render_navigation_pane(session)
        assert "Viewing item" in pane

    def test_fuzzy_notice(self, workspace):
        session = Session(workspace, fuzzy_on_empty=True)
        session.run_query(
            And([HasValue(EX.cuisine, EX.greek), HasValue(EX.cuisine, EX.mex)])
        )
        if session.last_was_fuzzy:
            assert "fuzzy" in render_navigation_pane(session)

    def test_overflow_markers(self):
        g = _graph()
        for i in range(9):
            g.add(EX.r1, EX.tag, EX[f"t{i}"])
            g.add(EX.r2, EX.tag, EX[f"t{i}"])
            g.add(EX.r3, EX.tag, EX[f"u{i}"])
        workspace = Workspace(g)
        session = Session(workspace)
        session.go_collection(workspace.items, "all")
        pane = render_navigation_pane(session)
        assert "..." in pane


class TestOverview:
    def test_shows_counts_and_header(self, workspace):
        summary = FacetSummary.of_collection(workspace, workspace.items)
        text = render_overview(summary)
        assert "COLLECTION OVERVIEW — 3 items" in text
        assert "cuisine" in text

    def test_range_line_for_continuous(self):
        g = _graph()
        for i, name in enumerate(["r1", "r2", "r3"]):
            g.add(EX[name], EX.minutes, Literal(10 * (i + 1)))
        workspace = Workspace(g)
        summary = FacetSummary.of_collection(workspace, workspace.items)
        text = render_overview(summary)
        assert "range 10 .. 30" in text


class TestItemSheet:
    def test_lists_properties(self, workspace):
        text = render_item(workspace, EX.r1)
        assert "cuisine: Greek" in text
        assert "salad one" in text

    def test_multivalued_bulleted(self):
        g = _graph()
        g.add(EX.r1, EX.tag, EX.x)
        g.add(EX.r1, EX.tag, EX.y)
        workspace = Workspace(g)
        text = render_item(workspace, EX.r1)
        assert "- x" in text and "- y" in text


class TestRangeWidget:
    def test_layout(self):
        preview = RangePreview([1.0, 2.0, 3.0, 10.0])
        text = render_range_widget(preview, "sent date", low=2.0, high=9.0)
        lines = text.splitlines()
        assert "sent date" in lines[0]
        assert "<" in lines[2] and ">" in lines[2]
        assert "keeps 2/4" in lines[3]

    def test_defaults_to_full_range(self):
        preview = RangePreview([1.0, 5.0])
        text = render_range_widget(preview, "n")
        assert "keeps 2/2" in text

    def test_degenerate_distribution(self):
        preview = RangePreview([3.0, 3.0])
        text = render_range_widget(preview, "n")
        assert "keeps 2/2" in text
