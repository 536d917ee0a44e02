"""Tests for the facet-refinement and text-refinement analysts."""

import pytest

from repro.core import Blackboard, View, Workspace
from repro.core.advisors import REFINE_COLLECTION
from repro.core.analysts import RefinementAnalyst, TextRefinementAnalyst
from repro.core.suggestions import Refine
from repro.query import HasValue, PathValue
from repro.rdf import Graph, Literal, Namespace, RDF, Schema, ValueType

EX = Namespace("http://ra.example/")


def build_graph():
    g = Graph()
    schema = Schema(g)
    schema.set_value_type(EX.body, ValueType.TEXT)
    for i in range(6):
        item = EX[f"d{i}"]
        g.add(item, RDF.type, EX.Doc)
        g.add(item, EX.color, EX.red if i < 4 else EX.blue)
        g.add(item, EX.shape, EX.round)  # in every item
        g.add(item, EX.body, Literal(
            "shared words plus " + ("apple tart" if i < 3 else "beef stew")
        ))
    return g


def build_workspace():
    return Workspace(build_graph())


@pytest.fixture()
def workspace():
    return build_workspace()


def run(analyst, view):
    board = Blackboard()
    assert analyst.triggers_on(view)
    analyst.analyze(view, board)
    return board


class TestRefinementAnalyst:
    def test_posts_facet_values(self, workspace):
        view = View.of_collection(workspace, workspace.items)
        board = run(RefinementAnalyst(), view)
        predicates = {
            s.action.predicate
            for s in board.for_advisor(REFINE_COLLECTION)
            if isinstance(s.action, Refine)
        }
        assert HasValue(EX.color, EX.red) in predicates
        assert HasValue(EX.color, EX.blue) in predicates

    def test_value_in_every_item_not_suggested(self, workspace):
        """'common to some but not all items' (§4.1)."""
        view = View.of_collection(workspace, workspace.items)
        board = run(RefinementAnalyst(), view)
        predicates = {
            s.action.predicate
            for s in board.for_advisor(REFINE_COLLECTION)
            if isinstance(s.action, Refine)
        }
        assert HasValue(EX.shape, EX.round) not in predicates

    def test_counts_in_titles(self, workspace):
        view = View.of_collection(workspace, workspace.items)
        board = run(RefinementAnalyst(), view)
        titles = [s.title for s in board.entries]
        assert any("red (4)" in t for t in titles)

    def test_grouped_by_property_label(self, workspace):
        view = View.of_collection(workspace, workspace.items)
        board = run(RefinementAnalyst(), view)
        groups = {s.group for s in board.entries}
        assert "color" in groups

    def test_does_not_trigger_on_items(self, workspace):
        view = View.of_item(workspace, EX.d0)
        assert not RefinementAnalyst().triggers_on(view)

    def test_does_not_trigger_on_singleton(self, workspace):
        view = View.of_collection(workspace, [EX.d0])
        assert not RefinementAnalyst().triggers_on(view)

    def test_hidden_property_excluded(self):
        g = build_graph()
        Schema(g).hide_property(EX.color)
        workspace = Workspace(g)
        view = View.of_collection(workspace, workspace.items)
        board = run(RefinementAnalyst(), view)
        assert not any("red" in s.title for s in board.entries)

    def test_composed_facets_posted(self):
        g = Graph()
        schema = Schema(g)
        schema.add_composition([EX.body_link, EX.kind])
        for i in range(4):
            item, body = EX[f"m{i}"], EX[f"b{i}"]
            g.add(item, RDF.type, EX.Mail)
            g.add(item, EX.body_link, body)
            g.add(body, EX.kind, Literal("plain" if i < 2 else "html"))
        workspace = Workspace(g, schema=schema, items=[EX[f"m{i}"] for i in range(4)])
        view = View.of_collection(workspace, workspace.items)
        board = run(RefinementAnalyst(), view)
        composed = [
            s.action.predicate
            for s in board.entries
            if isinstance(s.action, Refine)
            and isinstance(s.action.predicate, PathValue)
        ]
        assert PathValue((EX.body_link, EX.kind), Literal("plain")) in composed

    def test_weights_peak_at_mid_coverage(self):
        g = build_graph()
        # one very rare value: should weigh less than the 4/6 red
        g.add(EX.d0, EX.color, EX.green)
        workspace = Workspace(g)
        view = View.of_collection(workspace, workspace.items)
        board = run(RefinementAnalyst(), view)
        weights = {
            s.title.split(" (")[0]: s.weight
            for s in board.entries
            if s.group == "color"
        }
        assert weights["red"] > weights["green"]


class TestTextRefinementAnalyst:
    def test_posts_discriminating_words(self, workspace):
        view = View.of_collection(workspace, workspace.items)
        board = run(TextRefinementAnalyst(), view)
        titles = [s.title for s in board.entries]
        assert any("apple" in t for t in titles)

    def test_word_in_every_item_skipped(self, workspace):
        view = View.of_collection(workspace, workspace.items)
        board = run(TextRefinementAnalyst(), view)
        assert not any("“shared”" in s.title for s in board.entries)

    def test_grouped_per_property(self, workspace):
        view = View.of_collection(workspace, workspace.items)
        board = run(TextRefinementAnalyst(), view)
        assert {s.group for s in board.entries} == {"words in body"}

    def test_surface_form_displayed(self, workspace):
        """Pane shows 'apple', never the stem 'appl'."""
        view = View.of_collection(workspace, workspace.items)
        board = run(TextRefinementAnalyst(), view)
        assert not any("“appl”" in s.title for s in board.entries)

    def test_selecting_word_refines(self, workspace):
        from repro.browser import Session

        session = Session(workspace)
        session.go_collection(workspace.items, "all")
        view = View.of_collection(workspace, workspace.items)
        board = run(TextRefinementAnalyst(), view)
        apple = next(s for s in board.entries if "apple" in s.title)
        session.select(apple)
        assert len(session.current.items) == 3
