"""Tests for the similar-by-content and sharing-a-property analysts."""

import pytest

from repro.core import Blackboard, View, Workspace
from repro.core.advisors import RELATED_ITEMS
from repro.core.analysts import (
    SharingPropertyAnalyst,
    SimilarToCollectionAnalyst,
    SimilarToItemAnalyst,
)
from repro.core.analysts.property_share import fellows
from repro.core.suggestions import GoToCollection
from repro.rdf import Graph, Literal, Namespace, RDF

EX = Namespace("http://sa.example/")


@pytest.fixture()
def workspace():
    g = Graph()
    for name, ings, title in [
        ("r1", [EX.apple, EX.flour, EX.honey], "apple honey cake"),
        ("r2", [EX.apple, EX.flour], "apple bread"),
        ("r3", [EX.apple, EX.honey], "honey apple tart"),
        ("r4", [EX.beef, EX.onion], "beef stew"),
        ("r5", [EX.beef, EX.carrot], "beef soup"),
    ]:
        item = EX[name]
        g.add(item, RDF.type, EX.Recipe)
        for ing in ings:
            g.add(item, EX.ingredient, ing)
        g.add(item, EX.title, Literal(title))
    return Workspace(g)


def run(analyst, view):
    board = Blackboard()
    assert analyst.triggers_on(view)
    analyst.analyze(view, board)
    return board


class TestSimilarToItem:
    def test_posts_one_collection_suggestion(self, workspace):
        view = View.of_item(workspace, EX.r1)
        board = run(SimilarToItemAnalyst(), view)
        suggestions = board.for_advisor(RELATED_ITEMS)
        assert len(suggestions) == 1
        assert isinstance(suggestions[0].action, GoToCollection)

    def test_similar_items_share_structure(self, workspace):
        view = View.of_item(workspace, EX.r1)
        board = run(SimilarToItemAnalyst(k=2), view)
        items = board.entries[0].action.items
        assert set(items) <= {EX.r2, EX.r3}

    def test_item_itself_excluded(self, workspace):
        view = View.of_item(workspace, EX.r1)
        board = run(SimilarToItemAnalyst(), view)
        assert EX.r1 not in board.entries[0].action.items

    def test_does_not_trigger_on_collections(self, workspace):
        view = View.of_collection(workspace, workspace.items)
        assert not SimilarToItemAnalyst().triggers_on(view)

    def test_does_not_trigger_on_unindexed_item(self, workspace):
        view = View.of_item(workspace, EX.unknown)
        assert not SimilarToItemAnalyst().triggers_on(view)


class TestSimilarToCollection:
    def test_suggests_new_items_only(self, workspace):
        members = [EX.r1, EX.r2]
        view = View.of_collection(workspace, members)
        board = run(SimilarToCollectionAnalyst(), view)
        suggested = set(board.entries[0].action.items)
        assert suggested and not (suggested & set(members))

    def test_expansion_is_relevant(self, workspace):
        view = View.of_collection(workspace, [EX.r1, EX.r2])
        board = run(SimilarToCollectionAnalyst(k=1), view)
        assert board.entries[0].action.items == [EX.r3]

    def test_silent_when_nothing_similar(self):
        g = Graph()
        g.add(EX.only, RDF.type, EX.Doc)
        g.add(EX.only, EX.tag, EX.unique)
        workspace = Workspace(g)
        view = View.of_collection(workspace, [EX.only])
        board = Blackboard()
        SimilarToCollectionAnalyst().analyze(view, board)
        assert len(board) == 0


class TestSharingProperty:
    def test_posts_per_shared_value(self, workspace):
        view = View.of_item(workspace, EX.r1)
        board = run(SharingPropertyAnalyst(), view)
        titles = [s.title for s in board.entries]
        assert any("apple (2)" in t for t in titles)
        assert any("honey (1)" in t for t in titles)

    def test_collections_exclude_the_item(self, workspace):
        view = View.of_item(workspace, EX.r1)
        board = run(SharingPropertyAnalyst(), view)
        for suggestion in board.entries:
            assert EX.r1 not in suggestion.action.items

    def test_unshared_value_not_posted(self, workspace):
        view = View.of_item(workspace, EX.r5)
        board = run(SharingPropertyAnalyst(), view)
        assert not any("carrot" in s.title for s in board.entries)

    def test_rarer_shared_values_weigh_more(self, workspace):
        view = View.of_item(workspace, EX.r1)
        board = run(SharingPropertyAnalyst(), view)
        weights = {}
        for s in board.entries:
            if "ingredient" in (s.group or ""):
                name = s.title.split(":")[1].split("(")[0].strip()
                weights[name] = s.weight
        assert weights["honey"] > weights["apple"]

    def test_groups_by_property(self, workspace):
        view = View.of_item(workspace, EX.r1)
        board = run(SharingPropertyAnalyst(), view)
        assert "Sharing ingredient" in {s.group for s in board.entries}

    def test_item_outside_the_universe_lists_fellows_inside_it(
        self, workspace
    ):
        """Fellows are universe items only, whether or not the viewed
        item is in the universe."""
        graph = workspace.graph
        outside = Workspace(
            graph, items=[EX.r1, EX.r2, EX.r4, EX.r5]
        )
        assert fellows(outside, EX.r3, EX.ingredient, EX.apple) == [
            EX.r1, EX.r2,
        ]
        assert fellows(outside, EX.r1, EX.ingredient, EX.honey) == []


def _old_fellows(workspace, item, prop, value):
    """The fellows as the analyst listed them by sorting each extent."""
    return sorted(
        (
            other
            for other in workspace.graph.subjects(prop, value)
            if other != item and other in workspace.query_context.universe
        ),
        key=lambda n: n.n3(),
    )


def _every_shared_pair(workspace, items):
    for item in items:
        for prop, values in workspace.graph.properties_of(item).items():
            for value in values:
                yield item, prop, value


@pytest.mark.parametrize("name", ["recipe", "inbox"])
def test_fellows_equal_the_sorted_extent_filter(name, request):
    """Mask-listed fellows equal the old per-view sort for every item of
    the corpus, and for every item of a workspace over half of it (so
    that both fellows and the viewed item fall outside the universe)."""
    corpus = request.getfixturevalue(f"{name}_corpus")
    whole = request.getfixturevalue(f"{name}_workspace")
    half = Workspace(
        corpus.graph, schema=corpus.schema, items=corpus.items[::2]
    )
    checked = 0
    for workspace in (whole, half):
        for item, prop, value in _every_shared_pair(workspace, corpus.items):
            assert fellows(workspace, item, prop, value) == _old_fellows(
                workspace, item, prop, value
            ), (item, prop, value)
            checked += 1
    assert checked > 2 * len(corpus.items)
