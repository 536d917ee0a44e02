"""Tests for the browsing session (§3)."""

import pytest

from repro.browser import Session
from repro.core import Workspace
from repro.core.suggestions import (
    GoToCollection,
    GoToItem,
    Invoke,
    NewQuery,
    OpenRangeWidget,
    Refine,
    RefineMode,
    Suggestion,
)
from repro.query import And, HasValue, Not, TextMatch
from repro.rdf import Graph, Literal, Namespace, RDF, Schema, ValueType

EX = Namespace("http://ss.example/")


def _graph():
    g = Graph()
    schema = Schema(g)
    schema.set_value_type(EX.serves, ValueType.INTEGER)
    data = [
        ("r1", EX.greek, [EX.parsley, EX.feta], 2, "greek salad fresh"),
        ("r2", EX.greek, [EX.lamb, EX.parsley], 6, "roast lamb dinner"),
        ("r3", EX.mexican, [EX.corn, EX.bean], 4, "corn soup warm"),
        ("r4", EX.mexican, [EX.corn, EX.lime], 8, "lime street corn plate"),
        ("r5", EX.italian, [EX.pasta, EX.basil], 3, "basil pasta simple"),
    ]
    for name, cuisine, ings, serves, title in data:
        item = EX[name]
        g.add(item, RDF.type, EX.Recipe)
        g.add(item, EX.cuisine, cuisine)
        for ing in ings:
            g.add(item, EX.ingredient, ing)
        g.add(item, EX.serves, Literal(serves))
        g.add(item, EX.title, Literal(title))
    return g


@pytest.fixture()
def workspace():
    return Workspace(_graph())


@pytest.fixture()
def session(workspace):
    return Session(workspace)


class TestStartingSearches:
    def test_initial_view_is_everything(self, session, workspace):
        assert session.current.is_collection
        assert len(session.current.items) == len(workspace.items)

    def test_keyword_search(self, session):
        view = session.search("corn")
        assert set(view.items) == {EX.r3, EX.r4}

    def test_search_is_a_new_query(self, session):
        session.search("corn")
        session.search("basil")
        assert session.current.items == [EX.r5]

    def test_run_query(self, session):
        view = session.run_query(HasValue(EX.cuisine, EX.greek))
        assert set(view.items) == {EX.r1, EX.r2}

    def test_search_within(self, session):
        session.run_query(HasValue(EX.cuisine, EX.mexican))
        view = session.search_within("lime")
        assert view.items == [EX.r4]


class TestSelectActions:
    def test_refine_filter(self, session):
        session.run_query(HasValue(EX.cuisine, EX.greek))
        suggestion = Suggestion(
            "refine-collection", "parsley",
            Refine(HasValue(EX.ingredient, EX.parsley)), 1.0,
        )
        view = session.select(suggestion)
        assert set(view.items) == {EX.r1, EX.r2}
        assert len(session.constraints()) == 2

    def test_refine_exclude(self, session):
        session.run_query(HasValue(EX.cuisine, EX.greek))
        suggestion = Suggestion(
            "refine-collection", "no feta",
            Refine(HasValue(EX.ingredient, EX.feta)), 1.0,
        )
        view = session.select(suggestion, mode=RefineMode.EXCLUDE)
        assert view.items == [EX.r2]

    def test_refine_expand(self, session):
        session.run_query(HasValue(EX.cuisine, EX.greek))
        suggestion = Suggestion(
            "refine-collection", "also italian",
            Refine(HasValue(EX.cuisine, EX.italian)), 1.0,
        )
        view = session.select(suggestion, mode=RefineMode.EXPAND)
        assert set(view.items) == {EX.r1, EX.r2, EX.r5}

    def test_go_to_item_records_visit(self, session):
        suggestion = Suggestion("history", "go", GoToItem(EX.r1), 1.0)
        view = session.select(suggestion)
        assert view.is_item and view.item == EX.r1
        assert session.history.visit_log.visits[-1] == EX.r1

    def test_go_to_collection(self, session):
        suggestion = Suggestion(
            "related-items", "similar",
            GoToCollection([EX.r1, EX.r2], "similar things"), 1.0,
        )
        view = session.select(suggestion)
        assert view.items == [EX.r1, EX.r2]
        assert view.query is None

    def test_new_query(self, session):
        suggestion = Suggestion(
            "modify", "contrary",
            NewQuery(Not(HasValue(EX.cuisine, EX.greek))), 1.0,
        )
        view = session.select(suggestion)
        assert set(view.items) == {EX.r3, EX.r4, EX.r5}

    def test_range_widget_returned_then_applied(self, session):
        from repro.query import RangePreview

        widget = OpenRangeWidget(EX.serves, RangePreview([2.0, 8.0]))
        suggestion = Suggestion("refine-collection", "serves", widget, 1.0)
        returned = session.select(suggestion)
        assert returned is widget
        view = session.apply_range(EX.serves, 4, 8)
        assert set(view.items) == {EX.r2, EX.r3, EX.r4}

    def test_invoke_runs_callback(self, session):
        called = []
        suggestion = Suggestion(
            "refine-collection", "do it",
            Invoke(lambda: called.append(True) or "done", "cb"), 1.0,
        )
        assert session.select(suggestion) == "done"
        assert called


class TestConstraintChips:
    def test_describe(self, session):
        session.run_query(
            And([HasValue(EX.cuisine, EX.greek),
                 HasValue(EX.ingredient, EX.parsley)])
        )
        chips = session.describe_constraints()
        assert chips == ["cuisine: greek", "ingredient: parsley"]

    def test_remove_constraint(self, session):
        session.run_query(
            And([HasValue(EX.cuisine, EX.greek),
                 HasValue(EX.ingredient, EX.parsley)])
        )
        view = session.remove_constraint(1)
        assert set(view.items) == {EX.r1, EX.r2}
        assert len(session.constraints()) == 1

    def test_remove_last_constraint_shows_everything(self, session, workspace):
        session.run_query(HasValue(EX.cuisine, EX.greek))
        view = session.remove_constraint(0)
        assert len(view.items) == len(workspace.items)

    def test_remove_bad_index(self, session):
        session.run_query(HasValue(EX.cuisine, EX.greek))
        with pytest.raises(IndexError):
            session.remove_constraint(7)

    def test_negate_constraint(self, session):
        """§3.2: view recipes with parsley but NOT Greek."""
        session.run_query(
            And([HasValue(EX.ingredient, EX.parsley),
                 HasValue(EX.cuisine, EX.greek)])
        )
        view = session.negate_constraint(1)
        assert view.items == []  # only greek recipes have parsley here

    def test_negate_constraint_double_restores(self, session):
        session.run_query(HasValue(EX.cuisine, EX.greek))
        session.negate_constraint(0)
        view = session.negate_constraint(0)
        assert set(view.items) == {EX.r1, EX.r2}


class TestHistoryNavigation:
    def test_undo_refinement(self, session):
        session.run_query(HasValue(EX.cuisine, EX.mexican))
        session.refine(HasValue(EX.ingredient, EX.lime))
        assert session.current.items == [EX.r4]
        view = session.undo_refinement()
        assert set(view.items) == {EX.r3, EX.r4}

    def test_undo_past_beginning_shows_everything(self, session, workspace):
        session.run_query(HasValue(EX.cuisine, EX.mexican))
        session.undo_refinement()
        view = session.undo_refinement()
        assert len(view.items) == len(workspace.items)

    def test_suggestions_cached_per_view(self, session):
        session.run_query(HasValue(EX.cuisine, EX.greek))
        first = session.suggestions()
        assert session.suggestions() is first
        session.refine(HasValue(EX.ingredient, EX.parsley))
        assert session.suggestions() is not first


class TestFuzzyOnEmpty:
    def test_disabled_by_default(self, session):
        session.run_query(
            And([HasValue(EX.ingredient, EX.corn),
                 HasValue(EX.cuisine, EX.greek)])
        )
        assert session.current.items == []
        assert not session.last_was_fuzzy

    def test_fuzzy_fallback_returns_ranked_neighbours(self, workspace):
        session = Session(workspace, fuzzy_on_empty=True)
        session.run_query(
            And([HasValue(EX.ingredient, EX.corn),
                 HasValue(EX.cuisine, EX.greek)])
        )
        assert session.last_was_fuzzy
        assert session.current.items  # corn or greek recipes, ranked
        found = set(session.current.items)
        assert found & {EX.r1, EX.r2, EX.r3, EX.r4}

    def test_fuzzy_flag_resets_on_nonempty(self, workspace):
        session = Session(workspace, fuzzy_on_empty=True)
        session.run_query(
            And([HasValue(EX.ingredient, EX.corn),
                 HasValue(EX.cuisine, EX.greek)])
        )
        session.run_query(HasValue(EX.cuisine, EX.greek))
        assert not session.last_was_fuzzy

    def test_text_search_fuzzy(self, workspace):
        session = Session(workspace, fuzzy_on_empty=True)
        session.run_query(
            And([TextMatch("corn"), TextMatch("basil")])
        )
        assert session.last_was_fuzzy
        assert session.current.items


class TestSubcollectionApply:
    def test_any_quantifier(self, session, workspace):
        session.go_collection(workspace.items, "all")
        view = session.apply_subcollection(
            EX.ingredient, [EX.corn, EX.basil], quantifier="any"
        )
        assert set(view.items) == {EX.r3, EX.r4, EX.r5}

    def test_all_quantifier(self, session, workspace):
        session.go_collection(workspace.items, "all")
        view = session.apply_subcollection(
            EX.ingredient, [EX.corn, EX.bean, EX.lime], quantifier="all"
        )
        assert set(view.items) == {EX.r3, EX.r4}

    def test_items_without_property_skipped(self):
        g = _graph()
        g.add(EX.bare, RDF.type, EX.Recipe)
        workspace = Workspace(g)
        session = Session(workspace)
        assert EX.bare in workspace.items
        session.go_collection(workspace.items, "all")
        view = session.apply_subcollection(
            EX.ingredient, list(g.objects(None, EX.ingredient)),
            quantifier="all",
        )
        assert EX.bare not in view.items

    def test_bad_quantifier(self, session):
        with pytest.raises(ValueError):
            session.apply_subcollection(EX.ingredient, [], quantifier="most")
