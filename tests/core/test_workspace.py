"""Tests for the Workspace integration object."""

from repro.check.reference import naive_extent
from repro.core import Workspace
from repro.query import And, HasValue, Not, Path
from repro.rdf import Graph, Literal, Namespace, RDF, Schema

EX = Namespace("http://w.example/")


def build_graph():
    g = Graph()
    g.add(EX.a, RDF.type, EX.Doc)
    g.add(EX.a, EX.body, Literal("alpha beta"))
    g.add(EX.b, RDF.type, EX.Doc)
    g.add(EX.b, EX.body, Literal("beta gamma"))
    g.add(EX.orphan, EX.body, Literal("no type here"))
    return g


class TestConstruction:
    def test_default_items_are_typed_subjects(self):
        workspace = Workspace(build_graph())
        assert set(workspace.items) == {EX.a, EX.b}

    def test_explicit_items_respected(self):
        workspace = Workspace(build_graph(), items=[EX.a])
        assert workspace.items == [EX.a]
        assert workspace.query_context.universe == {EX.a}

    def test_everything_indexed(self):
        workspace = Workspace(build_graph())
        assert len(workspace.model) == 2
        assert workspace.text_index.indexed_items == {EX.a, EX.b}

    def test_shared_schema(self):
        g = build_graph()
        schema = Schema(g)
        workspace = Workspace(g, schema=schema)
        assert workspace.schema is schema
        assert workspace.model.schema is schema

    def test_label_delegates(self):
        g = build_graph()
        Schema(g).set_label(EX.a, "Document A")
        workspace = Workspace(g)
        assert workspace.label(EX.a) == "Document A"


class TestIncrementalArrival:
    def test_add_item_reaches_every_substrate(self):
        workspace = Workspace(build_graph())
        g = workspace.graph
        g.add(EX.c, RDF.type, EX.Doc)
        g.add(EX.c, EX.body, Literal("delta alpha"))
        workspace.add_item(EX.c)
        assert EX.c in workspace.model
        assert EX.c in workspace.text_index.search("delta")
        assert EX.c in workspace.query_context.universe
        assert EX.c in workspace.items

    def test_add_item_searchable_via_vector_store(self):
        workspace = Workspace(build_graph())
        g = workspace.graph
        g.add(EX.c, RDF.type, EX.Doc)
        g.add(EX.c, EX.body, Literal("zeta eta"))
        workspace.add_item(EX.c)
        hits = workspace.vector_store.search_text("zeta", 5)
        assert [h.item for h in hits] == [EX.c]

    def test_re_add_does_not_duplicate(self):
        workspace = Workspace(build_graph())
        workspace.add_item(EX.a)
        assert workspace.items.count(EX.a) == 1

    def test_add_item_refreshes_cached_complements(self):
        # Extents cached between graph.add and add_item must not outlive
        # the universe growth: add_item moves no graph version.
        g = build_graph()
        g.add(EX.a, EX.color, EX.red)
        workspace = Workspace(g)
        g.add(EX.c, RDF.type, EX.Doc)
        g.add(EX.c, EX.color, EX.blue)
        predicate = Not(HasValue(EX.color, EX.red))
        assert workspace.query_engine.evaluate(predicate) == {EX.b}
        workspace.add_item(EX.c)
        context = workspace.query_context
        expected = naive_extent(predicate, set(context.universe), context)
        assert expected == {EX.b, EX.c}
        assert workspace.query_engine.evaluate(predicate) == expected
        assert workspace.query_engine.count(predicate) == 2
        assert workspace.query_engine.evaluate(And([])) == {EX.a, EX.b, EX.c}

    def test_add_item_refreshes_cached_path_extents(self):
        g = build_graph()
        g.add(EX.a, EX.cites, EX.b)
        workspace = Workspace(g)
        g.add(EX.c, RDF.type, EX.Doc)
        g.add(EX.c, EX.cites, EX.b)
        predicate = Path((EX.cites,), EX.b)
        assert workspace.query_engine.evaluate(predicate) == {EX.a}
        workspace.add_item(EX.c)
        assert workspace.query_engine.evaluate(predicate) == {EX.a, EX.c}
