"""Tests for the Workspace integration object."""

from repro.check.reference import naive_extent
from repro.core import Workspace
from repro.core.epochs import EpochManager
from repro.query import And, HasValue, Not, Path
from repro.rdf import Graph, Literal, Namespace, RDF, Schema
from repro.store.datom import OP_ASSERT

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


def _publish(workspace, *triples):
    """The next epoch after one transaction asserting ``triples``."""
    epochs = EpochManager(workspace)
    epochs.ingest([(OP_ASSERT, s, p, o) for s, p, o in triples])
    epochs.publish()
    return epochs.current.workspace


class TestIncrementalArrival:
    """Items arrive through an ingested transaction and a publish."""

    def test_add_item_reaches_every_substrate(self):
        workspace = _publish(
            Workspace(build_graph()),
            (EX.c, RDF.type, EX.Doc),
            (EX.c, EX.body, Literal("delta alpha")),
        )
        assert EX.c in workspace.model
        assert EX.c in workspace.text_index.search("delta")
        assert EX.c in workspace.query_context.universe
        assert EX.c in workspace.items

    def test_add_item_searchable_via_vector_store(self):
        workspace = _publish(
            Workspace(build_graph()),
            (EX.c, RDF.type, EX.Doc),
            (EX.c, EX.body, Literal("zeta eta")),
        )
        hits = workspace.vector_store.search_text("zeta", 5)
        assert [h.item for h in hits] == [EX.c]

    def test_re_add_does_not_duplicate(self):
        workspace = _publish(
            Workspace(build_graph()),
            (EX.a, RDF.type, EX.Doc),
            (EX.a, EX.body, Literal("alpha again")),
        )
        assert workspace.items.count(EX.a) == 1

    def test_add_item_refreshes_cached_complements(self):
        # Extents cached on one epoch must not leak into the next: the
        # universe grows, which moves complements and empty conjunctions.
        g = build_graph()
        g.add(EX.a, EX.color, EX.red)
        before = Workspace(g)
        predicate = Not(HasValue(EX.color, EX.red))
        assert before.query_engine.evaluate(predicate) == {EX.b}
        workspace = _publish(
            before, (EX.c, RDF.type, EX.Doc), (EX.c, EX.color, EX.blue)
        )
        context = workspace.query_context
        expected = naive_extent(predicate, set(context.universe), context)
        assert expected == {EX.b, EX.c}
        assert workspace.query_engine.evaluate(predicate) == expected
        assert workspace.query_engine.count(predicate) == 2
        assert workspace.query_engine.evaluate(And([])) == {EX.a, EX.b, EX.c}
        assert before.query_engine.evaluate(predicate) == {EX.b}

    def test_add_item_refreshes_cached_path_extents(self):
        g = build_graph()
        g.add(EX.a, EX.cites, EX.b)
        before = Workspace(g)
        predicate = Path((EX.cites,), EX.b)
        assert before.query_engine.evaluate(predicate) == {EX.a}
        workspace = _publish(
            before, (EX.c, RDF.type, EX.Doc), (EX.c, EX.cites, EX.b)
        )
        assert workspace.query_engine.evaluate(predicate) == {EX.a, EX.c}
        assert before.query_engine.evaluate(predicate) == {EX.a}
