"""Integration: data arriving over time stays searchable everywhere.

Arrivals take the path that serves them: a transaction ingested into an
:class:`~repro.core.epochs.EpochManager` and folded into the next epoch
by ``publish``; a session moves onto it through ``sync_session``.
"""

from repro.browser import Session
from repro.core import Workspace
from repro.core.epochs import EpochManager
from repro.query import HasValue
from repro.rdf import Graph, Literal, Namespace, RDF
from repro.service.manager import SessionManager
from repro.store.datom import OP_ASSERT

EX = Namespace("http://inc.example/")


def make_item(graph, name, tag, text):
    item = EX[name]
    graph.add(item, RDF.type, EX.Doc)
    graph.add(item, EX.tag, tag)
    graph.add(item, EX.body, Literal(text))
    return item


def ingest_item(epochs, name, tag, text):
    """Ingest one new item as one transaction; returns the item."""
    item = EX[name]
    epochs.ingest(
        [
            (OP_ASSERT, item, RDF.type, EX.Doc),
            (OP_ASSERT, item, EX.tag, tag),
            (OP_ASSERT, item, EX.body, Literal(text)),
        ]
    )
    return item


def arrive(epochs, name, tag, text):
    """Ingest one new item and publish it; returns the item."""
    item = ingest_item(epochs, name, tag, text)
    epochs.publish()
    return item


class TestArrivals:
    def test_stream_of_arrivals(self):
        g = Graph()
        first = make_item(g, "d1", EX.red, "alpha words here")
        epochs = EpochManager(Workspace(g))
        manager = SessionManager(epochs.current.workspace)
        manager.attach_epochs(epochs)
        session = manager.create("reader")
        assert session.search("alpha").items == [first]

        second = arrive(epochs, "d2", EX.red, "alpha and beta words")
        session = manager.sync_session("reader")
        assert set(session.search("alpha").items) == {first, second}

        third = arrive(epochs, "d3", EX.blue, "gamma text entirely")
        session = manager.sync_session("reader")
        assert session.search("gamma").items == [third]

    def test_arrivals_join_facets(self):
        g = Graph()
        make_item(g, "d1", EX.red, "one")
        epochs = EpochManager(Workspace(g))
        for i in range(2, 6):
            ingest_item(
                epochs, f"d{i}", EX.blue if i % 2 else EX.red, f"body {i}"
            )
        epochs.publish()
        workspace = epochs.current.workspace
        assert len(workspace.items) == 5
        session = Session(workspace)
        session.go_collection(workspace.items, "all")
        result = session.suggestions()
        titles = [s.title for s in result.all_suggestions()]
        assert any("red" in t for t in titles)
        assert any("blue" in t for t in titles)

    def test_arrivals_reachable_by_similarity(self):
        g = Graph()
        a = make_item(g, "d1", EX.red, "apple tart sweet")
        epochs = EpochManager(Workspace(g))
        b = ingest_item(epochs, "d2", EX.red, "apple pie sweet")
        ingest_item(epochs, "d3", EX.blue, "steel beam bridge")
        epochs.publish()
        hits = epochs.current.workspace.vector_store.similar_to_item(a, 2)
        assert hits[0].item == b

    def test_arrivals_counted_in_idf(self):
        g = Graph()
        make_item(g, "d1", EX.red, "unique snowflake")
        epochs = EpochManager(Workspace(g))
        before_df = epochs.current.workspace.model.stats.num_docs
        arrive(epochs, "d2", EX.red, "common words")
        assert epochs.current.workspace.model.stats.num_docs == before_df + 1

    def test_queries_see_new_universe(self):
        g = Graph()
        make_item(g, "d1", EX.red, "one")
        epochs = EpochManager(Workspace(g))
        new = arrive(epochs, "d2", EX.blue, "two")
        engine = epochs.current.workspace.query_engine
        assert engine.evaluate(HasValue(EX.tag, EX.blue)) == {new}
