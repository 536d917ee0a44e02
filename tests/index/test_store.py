"""Tests for the vector store (Lucene substitute)."""

import threading

import pytest

from repro.core.workspace import Workspace
from repro.index import VectorStore
from repro.rdf import Graph, Literal, Namespace, RDF, Schema
from repro.vsm import VectorSpaceModel

EX = Namespace("http://vs.example/")


@pytest.fixture()
def store():
    g = Graph()
    for name, ings, title in [
        ("r1", [EX.apple, EX.flour], "apple cake"),
        ("r2", [EX.apple, EX.sugar], "apple pie"),
        ("r3", [EX.beef, EX.onion], "beef stew"),
        ("r4", [EX.apple, EX.beef], "odd casserole"),
    ]:
        item = EX[name]
        g.add(item, RDF.type, EX.Recipe)
        for ing in ings:
            g.add(item, EX.ingredient, ing)
        g.add(item, EX.title, Literal(title))
    model = VectorSpaceModel(g)
    model.index_items([EX.r1, EX.r2, EX.r3, EX.r4])
    return VectorStore(model)


class TestRefresh:
    def test_initial_refresh_builds(self, store):
        assert store.refresh() is True
        assert store.refresh() is False  # already current

    def test_refresh_after_arrival(self, store):
        """An arrival gets a new store over the advanced model; the
        prior store keeps its build."""
        store.refresh()
        model = store.model
        g = model.graph.fork()
        g.add(EX.r5, RDF.type, EX.Recipe)
        g.add(EX.r5, EX.ingredient, EX.apple)
        advanced = VectorStore(VectorSpaceModel.advance(
            model, g, Schema(g), model.items + [EX.r5], set()
        ))
        assert advanced.refresh() is True
        assert advanced.refresh() is False
        assert len(advanced) == 5
        assert len(store) == 4


class TestSimilarity:
    def test_similar_to_item_excludes_self(self, store):
        hits = store.similar_to_item(EX.r1, 10)
        assert EX.r1 not in [h.item for h in hits]

    def test_similar_to_item_prefers_shared_structure(self, store):
        hits = store.similar_to_item(EX.r1, 10)
        scores = {h.item: h.score for h in hits}
        assert scores[EX.r2] > scores.get(EX.r3, 0.0)

    def test_similar_to_collection_excludes_members(self, store):
        hits = store.similar_to_collection([EX.r1, EX.r2], 10)
        found = [h.item for h in hits]
        assert EX.r1 not in found and EX.r2 not in found

    def test_similar_to_collection_can_include_members(self, store):
        hits = store.similar_to_collection(
            [EX.r1, EX.r2], 10, include_members=True
        )
        assert EX.r1 in [h.item for h in hits]

    def test_whole_corpus_collection_skips_the_index(self, store):
        """A view covering every item has nothing to suggest; deciding
        that must not refresh (bulk-load) the vector index first."""
        workspace = Workspace(store.model.graph)
        vector_store = workspace.vector_store
        assert vector_store.similar_to_collection(workspace.items, 10) == []
        assert vector_store.maintenance.full_rebuilds == 0
        # A partial view still searches, refreshing the index once.
        assert vector_store.similar_to_collection(workspace.items[:1], 10)
        assert vector_store.maintenance.full_rebuilds == 1

    def test_concurrent_first_searches_rebuild_once(self, store, monkeypatch):
        """Two sessions' first searches on serving threads overlap; the
        second must wait for the first refresh, not rebuild again."""
        expected = VectorStore(store.model).similar_to_collection([EX.r1], 10)
        original = store._build
        first_in, second_in, release = (threading.Event() for _ in range(3))

        def blocking_build():
            if first_in.is_set():
                second_in.set()
            else:
                first_in.set()
                release.wait(timeout=10)
            original()

        monkeypatch.setattr(store, "_build", blocking_build)
        hits, errors = {}, []

        def search(name):
            try:
                hits[name] = store.similar_to_collection([EX.r1], 10)
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        a = threading.Thread(target=search, args=("a",))
        a.start()
        assert first_in.wait(timeout=10)
        b = threading.Thread(target=search, args=("b",))
        b.start()
        # Unlocked, b reaches _rebuild at once; locked, it waits on a.
        second_in.wait(timeout=0.3)
        release.set()
        a.join(timeout=10)
        b.join(timeout=10)
        assert not errors
        assert store.maintenance.full_rebuilds == 1
        assert hits["a"] == hits["b"] == expected

    def test_search_text_ranked(self, store):
        hits = store.search_text("apple", 10)
        assert hits, "apple should match"
        assert all(
            hits[i].score >= hits[i + 1].score for i in range(len(hits) - 1)
        )

    def test_search_with_explicit_vector(self, store):
        query = store.model.pair_vector([(EX.ingredient, EX.beef)])
        found = {h.item for h in store.search(query, 10)}
        assert EX.r3 in found and EX.r4 in found
