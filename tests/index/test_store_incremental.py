"""Refresh of the vector store after the model changes.

The store keeps one exact build: a refresh after any change to the
model's items rebuilds the whole index at current statistics, at every
corpus size.  The class names come from the drift-threshold modes the
store once had; each now checks that one rule.
"""

from repro.index import VectorStore
from repro.rdf import Graph, Literal, Namespace, RDF
from repro.vsm import VectorSpaceModel

EX = Namespace("http://inc.example/")


def _build_model(n_items: int = 6) -> VectorSpaceModel:
    graph = Graph()
    pool = [EX.apple, EX.flour, EX.sugar, EX.beef, EX.onion, EX.salt]
    items = []
    for i in range(n_items):
        item = EX[f"r{i}"]
        graph.add(item, RDF.type, EX.Recipe)
        graph.add(item, EX.ingredient, pool[i % len(pool)])
        graph.add(item, EX.ingredient, pool[(i + 1) % len(pool)])
        graph.add(item, EX.title, Literal(f"dish number {i}"))
        items.append(item)
    model = VectorSpaceModel(graph)
    model.index_items(items)
    return model


def _arrive(model: VectorSpaceModel, name: str) -> None:
    item = EX[name]
    graph = model.graph
    graph.add(item, RDF.type, EX.Recipe)
    graph.add(item, EX.ingredient, EX.apple)
    graph.add(item, EX.title, Literal(f"fresh {name}"))
    model.add_item(item)


def _postings_map(store: VectorStore) -> dict:
    return {
        coord: dict(store.index.postings(coord))
        for coord in store.index.coordinates()
    }


def _fresh(model: VectorSpaceModel) -> VectorStore:
    store = VectorStore(model)
    store.refresh()
    return store


class TestThresholdZero:
    def test_every_refresh_is_exact(self):
        model = _build_model()
        store = VectorStore(model)
        assert store.refresh() is True
        _arrive(model, "new0")
        assert store.refresh() is True
        assert store.maintenance.full_rebuilds == 2
        assert store.maintenance.items_reindexed == 6 + 7
        assert _postings_map(store) == _postings_map(_fresh(model))


class TestThresholdInf:
    def test_documents_track_model_membership(self):
        model = _build_model()
        store = VectorStore(model)
        store.refresh()
        _arrive(model, "new0")
        model.remove_item(EX.r1)
        _arrive(model, "new1")
        model.remove_item(EX.new1)
        store.refresh()
        assert set(store.index.documents()) == set(model.items)

    def test_rebuild_restores_exact_weights(self):
        """Items already indexed are re-weighed at the new statistics,
        not kept at the weights of the earlier build."""
        model = _build_model()
        store = VectorStore(model)
        store.refresh()
        coord = next(iter(dict(model.vector(EX.r0).items())))
        before = store.index.postings(coord)[EX.r0]
        _arrive(model, "new0")
        store.refresh()
        for item in model.items:
            expected = dict(model.vector(item).items())
            got = {
                coord: store.index.postings(coord)[item]
                for coord in expected
            }
            assert got == expected
        assert store.index.postings(coord)[EX.r0] != before
        assert _postings_map(store) == _postings_map(_fresh(model))


class TestDefaultThreshold:
    def test_small_corpus_always_rebuilds_exactly(self):
        """One arrival among a handful of items rebuilds the index,
        which keeps every ranking test bit-identical to a cold build."""
        model = _build_model()
        store = VectorStore(model)
        store.refresh()
        _arrive(model, "new0")
        store.refresh()
        assert store.maintenance.full_rebuilds == 2
        assert store.similar_to_item(EX.new0, 5) == \
            _fresh(model).similar_to_item(EX.new0, 5)
