"""Vector stores over advanced models.

A model is built once, cold or for the next epoch by
``VectorSpaceModel.advance``, and a store builds its index once over
one model.  A store over an advanced model must hold the postings of a
store over a cold build of the same items.  The class names come from
the drift-threshold modes the store once had; each now checks that one
rule.
"""

from repro.index import VectorStore
from repro.rdf import Graph, Literal, Namespace, RDF, Schema
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


def _advance(model: VectorSpaceModel, graph: Graph, items) -> VectorSpaceModel:
    return VectorSpaceModel.advance(model, graph, Schema(graph), items, set())


def _arrive(model: VectorSpaceModel, name: str) -> VectorSpaceModel:
    item = EX[name]
    graph = model.graph.fork()
    graph.add(item, RDF.type, EX.Recipe)
    graph.add(item, EX.ingredient, EX.apple)
    graph.add(item, EX.title, Literal(f"fresh {name}"))
    return _advance(model, graph, model.items + [item])


def _leave(model: VectorSpaceModel, item) -> VectorSpaceModel:
    return _advance(model, model.graph, [i for i in model.items if i != item])


def _postings_map(store: VectorStore) -> dict:
    return {
        coord: dict(store.index.postings(coord))
        for coord in store.index.coordinates()
    }


def _cold(model: VectorSpaceModel) -> VectorStore:
    """A store over a cold build of ``model``'s items."""
    cold = VectorSpaceModel(model.graph)
    cold.index_items(model.items)
    store = VectorStore(cold)
    store.refresh()
    return store


class TestThresholdZero:
    def test_every_refresh_is_exact(self):
        model = _build_model()
        store = VectorStore(model)
        assert store.refresh() is True
        after = VectorStore(_arrive(model, "new0"))
        assert after.refresh() is True
        assert store.maintenance.full_rebuilds == 1
        assert after.maintenance.full_rebuilds == 1
        assert after.maintenance.items_reindexed == 7
        assert _postings_map(after) == _postings_map(_cold(after.model))


class TestThresholdInf:
    def test_documents_track_model_membership(self):
        model = _build_model()
        model = _arrive(model, "new0")
        model = _leave(model, EX.r1)
        model = _arrive(model, "new1")
        model = _leave(model, EX.new1)
        store = VectorStore(model)
        assert set(store.index.documents()) == set(model.items)
        assert EX.new0 in model and EX.r1 not in model

    def test_rebuild_restores_exact_weights(self):
        """Items the fold carried are re-weighed at the new statistics,
        not kept at the weights of the prior store."""
        model = _build_model()
        store = VectorStore(model)
        coord = next(iter(dict(model.vector(EX.r0).items())))
        before = store.index.postings(coord)[EX.r0]
        advanced = _arrive(model, "new0")
        assert advanced.profile(EX.r0) is model.profile(EX.r0)
        after = VectorStore(advanced)
        for item in advanced.items:
            expected = dict(advanced.vector(item).items())
            got = {
                coord: after.index.postings(coord)[item]
                for coord in expected
            }
            assert got == expected
        assert after.index.postings(coord)[EX.r0] != before
        assert store.index.postings(coord)[EX.r0] == before
        assert _postings_map(after) == _postings_map(_cold(advanced))


class TestDefaultThreshold:
    def test_small_corpus_always_rebuilds_exactly(self):
        """One arrival among a handful of items gets a whole new index,
        which keeps every ranking test bit-identical to a cold build."""
        model = _build_model()
        VectorStore(model).refresh()
        after = VectorStore(_arrive(model, "new0"))
        assert after.similar_to_item(EX.new0, 5) == \
            _cold(after.model).similar_to_item(EX.new0, 5)
