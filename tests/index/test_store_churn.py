"""Churn must leave the vector store bit-identical to a fresh build.

Each state of the corpus gets a model advanced from the prior state's
and a store built once over it.  Churn is the adversarial case: a
retract followed by a re-assert nets the document frequencies back to
where they were, while the carried profiles and the reused statistics
must still give a cold build's weights.  "Bit-identical" here is
literal: posting weights compare with ``==``, not approx.
"""

import random

from repro.check.storecheck import workspace_fingerprint
from repro.core.epochs import EpochManager
from repro.core.workspace import Workspace
from repro.index import VectorStore
from repro.rdf import Graph, Literal, Namespace, RDF, Schema
from repro.store.datom import OP_ASSERT, OP_RETRACT
from repro.vsm import VectorSpaceModel

EX = Namespace("http://churn.example/")


def _build_model(n_items: int = 10) -> VectorSpaceModel:
    graph = Graph()
    pool = [EX.apple, EX.flour, EX.sugar, EX.beef, EX.onion]
    items = []
    for i in range(n_items):
        item = EX[f"r{i}"]
        graph.add(item, RDF.type, EX.Recipe)
        graph.add(item, EX.ingredient, pool[i % len(pool)])
        graph.add(item, EX.ingredient, pool[(i + 2) % len(pool)])
        graph.add(item, EX.title, Literal(f"dish number {i}"))
        items.append(item)
    model = VectorSpaceModel(graph)
    model.index_items(items)
    return model


def _advance(model: VectorSpaceModel, items, dirty=()) -> VectorSpaceModel:
    graph = model.graph
    return VectorSpaceModel.advance(model, graph, Schema(graph), items, set(dirty))


def _postings_map(store: VectorStore) -> dict:
    return {
        coord: dict(store.index.postings(coord))
        for coord in store.index.coordinates()
    }


def _fresh(model: VectorSpaceModel) -> VectorStore:
    """A store over a cold build of ``model``'s items."""
    cold = VectorSpaceModel(model.graph)
    cold.index_items(model.items)
    store = VectorStore(cold)
    store.refresh()
    return store


def test_exact_store_survives_retract_assert_loop():
    model = _build_model()
    VectorStore(model).refresh()
    for _ in range(3):
        model = _advance(model, [i for i in model.items if i != EX.r0])
        VectorStore(model).refresh()
        model = _advance(model, model.items + [EX.r0])
        store = VectorStore(model)
        store.refresh()
    assert _postings_map(store) == _postings_map(_fresh(model))


def test_zero_net_churn_may_go_incremental_but_stays_exact():
    """An item re-read with unchanged data: document frequencies net
    back to where they were, and the new store holds the prior store's
    postings exactly."""
    model = _build_model()
    store = VectorStore(model)
    store.refresh()
    advanced = _advance(model, model.items, dirty={EX.r1})
    assert advanced.profile(EX.r1) is not model.profile(EX.r1)
    assert advanced.profile(EX.r2) is model.profile(EX.r2)
    after = VectorStore(advanced)
    assert after.refresh() is True
    assert after.maintenance.full_rebuilds == 1
    assert _postings_map(after) == _postings_map(store)
    assert _postings_map(after) == _postings_map(_fresh(advanced))


def test_seeded_churn_leaves_the_postings_of_a_fresh_store():
    """Adds, removes and re-reads in random order, each advancing the
    model: the store over any state, and over the last, holds a fresh
    build's documents and postings."""
    rng = random.Random(19)
    model = _build_model(n_items=30)
    graph = model.graph
    for serial in range(100):
        roll = rng.random()
        items = model.items
        if roll < 0.35:
            item = EX[f"new{serial}"]
            graph.add(item, RDF.type, EX.Recipe)
            graph.add(item, EX.ingredient, rng.choice([EX.apple, EX.beef]))
            graph.add(item, EX.title, Literal(f"new dish {serial % 7}"))
            model = _advance(model, items + [item])
        elif roll < 0.7:
            gone = rng.choice(items)
            model = _advance(model, [i for i in items if i != gone])
        else:
            item = rng.choice(sorted(graph.subjects(RDF.type, EX.Recipe)))
            if item in model:
                model = _advance(model, items, dirty={item})
            else:
                model = _advance(model, items + [item])
        if rng.random() < 0.2:
            assert _postings_map(VectorStore(model)) == \
                _postings_map(_fresh(model))
    store = VectorStore(model)
    assert set(store.index.documents()) == set(model.items)
    assert _postings_map(store) == _postings_map(_fresh(model))


def test_epoch_churn_scores_bit_identical_to_cold_build():
    model_graph = _build_model().graph
    manager = EpochManager(Workspace(model_graph))
    churn = [
        (OP_RETRACT, EX.r2, EX.ingredient, EX.sugar),
        (OP_ASSERT, EX.r2, EX.ingredient, EX.sugar),
    ]
    for round_ in range(3):
        assert manager.ingest([churn[round_ % 2]]) is not None
        epoch = manager.publish()
        cold = manager.cold_workspace(epoch.watermark)
        assert workspace_fingerprint(epoch.workspace) == \
            workspace_fingerprint(cold)
        assert _postings_map(epoch.workspace.vector_store) == \
            _postings_map(cold.vector_store)
