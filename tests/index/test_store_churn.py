"""Churn must leave the vector store bit-identical to a fresh build.

A refresh after any change to the model rebuilds the whole index at
current statistics.  Churn is the adversarial case: a retract followed
by a re-assert nets the document frequencies back to where they were,
and the ``_built_version`` gate must still see that the model moved.
"Bit-identical" here is literal: posting weights compare with ``==``,
not approx.
"""

import random

from repro.check.storecheck import workspace_fingerprint
from repro.core.epochs import EpochManager
from repro.core.workspace import Workspace
from repro.index import VectorStore
from repro.rdf import Graph, Literal, Namespace, RDF
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


def _postings_map(store: VectorStore) -> dict:
    return {
        coord: dict(store.index.postings(coord))
        for coord in store.index.coordinates()
    }


def _fresh(model: VectorSpaceModel) -> VectorStore:
    store = VectorStore(model)
    store.refresh()
    return store


def test_exact_store_survives_retract_assert_loop():
    model = _build_model()
    store = VectorStore(model)
    store.refresh()
    for _ in range(3):
        model.remove_item(EX.r0)
        store.refresh()
        model.add_item(EX.r0)
        store.refresh()
    assert _postings_map(store) == _postings_map(_fresh(model))


def test_zero_net_churn_may_go_incremental_but_stays_exact():
    """Remove and re-add before refreshing: document frequencies net
    back to where they were, but the model moved, so the refresh still
    rebuilds, and the reindexed item carries exact weights."""
    model = _build_model()
    store = VectorStore(model)
    store.refresh()
    model.remove_item(EX.r1)
    model.add_item(EX.r1)
    assert store.refresh() is True
    assert store.maintenance.full_rebuilds == 2
    assert _postings_map(store) == _postings_map(_fresh(model))


def test_seeded_churn_leaves_the_postings_of_a_fresh_store():
    """Adds, removes and re-adds in random order, refreshing between
    some of them: every refresh after a change rebuilds, one without a
    change does nothing, and the store ends with a fresh build's
    documents and postings."""
    rng = random.Random(19)
    model = _build_model(n_items=30)
    graph = model.graph
    store = VectorStore(model)
    store.refresh()
    builds = 1
    for serial in range(100):
        roll = rng.random()
        if roll < 0.35:
            item = EX[f"new{serial}"]
            graph.add(item, RDF.type, EX.Recipe)
            graph.add(item, EX.ingredient, rng.choice([EX.apple, EX.beef]))
            graph.add(item, EX.title, Literal(f"new dish {serial % 7}"))
            model.add_item(item)
        elif roll < 0.7:
            model.remove_item(rng.choice(model.items))
        else:
            model.add_item(rng.choice(list(graph.subjects(RDF.type, EX.Recipe))))
        if rng.random() < 0.5:
            assert store.refresh()
            assert not store.refresh()
            builds += 1
    assert store.maintenance.full_rebuilds == builds
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
