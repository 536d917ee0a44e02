"""The vector store's search memo: answers equal a fresh search, bit
for bit, copies never alias, and the held references stay bounded."""

import random
import threading

from repro.core.epochs import EpochManager
from repro.core.workspace import Workspace
from repro.index import VectorStore
from repro.index.store import SEARCH_MEMO_REFS
from repro.rdf import RDF, Graph, Literal, Namespace
from repro.store.datom import OP_ASSERT
from repro.vsm import VectorSpaceModel

EX = Namespace("http://memo.example/")


def _bits(hits):
    return [(hit.item, hit.score.hex()) for hit in hits]


def _uncached(model):
    """A fresh store that keeps nothing: every call searches."""
    store = VectorStore(model)
    store.memo.bound = 0
    return store


def test_seeded_searches_equal_a_fresh_store(recipe_workspace):
    model = recipe_workspace.model
    store = VectorStore(model)
    # Small enough that the sequence below evicts.
    store.memo.bound = 400
    reference = _uncached(model)
    items = recipe_workspace.items
    rng = random.Random(29)
    keys = [("item", item, k) for item in rng.sample(items, 12) for k in (5, 10)]
    for size in (2, 7, 30, 90):
        for _ in range(3):
            members = rng.sample(items, size)
            keys.append(("collection", tuple(members), 10, False))
            keys.append(("collection", tuple(members), 10, True))
            keys.append(("collection", tuple(reversed(members)), 10, False))
    for _round in range(4):
        for kind, subject, k, *flag in rng.sample(keys, len(keys)):
            if kind == "item":
                got = store.similar_to_item(subject, k)
                want = reference.similar_to_item(subject, k)
            else:
                got = store.similar_to_collection(list(subject), k, *flag)
                want = reference.similar_to_collection(subject, k, *flag)
            assert _bits(got) == _bits(want)
            assert store.memo.refs <= store.memo.bound
    stats = store.memo.stats
    assert stats.hits and stats.misses and stats.evictions
    assert reference.memo.stats.hits == 0 and len(reference.memo) == 0


def test_mutating_a_returned_list_leaves_the_memo_alone(recipe_workspace):
    store = VectorStore(recipe_workspace.model)
    item = recipe_workspace.items[0]
    members = recipe_workspace.items[:5]
    first = store.similar_to_item(item, 10)
    expected = list(first)
    first.clear()
    assert store.similar_to_item(item, 10) == expected
    hits = store.similar_to_collection(members, 10)
    expected = list(hits)
    hits.reverse()
    hits.append(hits[0])
    assert store.similar_to_collection(members, 10) == expected
    assert store.memo.stats.hits == 2


def test_eight_threads_share_one_first_search(recipe_workspace):
    store = VectorStore(recipe_workspace.model)
    members = recipe_workspace.items[10:40]
    expected = _uncached(store.model).similar_to_collection(members, 10)
    barrier = threading.Barrier(8)
    results, errors = [], []

    def search():
        try:
            barrier.wait(timeout=10)
            results.append(store.similar_to_collection(members, 10))
        except Exception as error:  # pragma: no cover - reported below
            errors.append(error)

    threads = [threading.Thread(target=search) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors
    assert len(results) == 8
    assert all(_bits(hits) == _bits(expected) for hits in results)
    assert len(store.memo) == 1
    assert store.memo.stats.lookups == 8


def test_publish_gets_a_new_store_with_an_empty_memo():
    graph = Graph()
    for i in range(12):
        item = EX[f"it{i}"]
        graph.add(item, RDF.type, EX.Doc)
        graph.add(item, EX.color, EX.red if i % 3 else EX.blue)
        graph.add(item, EX.title, Literal(f"title word{i % 4}"))
    manager = EpochManager(Workspace(graph))
    old = manager.current.workspace
    old.vector_store.similar_to_item(EX.it0, 10)
    old.vector_store.similar_to_collection(old.items[:3], 10)
    assert len(old.vector_store.memo) == 2
    manager.ingest([
        (OP_ASSERT, EX.new, RDF.type, EX.Doc),
        (OP_ASSERT, EX.new, EX.color, EX.blue),
        (OP_ASSERT, EX.new, EX.title, Literal("title word0 fresh")),
    ])
    epoch = manager.publish()
    store = epoch.workspace.vector_store
    assert store is not old.vector_store
    assert len(store.memo) == 0 and store.memo.stats.lookups == 0
    cold = manager.cold_workspace(epoch.watermark).vector_store
    for item in epoch.workspace.items:
        assert _bits(store.similar_to_item(item, 10)) == _bits(
            cold.similar_to_item(item, 10)
        )
    members = epoch.workspace.items[:3]
    assert _bits(store.similar_to_collection(members, 10)) == _bits(
        cold.similar_to_collection(members, 10)
    )
    # The pinned epoch kept its own answers.
    assert len(old.vector_store.memo) == 2


def test_member_sized_keys_stay_within_the_bound():
    """Keys of 65,536 members: the memo never holds more references
    than its bound, and still answers each one exactly.  The model
    indexes the first 2,048 members; a centroid skips the rest, but
    the key counts them all."""
    graph = Graph()
    size = 1 << 16
    members = [EX[f"m{i}"] for i in range(size)]
    indexed = members[:2_048]
    for i, item in enumerate(indexed):
        graph.add(item, RDF.type, EX.Doc)
        graph.add(item, EX.color, EX[f"c{i % 97}"])
    model = VectorSpaceModel(graph)
    model.index_items(indexed)
    store = VectorStore(model)
    assert store.memo.bound == SEARCH_MEMO_REFS == size
    reference = _uncached(model)
    keys = [
        tuple(members),  # covers the model: no hits, exactly the bound
        tuple(members[1:]),  # all but one: one hit
        tuple(members[size // 2:] + members[:3]),
        tuple(members[::-3]),
        tuple(members[5:5 + size // 4]),
    ]
    for key in keys + keys[::-1]:
        assert _bits(store.similar_to_collection(key, 10)) == _bits(
            reference.similar_to_collection(key, 10)
        )
        assert store.memo.refs <= store.memo.bound
        store.similar_to_item(indexed[len(key) % 2_048], 10)
        assert store.memo.refs <= store.memo.bound
    assert store.memo.stats.hits and store.memo.stats.evictions
