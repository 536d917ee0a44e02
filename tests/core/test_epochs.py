"""Epoch lifecycle + the fold-vs-cold-build bit-identity contract."""

import gc
import random
import threading
import time
import weakref

import pytest

from repro.check.corpus import random_corpus
from repro.check.storecheck import workspace_fingerprint
from repro.core.epochs import EpochManager
from repro.core.workspace import Workspace
from repro.rdf import RDF, Graph, Literal, Namespace
from repro.rdf.vocab import MAGNET
from repro.store.datom import OP_ASSERT, OP_RETRACT
from repro.store.segments import LogStore

EX = Namespace("http://epoch.example/")


def _corpus_graph(n: int = 8) -> Graph:
    g = Graph()
    for i in range(n):
        item = EX[f"it{i}"]
        g.add(item, RDF.type, EX.Doc)
        g.add(item, EX.color, EX.red if i % 2 else EX.blue)
        g.add(item, EX.weight, Literal(float(i * 10)))
        g.add(item, EX.title, Literal(f"title word{i % 3}"))
    return g


def _manager(n: int = 8) -> EpochManager:
    return EpochManager(Workspace(_corpus_graph(n)))


def _assert_parity(manager: EpochManager, epoch) -> None:
    cold = manager.cold_workspace(epoch.watermark)
    assert workspace_fingerprint(epoch.workspace) == \
        workspace_fingerprint(cold)


def test_idle_publish_and_noop_ingest():
    manager = _manager()
    assert manager.publish() is None
    # Asserting an already-present triple mints no transaction.
    assert manager.ingest(
        [(OP_ASSERT, EX.it0, RDF.type, EX.Doc)]
    ) is None
    assert manager.lag == 0
    assert manager.publish() is None


def test_publish_swaps_pointer_and_matches_cold_build():
    manager = _manager()
    tx = manager.ingest([
        (OP_ASSERT, EX.new, RDF.type, EX.Doc),
        (OP_ASSERT, EX.new, EX.color, EX.red),
        (OP_ASSERT, EX.new, EX.title, Literal("fresh title word0")),
    ])
    assert tx is not None and manager.lag > 0
    epoch = manager.publish()
    assert epoch is not None
    assert epoch.number == 1
    assert manager.current is epoch
    assert epoch.watermark == manager.head_tx
    assert EX.new in epoch.workspace.items
    _assert_parity(manager, epoch)


def test_refcounts_retire_old_epochs():
    manager = _manager()
    pinned = manager.acquire()
    assert pinned.number == 0 and pinned.refs == 1
    manager.ingest([(OP_ASSERT, EX.it0, EX.color, EX.green)])
    manager.publish()
    # Still referenced: the old epoch survives the swap.
    assert manager.get(0) is pinned and not pinned.retired
    manager.release(0)
    assert manager.get(0) is None and pinned.retired
    # Unknown epoch numbers are ignored.
    manager.release(99)
    # The current epoch never retires, even at zero refs.
    assert manager.get(1) is manager.current


def test_retired_epoch_is_freed_without_the_cyclic_collector():
    # A retired epoch's index must go as soon as its last reference
    # does: left to the cyclic collector, retired epochs stay resident
    # for as long as the serving path allocates few containers.
    manager = _manager()
    manager.ingest([(OP_ASSERT, EX.it0, EX.color, EX.green)])
    manager.publish()
    folded = manager.current.workspace
    parts = [weakref.ref(p) for p in (
        folded, folded.graph, folded.model, folded.vector_store
    )]
    del folded
    gc.collect()
    gc.disable()
    try:
        manager.ingest([(OP_ASSERT, EX.it1, EX.color, EX.green)])
        manager.publish()
        assert manager.get(1) is None
        assert [ref() for ref in parts] == [None] * len(parts)
    finally:
        gc.enable()


def test_pinned_epoch_is_immutable_under_churn():
    manager = _manager()
    epoch0 = manager.acquire()
    before = workspace_fingerprint(epoch0.workspace)
    for round_ in range(3):
        manager.ingest([
            (OP_RETRACT, EX.it1, EX.color, EX.red),
            (OP_ASSERT, EX.it1, EX.color, EX[f"shade{round_}"]),
            (OP_ASSERT, EX[f"live{round_}"], RDF.type, EX.Doc),
        ])
        manager.publish()
    assert workspace_fingerprint(epoch0.workspace) == before
    _assert_parity(manager, manager.current)


def test_numeric_range_move_matches_cold_build():
    manager = _manager()
    # 250.0 is far outside the seed span [0, 70]: the fold must re-weigh
    # every carried posting against the new range bounds.
    manager.ingest([(OP_ASSERT, EX.it2, EX.weight, Literal(250.0))])
    _assert_parity(manager, manager.publish())


def test_small_idf_drift_publish_serves_cold_similar_items_scores():
    # One doc of 2,000 moves between two categories of 1,000: every idf
    # moves by about 0.001, and every published Similar Items score must
    # still equal a cold build's exactly.
    rng = random.Random(2000)
    words = [f"word{w}" for w in range(40)]
    graph = Graph()
    docs = []
    for i in range(2000):
        doc = EX[f"doc{i:04d}"]
        docs.append(doc)
        graph.add(doc, RDF.type, EX.Doc)
        graph.add(doc, EX.category, EX.B if i % 2 else EX.A)
        graph.add(doc, EX.tag, EX[f"tag{rng.randrange(20)}"])
        graph.add(doc, EX.title, Literal(" ".join(rng.sample(words, 3))))
    manager = EpochManager(Workspace(graph).freeze())
    manager.ingest([
        (OP_RETRACT, docs[0], EX.category, EX.A),
        (OP_ASSERT, docs[0], EX.category, EX.B),
    ])
    epoch = manager.publish()
    published = epoch.workspace.vector_store
    cold = manager.cold_workspace(epoch.watermark).vector_store
    for doc in docs[::20]:
        assert published.similar_to_item(doc, 10) == \
            cold.similar_to_item(doc, 10)


def test_item_removal_matches_cold_build():
    manager = _manager()
    manager.ingest([(OP_RETRACT, EX.it3, RDF.type, EX.Doc)])
    epoch = manager.publish()
    assert EX.it3 not in epoch.workspace.items
    _assert_parity(manager, epoch)


def test_annotation_delta_falls_back_to_cold_build():
    manager = _manager()
    manager.ingest([(OP_ASSERT, EX.color, MAGNET.hidden, Literal(True))])
    epoch = manager.publish()
    assert epoch.workspace.schema.is_hidden(EX.color)
    _assert_parity(manager, epoch)


def test_multi_round_parity_on_random_corpus():
    corpus = random_corpus(401)
    manager = EpochManager(corpus.workspace)
    fuzz = Namespace("http://fuzz.example/")
    rounds = [
        [(OP_ASSERT, fuzz.liveA, RDF.type, fuzz.Type0),
         (OP_ASSERT, fuzz.liveA, fuzz.color, fuzz.mauve),
         (OP_ASSERT, fuzz.liveA, fuzz.title, Literal("corn magnet"))],
        [(OP_ASSERT, fuzz.item0, fuzz.weight, Literal(-40.5)),
         (OP_RETRACT, fuzz.item1, RDF.type, fuzz.Type0)],
        [(OP_ASSERT, fuzz.item2, fuzz.size, fuzz.big),
         (OP_ASSERT, fuzz.item2, fuzz.title, Literal("braise thursday"))],
    ]
    for ops in rounds:
        if manager.ingest(ops) is None:
            continue
        _assert_parity(manager, manager.publish())


def test_background_reindexer_drains_lag():
    manager = _manager()
    manager.start_reindexer(interval=0.02)
    try:
        manager.ingest([(OP_ASSERT, EX.bg, RDF.type, EX.Doc)])
        deadline = time.monotonic() + 5.0
        while manager.lag > 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert manager.lag == 0
        assert manager.current.number >= 1
    finally:
        manager.stop_reindexer()
    _assert_parity(manager, manager.current)


class _RacingMemo(dict):
    """A facet-profile memo that lets a concurrent suggest in mid-fold.

    After the fold reads its first entry, a second thread profiles a
    new collection on the same workspace — what a session suggesting
    on the previous epoch does — and gets up to half a second to
    insert into the memo before the fold reads on.
    """

    def __init__(self, workspace, collection):
        super().__init__(workspace._facet_profiles)
        self.workspace = workspace
        self.collection = collection
        self.raced = False

    def items(self):
        for pair in dict.items(self):
            yield pair
            if not self.raced:
                self.raced = True
                writer = threading.Thread(
                    target=self.workspace.facet_profile,
                    args=(self.collection,),
                )
                writer.start()
                writer.join(timeout=0.5)


def _wait_for(condition, seconds: float = 5.0) -> bool:
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


def test_fold_survives_a_concurrent_facet_profile():
    manager = _manager()
    prev = manager.current.workspace
    prev.facet_profile(prev.items)
    memo = prev._facet_profiles = _RacingMemo(prev, prev.items[:3])
    manager.start_reindexer(interval=0.02)
    try:
        manager.ingest([(OP_ASSERT, EX.it0, EX.color, EX.green)])
        assert _wait_for(lambda: manager.current.number == 1)
        assert memo.raced
        assert _wait_for(lambda: len(memo) == 2)
        # The reindexer thread is still alive and publishing.
        manager.ingest([(OP_ASSERT, EX.it1, EX.color, EX.green)])
        assert _wait_for(lambda: manager.current.number == 2)
    finally:
        manager.stop_reindexer()
    _assert_parity(manager, manager.current)


def test_ingest_seals_into_store_before_publish(tmp_path):
    store_dir = tmp_path / "store"
    store = LogStore.init(store_dir)
    graph = _corpus_graph()
    store.append_log(graph.log)
    manager = EpochManager(Workspace(graph), store=store)
    manager.ingest([(OP_ASSERT, EX.durable, RDF.type, EX.Doc)])
    # Durable before any publish: a crash right now loses nothing.
    assert store.last_tx == manager.head_tx
    reopened = LogStore.open(store_dir)
    assert reopened.verify()["ok"]
    assert reopened.replay_graph().last_tx == manager.head_tx
    _assert_parity(manager, manager.publish())


def test_epoch_gauges_exported():
    manager = _manager()
    manager.ingest([(OP_ASSERT, EX.g, RDF.type, EX.Doc)])
    manager.publish()
    snapshot = manager.obs.metrics.snapshot()
    gauges = snapshot["gauges"]
    assert gauges["epochs.current"] == 1
    assert gauges["epochs.publishes"] == 1
    assert gauges["epochs.lag_tx"] == 0
    assert gauges["epochs.datoms_ingested"] >= 1


class TestReleasePinTracking:
    """Double releases must never decrement another reader's pin.

    Before the fix, ``release()`` blindly did ``refs = max(0, refs-1)``
    for any live epoch, so a double release (session delete racing
    lazy migration) could push a live epoch's refcount below its pin
    count and retire a snapshot a reader still held.
    """

    def test_named_double_release_is_noop(self):
        manager = _manager()
        a = manager.acquire(session="a")
        b = manager.acquire(session="b")
        assert a is b and a.refs == 2
        manager.ingest([(OP_ASSERT, EX.it0, EX.color, EX.green)])
        manager.publish()
        manager.release(0, session="a")
        manager.release(0, session="a")  # double release
        assert manager.get(0) is a and not a.retired and a.refs == 1
        manager.release(0, session="b")
        assert manager.get(0) is None and a.retired

    def test_release_without_pin_never_retires_a_held_epoch(self):
        manager = _manager()
        manager.acquire(session="reader")
        manager.ingest([(OP_ASSERT, EX.it0, EX.color, EX.green)])
        manager.publish()
        # A session that holds no pin (delete racing migration) no-ops.
        manager.release(0, session="some-deleted-session")
        assert manager.get(0) is not None
        manager.release(0, session="reader")
        assert manager.get(0) is None

    def test_anonymous_release_underflow_raises(self):
        from repro.core.epochs import EpochPinError

        manager = _manager()
        epoch = manager.acquire()
        manager.release(epoch.number)
        with pytest.raises(EpochPinError):
            manager.release(epoch.number)

    def test_release_of_retired_epoch_clears_stale_pins(self):
        manager = _manager()
        manager.acquire(session="s")
        manager.ingest([(OP_ASSERT, EX.it0, EX.color, EX.green)])
        manager.publish()
        manager.release(0, session="s")
        assert manager.get(0) is None
        manager.release(0, session="s")  # stale: ignored, pins pruned
        assert manager._pins == {}
