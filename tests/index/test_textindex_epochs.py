"""Two pinned epochs must never share mutated text postings.

``TextIndex.advance`` builds the next epoch's index: postings sets no
changed item posts under are shared with the prior index, and the
touched ones (and only those) are built fresh.  The regression pinned
here is aliasing — the new epoch's index dropping an item from a
postings set an older pinned epoch still resolves, making a session on
the old epoch "lose" an item it can plainly see in its own graph.
"""

from repro.check.storecheck import workspace_fingerprint
from repro.core.epochs import EpochManager
from repro.core.workspace import Workspace
from repro.index.textindex import TextIndex
from repro.rdf import RDF, Graph, Literal, Namespace
from repro.store.datom import OP_RETRACT

EX = Namespace("http://alias.example/")


def _graph() -> Graph:
    g = Graph()
    g.add(EX.a, RDF.type, EX.Doc)
    g.add(EX.a, EX.title, Literal("corn salad special"))
    g.add(EX.b, RDF.type, EX.Doc)
    g.add(EX.b, EX.title, Literal("corn bread"))
    return g


def test_advance_dropping_an_item_leaves_prior_postings_intact():
    graph = _graph()
    index = TextIndex(graph)
    index.index_items([EX.a, EX.b])
    advanced = TextIndex.advance(index, graph.fork(), [EX.b], {EX.a})

    # The new index no longer resolves a, the prior one still does.
    assert advanced.search("corn") == {EX.b}
    assert index.search("corn") == {EX.a, EX.b}
    # "special" was unique to a: pruned from the new vocabulary, alive
    # in the prior one.
    assert advanced.search("special") == set()
    assert index.search("special") == {EX.a}
    assert index.vocabulary_size() > advanced.vocabulary_size()


def test_advance_reindex_does_not_leak_new_tokens_backward():
    graph = _graph()
    index = TextIndex(graph)
    index.index_items([EX.a, EX.b])
    fork = graph.fork()
    fork.remove_matching(EX.a, EX.title, None)
    fork.add(EX.a, EX.title, Literal("quinoa bowl"))
    advanced = TextIndex.advance(index, fork, [EX.a, EX.b], {EX.a})

    assert advanced.search("quinoa") == {EX.a}
    assert advanced.search("corn") == {EX.b}
    assert index.search("quinoa") == set()
    assert index.search("corn") == {EX.a, EX.b}


def test_advance_shares_exactly_the_untouched_postings():
    graph = _graph()
    graph.add(EX.c, RDF.type, EX.Doc)
    graph.add(EX.c, EX.note, Literal("pepper"))
    index = TextIndex(graph)
    index.index_items([EX.a, EX.b, EX.c])
    fork = graph.fork()
    fork.add(EX.a, EX.title, Literal("salad days"))
    advanced = TextIndex.advance(index, fork, [EX.a, EX.b, EX.c], {EX.a})

    bread, corn = "bread", index.analyzer.stem_token("corn")
    # b's and c's own postings are shared; every set a posts under is new.
    assert advanced._overall[bread] is index._overall[bread]
    assert advanced._by_property[EX.note] is index._by_property[EX.note]
    assert advanced._overall[corn] is not index._overall[corn]
    assert advanced._by_property[EX.title] is not index._by_property[EX.title]
    assert advanced._by_property[EX.title][bread] is \
        index._by_property[EX.title][bread]
    assert advanced._posted[EX.b] is index._posted[EX.b]


def test_pinned_epoch_search_survives_unindex_in_next_epoch():
    manager = EpochManager(Workspace(_graph()))
    epoch0 = manager.acquire()
    assert epoch0.workspace.text_index.search("corn") == {EX.a, EX.b}

    # Epoch 1 drops item a entirely (untyped and title retracted).
    manager.ingest([
        (OP_RETRACT, EX.a, RDF.type, EX.Doc),
        (OP_RETRACT, EX.a, EX.title, Literal("corn salad special")),
    ])
    epoch1 = manager.publish()

    assert epoch1.workspace.text_index.search("corn") == {EX.b}
    assert epoch1.workspace.text_index.search("special") == set()
    # The pinned epoch still resolves the full postings — the aliasing
    # regression this file exists for.
    assert epoch0.workspace.text_index.search("corn") == {EX.a, EX.b}
    assert epoch0.workspace.text_index.search("special") == {EX.a}
    assert workspace_fingerprint(epoch0.workspace) == \
        workspace_fingerprint(manager.cold_workspace(epoch0.watermark))
    assert workspace_fingerprint(epoch1.workspace) == \
        workspace_fingerprint(manager.cold_workspace(epoch1.watermark))
