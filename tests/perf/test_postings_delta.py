"""A one-item delta must advance the facet postings, not rebuild them.

The epoch fold calls :meth:`FacetPostings.advance`, which carries every
record whose item the delta did not touch.  These tests pin that:
touching one item out of hundreds re-sweeps that one item (plus any
items the fold conservatively marks dirty) and reuses the rest
verbatim, and a re-swept record reflects the delta.  The facet
profile memo rides the same delta: collections disjoint from the dirty
set carry across the publish, collections containing a touched item are
dropped.
"""

from repro.check.storecheck import workspace_fingerprint
from repro.core.epochs import EpochManager
from repro.core.workspace import Workspace
from repro.rdf import RDF, Graph, Literal, Namespace

from repro.store.datom import OP_ASSERT

EX = Namespace("http://postings.example/")

N_ITEMS = 400


def _big_workspace() -> Workspace:
    g = Graph()
    for i in range(N_ITEMS):
        item = EX[f"it{i}"]
        g.add(item, RDF.type, EX.Doc)
        g.add(item, EX.color, EX[f"c{i % 8}"])
        g.add(item, EX.size, EX[f"s{i % 3}"])
        g.add(item, EX.weight, Literal(float(i)))
    return Workspace(g)


def test_one_item_delta_reuses_records():
    ws = _big_workspace()
    prior = ws.query_context.facet_postings()  # force the epoch-0 build
    assert prior.rebuilt_records == N_ITEMS

    manager = EpochManager(ws)
    manager.ingest([(OP_ASSERT, EX.it7, EX.color, EX.c99)])
    epoch = manager.publish()

    postings = epoch.workspace.query_context.facet_postings_if_built()
    assert postings is not None
    assert postings.n_items == N_ITEMS
    # One touched item re-swept; the other ~399 records carried.
    assert postings.rebuilt_records <= 2
    assert postings.reused_records >= N_ITEMS - 2
    # it7's record was rebuilt, everything else is the same object.
    assert postings._records[EX.it7] is not prior._records[EX.it7]
    assert postings._records[EX.it0] is prior._records[EX.it0]

    cold = manager.cold_workspace(epoch.watermark)
    assert workspace_fingerprint(epoch.workspace) == \
        workspace_fingerprint(cold)


def test_touched_item_record_reflects_the_delta():
    ws = _big_workspace()
    prior = ws.query_context.facet_postings()

    manager = EpochManager(ws)
    manager.ingest([(OP_ASSERT, EX.it5, EX.weight, Literal(12.5))])
    epoch = manager.publish()

    postings = epoch.workspace.query_context.facet_postings_if_built()
    assert postings._records[EX.it5] is not prior._records[EX.it5]
    profile = postings.profile([EX.it5])
    assert sorted(profile.properties[EX.weight]._readings) == [5.0, 12.5]
    whole = postings.profile(epoch.workspace.items)
    assert len(whole.properties[EX.weight]._readings) == N_ITEMS + 1


def test_facet_memo_carries_only_clean_collections():
    ws = _big_workspace()
    items = ws.items
    clean = tuple(items[:10])
    dirty = tuple(items[10:20])
    touched = dirty[0]
    profile_clean = ws.facet_profile(clean)
    ws.facet_profile(dirty)
    assert len(ws._facet_profiles) == 2

    manager = EpochManager(ws)
    manager.ingest([(OP_ASSERT, touched, EX.color, EX.c77)])
    epoch = manager.publish()

    carried = epoch.workspace._facet_profiles
    version = epoch.workspace.graph.version
    assert carried == {(version, clean): profile_clean}
    assert carried[(version, clean)] is profile_clean
    # A memo miss on the dirtied collection recomputes, not resurrects.
    stats = epoch.workspace.facet_profile_stats
    epoch.workspace.facet_profile(dirty)
    assert stats.misses == 1 and stats.hits == 0
    epoch.workspace.facet_profile(clean)
    assert stats.hits == 1
