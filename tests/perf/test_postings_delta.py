"""A one-item delta must advance the facet entries, not rebuild them.

The epoch fold calls :meth:`AnalystRecords.advance`, which carries the
facet entries of every node the delta did not touch.  These tests pin
that: touching one item out of hundreds re-sweeps that one item (plus
any items the fold conservatively marks dirty) and reuses the rest
verbatim, and a re-swept entry reflects the delta.  The facet
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


def _swept_again(prior, records, items):
    """Items whose facet entries ``records`` did not take from ``prior``."""
    return [
        item
        for item in items
        if records._facets[item] is not prior._facets[item]
    ]


def test_one_item_delta_reuses_records():
    ws = _big_workspace()
    prior = ws.analyst_records()
    prior.profile(ws.items)  # build every epoch-0 facet entry
    assert len(prior._facets) == N_ITEMS

    manager = EpochManager(ws)
    manager.ingest([(OP_ASSERT, EX.it7, EX.color, EX.c99)])
    epoch = manager.publish()

    records = epoch.workspace.analyst_records()
    # The fold carried the untouched entries and built no item record.
    assert EX.it7 not in records._facets
    assert len(records._facets) >= N_ITEMS - 2
    assert records._facets[EX.it0] is prior._facets[EX.it0]
    assert len(records) == 0

    records.profile(epoch.workspace.items)
    assert len(records._facets) == N_ITEMS
    # One touched item re-swept; the other ~399 entries carried.
    swept = _swept_again(prior, records, epoch.workspace.items)
    assert EX.it7 in swept
    assert len(swept) <= 2

    cold = manager.cold_workspace(epoch.watermark)
    assert workspace_fingerprint(epoch.workspace) == \
        workspace_fingerprint(cold)


def test_touched_item_record_reflects_the_delta():
    ws = _big_workspace()
    prior = ws.analyst_records()
    prior.profile(ws.items)

    manager = EpochManager(ws)
    manager.ingest([(OP_ASSERT, EX.it5, EX.weight, Literal(12.5))])
    epoch = manager.publish()

    records = epoch.workspace.analyst_records()
    profile = records.profile([EX.it5])
    assert records._facets[EX.it5] is not prior._facets[EX.it5]
    assert sorted(profile.properties[EX.weight]._readings) == [5.0, 12.5]
    whole = records.profile(epoch.workspace.items)
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
    assert carried == {clean: profile_clean}
    assert carried[clean] is profile_clean
    # A memo miss on the dirtied collection recomputes, not resurrects.
    stats = epoch.workspace.facet_profile_stats
    epoch.workspace.facet_profile(dirty)
    assert stats.misses == 1 and stats.hits == 0
    epoch.workspace.facet_profile(clean)
    assert stats.hits == 1


def test_touched_non_item_node_is_swept_again():
    """Facet entries and memoized profiles exist for nodes outside the
    item universe too, so a delta naming one must not carry either."""
    manager = EpochManager(_big_workspace())
    manager.ingest([(OP_ASSERT, EX.loose, EX.color, EX.c1)])
    ws = manager.publish().workspace
    assert EX.loose not in ws.query_context.universe
    before = ws.facet_profile([EX.loose])
    assert list(before.properties[EX.color].counts) == [EX.c1]

    manager.ingest([(OP_ASSERT, EX.loose, EX.color, EX.c2)])
    epoch = manager.publish()

    after = epoch.workspace.facet_profile([EX.loose])
    assert set(after.properties[EX.color].counts) == {EX.c1, EX.c2}
