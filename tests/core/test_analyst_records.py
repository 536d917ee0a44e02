"""Lifecycle of the per-item analyst records behind the collection analysts.

Records are filled lazily by suggestion cycles, one table per sealed
workspace: a graph change arrives as a new epoch whose table must never
serve a cycle stale records, new epochs and ``as_of`` views start with
none, and the paths that never suggest (facet profiles, previews) must
never build them — they build facet entries only.
"""

from repro.core.epochs import EpochManager
from repro.core.workspace import Workspace
from repro.datasets import recipes, scaled
from repro.net.protocol import suggestions_payload
from repro.query import HasValue
from repro.query.ast import Range
from repro.rdf import Literal, Resource
from repro.service.navigation import NavigationService
from repro.store.datom import OP_ASSERT


def _landing(workspace):
    service = NavigationService()
    state = service.initial_state(workspace)
    return suggestions_payload(service.suggest(workspace, state))


def test_unfrozen_add_item_matches_a_fresh_workspace():
    corpus = recipes.build_corpus(80, seed=3)
    graph = corpus.graph
    workspace = Workspace(graph, schema=corpus.schema, items=corpus.items)
    _landing(workspace)
    before = workspace.analyst_records()
    assert len(before) == len(workspace.items)

    props = corpus.extras["properties"]
    donor = corpus.items[0]
    # A second origin on the donor's most used ingredient moves a
    # presented path chip ("Africa (N)") for every recipe using it, not
    # just for the new item.
    ingredient = max(
        sorted(graph.objects(donor, props["ingredient"]), key=lambda n: n.n3()),
        key=lambda n: graph.count_subjects(props["ingredient"], n),
    )
    ops = [(OP_ASSERT, ingredient, props["origin"], Literal("Africa"))]
    newcomer = Resource(donor.uri + "-copy")
    for prop, values in graph.properties_of(donor).items():
        for value in values:
            ops.append((OP_ASSERT, newcomer, prop, value))
    title = Literal("atlantis walnut stew")
    ops.append((OP_ASSERT, newcomer, props["title"], title))
    epochs = EpochManager(workspace)
    epochs.ingest(ops)
    epoch = epochs.publish()
    grown = epoch.workspace
    assert newcomer in grown.items

    after = _landing(grown)
    assert grown.analyst_records() is not before
    assert workspace.analyst_records() is before
    fresh = epochs.cold_workspace(epoch.watermark)
    assert after == _landing(fresh)


def test_as_of_views_start_with_empty_records():
    corpus = recipes.build_corpus(40, seed=3)
    workspace = Workspace(corpus.graph, schema=corpus.schema, items=corpus.items)
    _landing(workspace)
    assert len(workspace.analyst_records()) == len(workspace.items)
    view = workspace.as_of(workspace.graph.last_tx)
    assert len(view.analyst_records()) == 0
    _landing(view)
    assert len(view.analyst_records()) == len(view.items)
    assert view.analyst_records() is not workspace.analyst_records()


def test_epoch_fold_starts_with_empty_records():
    corpus = recipes.build_corpus(40, seed=3)
    manager = EpochManager(
        Workspace(corpus.graph, schema=corpus.schema, items=corpus.items)
    )
    prev = manager.current.workspace
    _landing(prev)
    built = prev.analyst_records()
    donor = corpus.items[0]
    title = corpus.extras["properties"]["title"]
    manager.ingest([(OP_ASSERT, donor, title, Literal("saffron risotto"))])
    epoch = manager.publish()
    assert epoch is not None
    carried = epoch.workspace.analyst_records()
    assert carried is not built
    assert len(carried) == 0
    # The landing's facet entries ride the fold; the touched item's not.
    assert donor not in carried._facets
    other = corpus.items[1]
    assert carried._facets[other] is built._facets[other]
    assert prev.analyst_records() is built
    payload = _landing(epoch.workspace)
    assert payload == _landing(manager.cold_workspace(epoch.watermark))


def test_profiles_and_previews_never_build_records():
    corpus = scaled.build_corpus(2048, freeze=False)
    workspace = Workspace(
        corpus.graph, schema=corpus.schema, items=corpus.items
    ).freeze()
    service = NavigationService()
    state = service.initial_state(workspace)
    extras = corpus.extras
    workspace.facet_profile(workspace.items)
    service.preview_count(
        workspace, state, HasValue(extras["p_tag"], extras["tags"][7])
    )
    service.preview_count(
        workspace, state, Range(extras["p_year"], 1990.5, 2004.25)
    )
    service.preview_count(
        workspace, state, Range(extras["p_weight"], low=12.5)
    )
    records = workspace.analyst_records()
    assert len(records._facets) == len(workspace.items)
    assert len(records) == 0
    assert not records._chips and not records._words


def test_item_records_build_no_facet_entries():
    corpus = recipes.build_corpus(40, seed=3)
    workspace = Workspace(corpus.graph, schema=corpus.schema, items=corpus.items)
    records = workspace.analyst_records()
    records.of(workspace.items)
    assert len(records) == len(workspace.items)
    assert not records._facets and not records._props
