"""The live-ingestion oracle: clean folds pass, planted staleness fails.

The second half is the harness-sensitivity contract: an oracle that
cannot detect a deliberately planted bug is decoration, not a check.
We corrupt each published epoch's facet-profile memo after the fold
(exactly the bug the fold's carry logic could introduce if it carried
a profile across a dirty delta), nudge one posting weight of its
vector index, or let views reuse their mask against a new epoch's
intern table, and require the run to report a violation.
"""

from repro.check.ingestcheck import run_ingest_check
from repro.check.storecheck import workspace_fingerprint


def test_clean_run_detects_nothing():
    report = run_ingest_check(1234, corpora=2, epochs=3, nav_steps=6)
    assert report.ok
    assert report.corpora_run == 2
    assert report.epochs_checked >= 4
    assert report.txs_ingested > 0
    assert report.datoms_ingested > 0
    assert report.nav_steps_run > 0


def _plant_stale_memo(epoch):
    """Populate the suggestion path's memo entry, then corrupt it."""
    workspace = epoch.workspace
    workspace_fingerprint(workspace)
    assert workspace._facet_profiles
    for profile in workspace._facet_profiles.values():
        for prop_profile in profile.properties.values():
            if prop_profile.counts:
                value = next(iter(prop_profile.counts))
                prop_profile.counts[value] += 5
                return


def test_planted_stale_memo_demands_divergence():
    report = run_ingest_check(
        1234, corpora=1, epochs=2, nav_steps=2,
        mutate_epoch=_plant_stale_memo,
    )
    assert not report.ok
    assert any("diverge" in violation for violation in report.violations)


def _nudge_one_posting(epoch):
    """Scale by (1 + 1e-9) one posting weight that the first item's
    Similar Items search reads: its top hit's weight on a shared
    coordinate.  The top hit is found below the store's search memo,
    so the planted drift is not hidden behind an answer memoized from
    the index before it was planted."""
    workspace = epoch.workspace
    store = workspace.vector_store
    item = workspace.items[0]
    index = store.index
    query = store.model.vector(item)
    top = index._ids[store.search(query, 10, exclude=(item,))[0].item]
    for coord, _weight in query.items():
        postings = index._postings.get(coord, {})
        if top in postings:
            postings[top] *= 1 + 1e-9
            return
    raise AssertionError("the top hit shares no coordinate")


def test_nudged_vector_score_demands_divergence():
    """A landing pane ranks no item by vector score; the fingerprint's
    Similar Items views must still see a 1e-9 drift in one posting."""
    report = run_ingest_check(
        1234, corpora=1, epochs=2, nav_steps=2,
        mutate_epoch=_nudge_one_posting,
    )
    assert not report.ok
    assert any("diverge" in violation for violation in report.violations)


def _nudge_one_collection_posting(epoch):
    """Scale by (1 + 1e-9) one posting weight of the last hit that the
    first 20 items' collection search returns, on a centroid
    coordinate that neither fixed item view reads."""
    workspace = epoch.workspace
    store = workspace.vector_store
    members = workspace.items[:20]
    index = store.index
    query = store.model.centroid(members)
    hits = store.search(query, 10, exclude=set(members))
    last = index._ids[hits[-1].item]
    item_coords = {
        coord
        for item in workspace.items[:1] + workspace.items[-1:]
        for coord, _weight in store.model.vector(item).items()
    }
    for coord, _weight in query.items():
        postings = index._postings.get(coord, {})
        if last in postings and coord not in item_coords:
            postings[last] *= 1 + 1e-9
            return
    raise AssertionError("no coordinate of the centroid alone")


def test_nudged_collection_score_demands_divergence():
    """The fingerprint's collection search must see a 1e-9 drift that
    the two item searches cannot."""
    report = run_ingest_check(
        1234, corpora=1, epochs=2, nav_steps=2,
        mutate_epoch=_nudge_one_collection_posting,
    )
    assert not report.ok
    assert any("diverge" in violation for violation in report.violations)


def test_catches_a_view_mask_that_ignores_the_intern_table(monkeypatch):
    """Every epoch has a fresh intern table: a view mask cached against
    one epoch's ids and read against the next counts other items."""
    from repro.service.state import ViewState

    def table_blind(self, table):
        cached = self.__dict__.get("_bits")
        if cached is not None:
            return cached[1]
        mask = table.bits_of(self.items)
        self.keep_bits(table, mask)
        return mask

    monkeypatch.setattr(ViewState, "bits", table_blind)
    report = run_ingest_check(20260807, corpora=2, epochs=4, nav_steps=1)
    assert not report.ok
    assert any("migrated session" in v for v in report.violations)


def test_cli_flag_runs_the_oracle(capsys):
    from repro.check.cli import main

    status = main([
        "--seed", "5", "--steps", "4", "--corpora", "1",
        "--fault-rounds", "0", "--ingest",
        "--ingest-corpora", "1", "--ingest-epochs", "2",
    ])
    out = capsys.readouterr().out
    assert status == 0
    assert "ingest:" in out
    assert "OK" in out
