"""Scaled-corpus (64k items) regressions for the facet entries, the
range index, the state encoder, vector search and the analysis memo.

The paper's corpora top out at 6,444 items; the ROADMAP targets
interactive navigation at 10–100× that.  This module pins four claims
on the shared 64k synthetic corpus (:mod:`repro.datasets.scaled`):

* a cold profile replayed from the per-item facet entries of the
  analyst records table is ≥5× faster than the single-sweep graph
  profile, bit-identically (``facet_overview_postings`` row);
* a cold ``Range`` extent read from the sorted range index is ≥20×
  faster than the triple scan it replaced, bit-identically
  (``range_leaf_miss`` row, also measured at 8,192 items);
* an ``apply`` or create-session body, encoded as serving encodes it
  (the view it arrives at joined from memoized term fragments, the back
  stack spliced from memoized view bodies), is ≥3× faster to encode
  than ``json.dumps`` of the state's dict form, byte-identically
  (``apply_encode`` row, also measured at 8,192 items);
* a Similar-by-Content search accumulating over interned doc ids is
  ≥2× faster than accumulating over ``Node`` keys, hits identical
  (``vector_search`` row, also measured at 8,192 items);
* a second session's landing, its view-pure analysts served from the
  workspace's analysis memo, is ≥3× faster than the same landing with
  every analyst run on warm workspace caches, bytes identical
  (``landing_repeat`` row, also measured at 16,384 items);
* a value or range preview served against the view's cached intern
  mask is ≥VIEW_PREVIEW_FLOOR× faster than re-interning the view's
  items for every preview, counts identical, on the landing view and
  on a narrowed view (``view_preview`` row, also measured at 16,384
  items).

One row records a cost and has no floor: ``epoch_fold``, the time to
publish two new items at 8,192 and 16,384 items; every publish builds
a new vector index.

The timings land in ``BENCH_perf_core.json``.  The tests are marked
``slow`` and excluded from tier-1; CI's perf job runs them with
``-m slow``.
"""

import gc
import heapq
import json
import math
import os
import pathlib
import platform
import random
import statistics
import time
from dataclasses import replace

import pytest

from repro.check.reference import naive_extent
from repro.core.analysts.common import collection_profile
from repro.core.analysts.records import AnalystRecords
from repro.core.epochs import EpochManager
from repro.core.workspace import Workspace
from repro.datasets import scaled
from repro.index import Hit, VectorStore
from repro.index.search import _MaxStr
from repro.net.protocol import (
    canonical_json,
    ok_envelope,
    session_payload,
    suggestions_payload,
    transition_payload,
)
from repro.query import HasValue, QueryContext, Range
from repro.rdf.terms import Literal
from repro.service import NavigationService, commands as cmd
from repro.service.manager import SessionManager
from repro.service.navigation import Transition
from repro.store.datom import OP_ASSERT
from repro.vsm import SparseVector, VectorSpaceModel
from repro.vsm.tokenizer import Analyzer

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_perf_core.json"


def _record_bench(corpus_size: int, op: str, payload: dict) -> None:
    """Merge one operation's timings into BENCH_perf_core.json.

    Same merge discipline as test_perf_core; the scaled rows carry
    their own corpus size since the file-level one describes the
    recipe benches.
    """
    data: dict = {}
    if BENCH_PATH.exists():
        try:
            data = json.loads(BENCH_PATH.read_text())
        except (OSError, ValueError):
            data = {}
    payload = dict(payload, corpus_size=corpus_size)
    data.setdefault("ops", {})[op] = payload
    BENCH_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


N_ITEMS = 65_536

#: The acceptance floor for the facet-entry overview at 64k.
FACET_SPEEDUP_FLOOR = 5.0

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def corpus():
    return scaled.build_corpus(N_ITEMS)


def _host() -> str:
    return (
        f"{platform.machine()} x{os.cpu_count()}, "
        f"CPython {platform.python_version()}"
    )


def _best_of(fn, rounds=3):
    # The module keeps several 64k corpora alive; collector pauses in a
    # timed region would be noise, not signal.
    best = None
    result = None
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
    finally:
        gc.enable()
    return best, result


def test_facet_overview_postings_speedup(corpus):
    records = AnalystRecords(corpus.graph, corpus.schema, Analyzer())
    items = corpus.items
    # Building the facet entries is index construction — amortized
    # across every profile of the same workspace — so it warms
    # outside the timed region, like the vector store's refresh().
    records.profile(items)

    legacy_s, legacy_profile = _best_of(
        lambda: collection_profile(corpus.graph, corpus.schema, items)
    )
    postings_s, postings_profile = _best_of(lambda: records.profile(items))

    # The speed claim is only meaningful if the outputs are identical.
    assert list(postings_profile.properties.keys()) == list(
        legacy_profile.properties.keys()
    )
    for prop, expected in legacy_profile.properties.items():
        actual = postings_profile.properties[prop]
        assert actual.coverage == expected.coverage
        assert list(actual.counts.items()) == list(expected.counts.items())

    speedup = legacy_s / postings_s
    _record_bench(
        N_ITEMS,
        "facet_overview_postings",
        {
            "legacy_s": round(legacy_s, 4),
            "postings_s": round(postings_s, 4),
            "speedup": round(speedup, 2),
            "floor": FACET_SPEEDUP_FLOOR,
            "host": _host(),
        },
    )
    assert speedup >= FACET_SPEEDUP_FLOOR, (
        f"facet-entry overview only {speedup:.2f}x faster "
        f"(legacy {legacy_s * 1000:.0f}ms, entries {postings_s * 1000:.0f}ms)"
    )


#: The acceptance floor for a cold ``Range`` extent at 64k: the sorted
#: range index against the per-property triple scan it replaced.
RANGE_SPEEDUP_FLOOR = 20.0


def _scan_range_bits(context, predicate):
    """The pre-index ``Range`` extent, kept here as the baseline: scan
    every triple of the property, parse each reading, intern the hits."""
    found = set()
    for subject, _p, value in context.graph.triples(None, predicate.prop, None):
        if not isinstance(value, Literal):
            continue
        number = value.as_number()
        if number is None or math.isnan(number):
            continue
        if predicate.low is not None and number < predicate.low:
            continue
        if predicate.high is not None and number > predicate.high:
            continue
        found.add(subject)
    return context.bits_of(found)


def _slider_ranges(corpus, count, seed):
    """Distinct year/weight ranges, like the preview stream a slider makes."""
    rng = random.Random(seed)
    year, weight = corpus.extras["p_year"], corpus.extras["p_weight"]
    ranges = []
    for i in range(count):
        if i % 2:
            low = 1900 + rng.randrange(120)
            ranges.append(Range(year, low=low, high=low + rng.randrange(1, 30)))
        else:
            low = rng.uniform(0.0, 900.0)
            ranges.append(Range(weight, low=low, high=low + rng.uniform(1.0, 100.0)))
    return ranges


def _range_leaf_miss(corpus, count=20):
    """Per-extent seconds (scan, index) and the one-time index build."""
    context = QueryContext(corpus.graph, schema=corpus.schema)
    ranges = _slider_ranges(corpus, count, seed=len(corpus.items))
    start = time.perf_counter()
    for prop in {predicate.prop for predicate in ranges}:
        context.range_index(prop)
    build_s = time.perf_counter() - start

    scan_s, scanned = _best_of(
        lambda: [_scan_range_bits(context, p) for p in ranges]
    )
    index_s, indexed = _best_of(lambda: [p.extent_bits(context) for p in ranges])
    assert indexed == scanned
    universe = context.universe
    for predicate, bits in list(zip(ranges, indexed))[:4]:
        want = naive_extent(predicate, universe, context)
        assert context.nodes_of(bits) & universe == want
    return scan_s / count, index_s / count, build_s


def test_range_leaf_miss(corpus):
    """A cold ``Range`` leaf: two bisections into the range index
    instead of a triple scan per preview, extents identical."""
    rows = {}
    for size, sized in ((8_192, scaled.build_corpus(8_192)), (N_ITEMS, corpus)):
        scan_s, index_s, build_s = _range_leaf_miss(sized)
        rows[str(size)] = {
            "before_ms": round(scan_s * 1000, 3),
            "after_ms": round(index_s * 1000, 3),
            "speedup": round(scan_s / index_s, 1),
            "index_build_ms": round(build_s * 1000, 1),
        }
    speedup = rows[str(N_ITEMS)]["speedup"]
    _record_bench(
        N_ITEMS,
        "range_leaf_miss",
        {
            "sizes": rows,
            "floor": RANGE_SPEEDUP_FLOOR,
            "host": _host(),
        },
    )
    assert speedup >= RANGE_SPEEDUP_FLOOR, (
        f"range index only {speedup:.1f}x faster than the triple scan: {rows}"
    )


#: The acceptance floor for encoding an ``apply`` or create-session
#: body at 64k, as served: the new view from term fragments and the
#: back stack from memoized view headers, against ``json.dumps`` of the
#: state's response form as a dict.
ENCODE_SPEEDUP_FLOOR = 3.0


def _dict_body(result) -> bytes:
    """The pre-splice encoding: the response as a dict, through json."""
    return json.dumps(
        ok_envelope(result), sort_keys=True, separators=(",", ":"),
        ensure_ascii=True,
    ).encode("ascii")


def _clicks(corpus):
    """A facets-style session: ranges and a category, then a negation
    and a removal, so later bodies carry a back stack of headers,
    the landing view's among them."""
    year, weight = corpus.extras["p_year"], corpus.extras["p_weight"]
    return [
        cmd.Refine(Range(year, low=1900, high=2010), "filter"),
        cmd.Refine(Range(weight, low=50.0, high=950.0), "filter"),
        cmd.NegateConstraint(1),
        cmd.RemoveConstraint(1),
        cmd.Refine(HasValue(corpus.extras["p_category"],
                            corpus.extras["categories"][0]), "filter"),
        cmd.RemoveConstraint(1),
    ]


def _median(values):
    values = sorted(values)
    return values[len(values) // 2]


def _served(state):
    """``state`` as a response meets it: its current view a fresh copy
    that nothing has encoded yet, the header of every view on its back
    stack encoded by an earlier response and kept on the view."""
    for view in state.back_stack:
        view.header_json()
    return replace(state, view=replace(state.view))


def _apply_encode(corpus):
    """Median per-body seconds, (dict, spliced), for landings and applies.

    The spliced side is timed as serving pays it: the view a response
    arrives at is encoded cold, and the back stack's headers are
    spliced from their views.  A landing is timed as the first session
    of a workspace pays it, before its shared landing view is encoded.
    """
    workspace = Workspace(
        corpus.graph, schema=corpus.schema, items=corpus.items
    ).freeze()
    session = SessionManager(workspace).create("bench")
    landing = session.state
    bodies = [(
        lambda: _dict_body({"name": "bench", "state": landing.wire_dict()}),
        lambda served: canonical_json(
            ok_envelope(session_payload("bench", served))
        ),
        landing,
    )]
    for command in _clicks(corpus):
        t = session.apply(command)
        bodies.append((
            lambda t=t: _dict_body(
                {"state": t.state.wire_dict(), "outcome": t.outcome}
            ),
            lambda served, t=t: canonical_json(
                ok_envelope(transition_payload(Transition(served, t.outcome)))
            ),
            t.state,
        ))
    rows = []
    for before, after, state in bodies:
        expected = before()
        assert after(_served(state)) == expected  # also fills the fragments
        cold = iter([_served(state) for _ in range(3)])
        after_s = _best_of(lambda: after(next(cold)), rounds=3)[0]
        rows.append((_best_of(before)[0], after_s, len(expected)))
    return {"landing": _encode_row(rows[:1]), "apply": _encode_row(rows[1:])}


def _encode_row(rows):
    before = _median([row[0] for row in rows])
    after = _median([row[1] for row in rows])
    return {
        "before_ms": round(before * 1000, 2),
        "after_ms": round(after * 1000, 2),
        "speedup": round(before / after, 1),
        "body_bytes": _median([row[2] for row in rows]),
        "bodies": len(rows),
    }


def test_apply_encode(corpus):
    """Response bodies spliced from memoized fragments and view headers
    instead of ``json.dumps`` over the response dict, bytes identical."""
    rows = {
        str(size): _apply_encode(sized)
        for size, sized in ((8_192, scaled.build_corpus(8_192)), (N_ITEMS, corpus))
    }
    _record_bench(
        N_ITEMS,
        "apply_encode",
        {"sizes": rows, "floor": ENCODE_SPEEDUP_FLOOR, "host": _host()},
    )
    at_scale = rows[str(N_ITEMS)]
    for kind in ("apply", "landing"):
        assert at_scale[kind]["speedup"] >= ENCODE_SPEEDUP_FLOOR, (
            f"{kind} encoding only {at_scale[kind]['speedup']}x faster: {rows}"
        )


#: The acceptance floor for Similar-by-Content at 64k: scores
#: accumulated over interned doc ids against ``Node``-keyed postings.
VECTOR_SPEEDUP_FLOOR = 2.0


def _node_keyed_search(postings, query, k, exclude):
    """The pre-interning search, kept here as the baseline and the
    oracle: accumulate into a ``Node``-keyed dict, then heap-select
    (score desc, repr asc) behind a predicate exclusion."""
    scores = {}
    for coord, q_weight in query.items():
        for item, d_weight in postings.get(coord, {}).items():
            scores[item] = scores.get(item, 0.0) + q_weight * d_weight
    ranked = []
    for item, score in scores.items():
        if exclude(item):
            continue
        if len(ranked) < k:
            heapq.heappush(ranked, (score, _MaxStr(repr(item)), item))
        elif score > ranked[0][0] or (
            score == ranked[0][0] and repr(item) < ranked[0][1].value
        ):
            heapq.heapreplace(ranked, (score, _MaxStr(repr(item)), item))
    ranked.sort(key=lambda entry: (-entry[0], entry[1].value))
    return [Hit(item, score) for score, _marker, item in ranked]


def _folded_centroid(vectors):
    """The pre-one-pass centroid: ``total = total + vec`` per member."""
    total = SparseVector()
    for vector in vectors:
        total = total + vector
    return total.normalized()


def _vector_search(corpus, k=10, rounds=3):
    """Per-kind seconds (before, after, repeat) for collection and item
    queries.

    ``after`` runs every query once on a fresh store, so it times real
    searches, not the store's search memo; the best of ``rounds`` fresh
    stores counts.  ``repeat`` runs the same queries again on the last
    store: every one is a memo hit.
    """
    model = VectorSpaceModel(corpus.graph, schema=corpus.schema)
    model.index_items(corpus.items)
    index = _fresh_store(model).index
    postings = {coord: index.postings(coord) for coord in index.coordinates()}
    rng = random.Random(len(corpus.items))
    kinds = {
        f"collection_{size}": [
            rng.sample(corpus.items, size) for _ in range(5)
        ]
        for size in (20, 200, 1_000)
    }
    kinds["item"] = [[item] for item in rng.sample(corpus.items, 20)]

    def before(views, members):
        out = []
        for view in views:
            if members:
                excluded = set(view)
                query = _folded_centroid(model.vector(item) for item in view)
                exclude = lambda item, excluded=excluded: item in excluded  # noqa: E731
            else:
                query = model.vector(view[0])
                exclude = lambda item, one=view[0]: item == one  # noqa: E731
            out.append(_node_keyed_search(postings, query, k, exclude))
        return out

    def after(store, views, members):
        if members:
            return [store.similar_to_collection(view, k) for view in views]
        return [store.similar_to_item(view[0], k) for view in views]

    expected = {}
    before_s = {}
    for kind, views in kinds.items():
        before_s[kind], expected[kind] = _best_of(
            lambda: before(views, kind != "item")
        )
    after_s = {}
    for _round in range(rounds):
        store = _fresh_store(model)
        for kind, views in kinds.items():
            seconds, actual = _best_of(
                lambda: after(store, views, kind != "item"), rounds=1
            )
            assert actual == expected[kind]  # items and exact scores
            after_s[kind] = min(seconds, after_s.get(kind, seconds))
    rows = {}
    for kind, views in kinds.items():
        repeat_s, again = _best_of(
            lambda: after(store, views, kind != "item")
        )
        assert again == expected[kind]
        rows[kind] = {
            "before_ms": round(before_s[kind] / len(views) * 1000, 3),
            "after_ms": round(after_s[kind] / len(views) * 1000, 3),
            "repeat_ms": round(repeat_s / len(views) * 1000, 4),
            "queries": len(views),
        }
    assert store.memo.stats.misses == sum(map(len, kinds.values()))
    before_ms = sum(row["before_ms"] * row["queries"] for row in rows.values())
    after_ms = sum(row["after_ms"] * row["queries"] for row in rows.values())
    return {
        "queries": rows,
        "postings": sum(len(bucket) for bucket in postings.values()),
        "speedup": round(before_ms / after_ms, 2),
    }


def _fresh_store(model):
    """A store with its index built, outside any timed region, and an
    empty search memo."""
    store = VectorStore(model)
    store.refresh()
    return store


def test_vector_search(corpus):
    """Similar-by-Content over interned doc ids, with set exclusion and
    a one-pass centroid, against the ``Node``-keyed search it replaced;
    hits identical.  Also records a repeated search, served from the
    store's search memo."""
    rows = {
        str(size): _vector_search(sized)
        for size, sized in ((8_192, scaled.build_corpus(8_192)), (N_ITEMS, corpus))
    }
    _record_bench(
        N_ITEMS,
        "vector_search",
        {"sizes": rows, "floor": VECTOR_SPEEDUP_FLOOR, "host": _host()},
    )
    speedup = rows[str(N_ITEMS)]["speedup"]
    assert speedup >= VECTOR_SPEEDUP_FLOOR, (
        f"id-keyed vector search only {speedup}x faster: {rows}"
    )


#: The acceptance floor for a repeated landing at 64k: a second
#: session's create + suggest, view-pure analysts served from the
#: analysis memo, against the same landing with every analyst run.
LANDING_REPEAT_FLOOR = 3.0


def _land(manager, name):
    """One landing as served: create a session, then suggest; both bodies."""
    session = manager.create(name)
    created = canonical_json(ok_envelope(session_payload(name, session.state)))
    pane = canonical_json(ok_envelope(suggestions_payload(session.suggestions())))
    return created, pane


def _landing_repeat(corpus):
    """First, warm-miss and memo-served landing seconds on one workspace.

    The first session pays every cold build (records, facet profile,
    vector index).  A warm miss lands through a fresh ``SessionManager``:
    a new engine, whose analysts miss the memo, over warm caches.  The
    repeat lands a new session through the first manager, so every
    view-pure analyst is a memo hit.
    """
    workspace = Workspace(
        corpus.graph, schema=corpus.schema, items=corpus.items
    ).freeze()
    manager = SessionManager(workspace)
    start = time.perf_counter()
    first = _land(manager, "first")
    first_s = time.perf_counter() - start
    names = iter(range(10**6))
    miss_s, miss = _best_of(
        lambda: _land(SessionManager(workspace), "miss")
    )
    hit_s, hit = _best_of(lambda: _land(manager, f"repeat{next(names)}"))
    assert miss[1] == hit[1] == first[1]  # the panes, byte for byte
    return {
        "first_ms": round(first_s * 1000, 1),
        "warm_miss_ms": round(miss_s * 1000, 2),
        "repeat_ms": round(hit_s * 1000, 2),
        "speedup": round(miss_s / hit_s, 1),
        "pane_bytes": len(first[1]),
        "memo": workspace.analysis_memo.stats.as_dict(),
    }


def test_landing_repeat(corpus):
    """A repeated landing served from the analysis memo against a warm
    landing that runs every analyst; panes byte-identical."""
    rows = {
        str(size): _landing_repeat(sized)
        for size, sized in (
            (16_384, scaled.build_corpus(16_384)),
            (N_ITEMS, corpus),
        )
    }
    _record_bench(
        N_ITEMS,
        "landing_repeat",
        {"sizes": rows, "floor": LANDING_REPEAT_FLOOR, "host": _host()},
    )
    speedup = rows[str(N_ITEMS)]["speedup"]
    assert speedup >= LANDING_REPEAT_FLOOR, (
        f"memo-served landing only {speedup}x faster: {rows}"
    )


#: The acceptance floor for a preview at 64k: one AND and one popcount
#: against the view's cached mask, against re-interning the view.
VIEW_PREVIEW_FLOOR = 100.0

#: Previews per timed batch.
VIEW_PREVIEW_CALLS = 20


def _interning_preview(workspace, state, predicate):
    """The preview before views carried their mask, kept as the baseline:
    given the view's items, the engine interns every one of them on each
    call, then counts ``popcount(bits & bits_of(view.items))``."""
    return workspace.query_engine.count(predicate, within=state.view.items)


def _view_preview(corpus):
    """Per-preview ms, before and after, by view and predicate kind.

    Extents are warm on both sides (the same predicates repeat), so the
    two differ only in how the view becomes a mask.
    """
    extras = corpus.extras
    workspace = Workspace(
        corpus.graph, schema=corpus.schema, items=corpus.items
    ).freeze()
    service = NavigationService()
    landing = service.initial_state(workspace)
    narrowed = service.apply(
        workspace,
        landing,
        cmd.Refine(HasValue(extras["p_category"], extras["categories"][0])),
    ).state
    previews = {
        "value": HasValue(extras["p_tag"], extras["tags"][0]),
        "range": Range(extras["p_year"], low=1950.0, high=1990.0),
    }
    rows = {}
    for view_name, state in (("landing", landing), ("narrowed", narrowed)):
        for kind, predicate in previews.items():
            want = service.preview_count(workspace, state, predicate)
            naive = len(
                naive_extent(predicate, set(state.view.items),
                             workspace.query_context)
            )
            assert want == naive
            before_s, before = _best_of(lambda: [
                _interning_preview(workspace, state, predicate)
                for _ in range(VIEW_PREVIEW_CALLS)
            ])
            after_s, after = _best_of(lambda: [
                service.preview_count(workspace, state, predicate)
                for _ in range(VIEW_PREVIEW_CALLS)
            ])
            assert before == after == [want] * VIEW_PREVIEW_CALLS
            rows[f"{view_name}_{kind}"] = {
                "view_items": len(state.view.items),
                "count": want,
                "before_ms": round(before_s / VIEW_PREVIEW_CALLS * 1000, 3),
                "after_ms": round(after_s / VIEW_PREVIEW_CALLS * 1000, 4),
                "speedup": round(before_s / after_s, 1),
            }
    return rows


def test_view_preview(corpus):
    """Previews against the view's cached mask, against re-interning the
    view for every preview; counts identical."""
    rows = {
        str(size): _view_preview(sized)
        for size, sized in (
            (16_384, scaled.build_corpus(16_384)),
            (N_ITEMS, corpus),
        )
    }
    _record_bench(
        N_ITEMS,
        "view_preview",
        {"sizes": rows, "floor": VIEW_PREVIEW_FLOOR, "host": _host()},
    )
    slowest = min(row["speedup"] for row in rows[str(N_ITEMS)].values())
    assert slowest >= VIEW_PREVIEW_FLOOR, (
        f"mask-served preview only {slowest}x faster: {rows}"
    )


#: This row's fold at the commit before the vector model and the text
#: index got ``advance`` constructors, when the fold cloned the prior
#: epoch's model and text index and then removed and re-added the
#: changed items.  Medians of five runs on a 2-core x86_64 host under
#: CPython 3.11.7.
EPOCH_FOLD_BEFORE = {
    "8192": {"p50_ms": 399.5, "mean_ms": 521.8},
    "16384": {"p50_ms": 689.3, "mean_ms": 944.6},
}

EPOCH_FOLD_PUBLISHES = 10
EPOCH_FOLD_ITEMS_PER_PUBLISH = 2


def _epoch_fold(n_items):
    """Fold p50 and mean over ``EPOCH_FOLD_PUBLISHES`` publishes of
    ``EPOCH_FOLD_ITEMS_PER_PUBLISH`` new items each.

    The arrivals are the next items of the same generator: the corpus
    built that many items larger holds the base corpus as its prefix.
    """
    arriving = EPOCH_FOLD_PUBLISHES * EPOCH_FOLD_ITEMS_PER_PUBLISH
    base = scaled.build_corpus(n_items)
    grown = scaled.build_corpus(n_items + arriving, freeze=False)
    workspace = Workspace(
        base.graph, schema=base.schema, items=base.items
    ).freeze()
    workspace.vector_store.refresh()
    manager = EpochManager(workspace)
    arrivals = grown.items[n_items:]
    folds = []
    for start in range(0, arriving, EPOCH_FOLD_ITEMS_PER_PUBLISH):
        manager.ingest(
            (OP_ASSERT, s, p, o)
            for item in arrivals[start:start + EPOCH_FOLD_ITEMS_PER_PUBLISH]
            for s, p, o in grown.graph.triples(item, None, None)
        )
        began = time.perf_counter()
        epoch = manager.publish()
        folds.append(time.perf_counter() - began)
    assert len(epoch.workspace.items) == n_items + arriving
    return {
        "publishes": len(folds),
        "p50_ms": round(statistics.median(folds) * 1000, 1),
        "mean_ms": round(statistics.fmean(folds) * 1000, 1),
    }


def test_epoch_fold():
    """What an exact vector index costs a publish; recorded, not gated."""
    rows = {str(size): _epoch_fold(size) for size in (8_192, 16_384)}
    _record_bench(
        16_384,
        "epoch_fold",
        {
            "sizes": rows,
            "items_per_publish": EPOCH_FOLD_ITEMS_PER_PUBLISH,
            "before": EPOCH_FOLD_BEFORE,
            "host": _host(),
        },
    )
