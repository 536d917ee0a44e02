"""perf — supporting timings for the heavy code paths.

Not a paper table; establishes that the substrate scales to the paper's
corpus (§5.2's motivation for pre-indexing into the vector store).

The repeated-refinement and facet-overview scenarios additionally pit
the served engine and the single-sweep profile against naive baselines
and write a machine-readable summary to ``BENCH_perf_core.json`` at the
repo root.
"""

import json
import math
import os
import pathlib
import platform
import statistics
import time

import pytest

from repro.browser import Session
from repro.check.reference import naive_extent
from repro.core import Workspace
from repro.core.analysts.records import AnalystRecords
from repro.datasets import recipes
from repro.query import And, HasValue, QueryEngine, Range, TypeIs
from repro.vsm import VectorSpaceModel

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_perf_core.json"


def _record_bench(corpus_size: int, op: str, payload: dict) -> None:
    """Merge one operation's timings into BENCH_perf_core.json."""
    data: dict = {}
    if BENCH_PATH.exists():
        try:
            data = json.loads(BENCH_PATH.read_text())
        except (OSError, ValueError):
            data = {}
    data["corpus_size"] = corpus_size
    data.setdefault("ops", {})[op] = payload
    BENCH_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _median_rounds(fn, rounds: int) -> tuple[float, list[float]]:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), times


def test_perf_triple_pattern_lookup(benchmark, full_recipe_corpus):
    corpus = full_recipe_corpus
    props = corpus.extras["properties"]
    garlic = corpus.extras["ingredients"]["garlic"]

    def lookup():
        return sum(1 for _ in corpus.graph.subjects(props["ingredient"], garlic))

    count = benchmark(lookup)
    assert count > 100


def test_perf_boolean_query(benchmark, full_recipe_corpus, full_recipe_workspace):
    corpus = full_recipe_corpus
    props = corpus.extras["properties"]
    query = And(
        [
            TypeIs(corpus.extras["types"]["Recipe"]),
            HasValue(props["cuisine"], corpus.extras["cuisines"]["Italian"]),
            HasValue(props["ingredient"], corpus.extras["ingredients"]["garlic"]),
        ]
    )
    result = benchmark(full_recipe_workspace.query_engine.evaluate, query)
    assert result


def test_perf_similarity_search(benchmark, full_recipe_corpus, full_recipe_workspace):
    target = full_recipe_corpus.extras["walnut_recipe"]
    store = full_recipe_workspace.vector_store
    store.refresh()
    hits = benchmark(store.similar_to_item, target, 10)
    assert len(hits) == 10


def test_perf_text_search(benchmark, full_recipe_workspace):
    hits = benchmark(full_recipe_workspace.text_index.search, "garlic lemon")
    assert hits


def test_perf_suggestion_cycle_small_collection(
    benchmark, full_recipe_corpus, full_recipe_workspace
):
    session = Session(full_recipe_workspace)
    props = full_recipe_corpus.extras["properties"]
    session.run_query(
        And(
            [
                TypeIs(full_recipe_corpus.extras["types"]["Recipe"]),
                HasValue(
                    props["cuisine"],
                    full_recipe_corpus.extras["cuisines"]["Greek"],
                ),
            ]
        )
    )
    view = session.current
    result = benchmark(session.engine.suggest, view)
    assert result.all_suggestions()


#: This test at the commit before per-item analyst records, on a 2-core
#: x86_64 host under CPython 3.11.7: every cycle re-walked the graph,
#: so cold and warm cost the same.
LANDING_BEFORE = {"cold_ms": 3356.1, "warm_ms": 3375.3}


def test_perf_landing_suggest(full_recipe_corpus, full_recipe_workspace):
    """The landing pane: one suggestion cycle over the whole corpus.

    ``cold_ms`` is the first cycle with the per-item analyst records
    empty (the facet profile and the vector index already warm, as they
    are after any earlier view); ``warm_ms`` the median cycle after it.
    """
    workspace = full_recipe_workspace
    workspace._analyst_records = AnalystRecords(  # records start empty
        workspace.graph, workspace.schema, workspace.text_index.analyzer
    )
    session = Session(workspace)
    view = session.current
    assert len(view.items) == len(workspace.items)
    workspace.facet_profile(view.items)
    start = time.perf_counter()
    cold = session.engine.suggest(view)
    cold_seconds = time.perf_counter() - start
    warm_seconds, _ = _median_rounds(lambda: session.engine.suggest(view), 5)
    titles = [s.title for s in session.engine.suggest(view).all_suggestions()]
    assert titles == [s.title for s in cold.all_suggestions()]
    _record_bench(
        len(full_recipe_corpus.items),
        "landing_suggest",
        {
            "corpus_size": len(view.items),
            "cold_ms": round(cold_seconds * 1e3, 1),
            "warm_ms": round(warm_seconds * 1e3, 1),
            "before": LANDING_BEFORE,
            "host": f"{platform.machine()} x{os.cpu_count()}, "
            f"CPython {platform.python_version()}",
        },
    )


#: The row before the legacy set engine was removed, when the baseline
#: was ``QueryEngine(use_bitsets=False)`` (a 2-core x86_64 host,
#: CPython 3.11.7).
REFINEMENT_BEFORE = {
    "baseline": "legacy set engine",
    "median_seconds": 0.0019,
    "baseline_median_seconds": 0.0390,
    "speedup": 20.5,
}


def test_perf_repeated_refinement(full_recipe_corpus, full_recipe_workspace):
    """One round = the preview-and-click cycle over a dozen facets.

    The engine amortizes leaf extents across clicks (cached on the
    workspace's sealed context); the naive oracle (``naive_extent``, the
    differential harness's reference) re-derives every extent per click
    by per-item matching.  Both produce identical item sets — only the
    time may differ.
    """
    corpus = full_recipe_corpus
    props = corpus.extras["properties"]
    base = TypeIs(corpus.extras["types"]["Recipe"])
    refinements = [
        HasValue(props["cuisine"], corpus.extras["cuisines"][name])
        for name in ("Italian", "Greek", "French", "Mexican")
    ] + [
        HasValue(props["course"], value)
        for value in list(corpus.extras["courses"].values())[:3]
    ] + [
        HasValue(props["ingredient"], corpus.extras["ingredients"][name])
        for name in ("garlic", "onion", "butter")
    ] + [
        Range(props["serves"], low=2, high=6),
        Range(props["prepMinutes"], low=None, high=45),
    ]
    queries = [And([base, predicate]) for predicate in refinements]
    context = full_recipe_workspace.query_context
    fast = QueryEngine(context)

    class NaiveEngine:
        """The oracle behind the engine's ``count``/``evaluate`` API."""

        def evaluate(self, predicate, within=None):
            population = context.universe if within is None else within
            return naive_extent(predicate, set(population), context)

        def count(self, predicate, within=None):
            return len(self.evaluate(predicate, within))

    naive = NaiveEngine()

    def run_round(engine):
        # Preview every candidate refinement (the per-suggestion counts
        # the interface shows before any click) ...
        total = 0
        for query in queries:
            total += engine.count(query)
        # ... then click one, and preview the rest within the result.
        collection = engine.evaluate(queries[0])
        total += len(collection)
        for predicate in refinements[1:]:
            total += engine.count(predicate, within=collection)
        return total

    # Cache telemetry over the whole scenario (cold first round included):
    # only the engine consults the extent cache, so the delta is
    # attributable to `fast` even though the context is shared.
    stats = context.cache_stats
    hits_before, lookups_before = stats.hits, stats.lookups
    assert run_round(fast) == run_round(naive)
    fast_median, fast_times = _median_rounds(lambda: run_round(fast), rounds=5)
    naive_median, _ = _median_rounds(lambda: run_round(naive), rounds=5)
    speedup = naive_median / fast_median
    lookups = stats.lookups - lookups_before
    cache_hit_rate = (stats.hits - hits_before) / lookups if lookups else 0.0
    _record_bench(
        len(corpus.items),
        "repeated_refinement",
        {
            "median_seconds": fast_median,
            "naive_median_seconds": naive_median,
            "cold_seconds": fast_times[0],
            "speedup": speedup,
            "clicks_per_round": len(refinements),
            "cache_hit_rate": cache_hit_rate,
            "cache_lookups": lookups,
            "before": REFINEMENT_BEFORE,
            "host": f"{platform.machine()} x{os.cpu_count()}, "
            f"CPython {platform.python_version()}",
        },
    )
    assert speedup >= 5.0
    assert cache_hit_rate > 0.5


def _legacy_facet_overview(workspace, items, max_values=8):
    """The pre-profile FacetSummary recipe, kept verbatim as baseline:
    one counting sweep, one coverage scan *per property*, one continuous
    sweep, one readings pass per continuous property."""
    from collections import Counter

    from repro.core.analysts.common import (
        ANNOTATION_PROPERTIES,
        is_facetable_value,
    )
    from repro.query.preview import RangePreview
    from repro.rdf.terms import Literal

    graph, schema = workspace.graph, workspace.schema

    def collect_values(prop):
        values = []
        for item in items:
            for value in graph.objects(item, prop):
                if not isinstance(value, Literal):
                    continue
                number = value.as_number()
                if number is not None and math.isfinite(number):
                    values.append(number)
        values.sort()
        return values

    def coverage(prop):
        return sum(1 for item in items if prop in graph.properties_of(item))

    counts = {}
    for item in items:
        for prop, values in graph.properties_of(item).items():
            if prop in ANNOTATION_PROPERTIES or schema.is_hidden(prop):
                continue
            declared = schema.value_type(prop)
            bucket = counts.setdefault(prop, Counter())
            for value in values:
                if is_facetable_value(value, declared):
                    bucket[value] += 1
    facets = []
    for prop, values in counts.items():
        if not values:
            continue
        top = sorted(
            values.items(),
            key=lambda kv: (-kv[1], workspace.label(kv[0]).lower()),
        )[:max_values]
        facets.append((prop, top, len(values), coverage(prop), None))
    tallies = {}
    for item in items:
        for prop, values in graph.properties_of(item).items():
            if schema.is_hidden(prop):
                continue
            stats = tallies.setdefault(prop, [0, 0])
            for value in values:
                stats[1] += 1
                if isinstance(value, Literal) and (
                    value.is_numeric or value.is_temporal
                ):
                    stats[0] += 1
    continuous = sorted(
        prop
        for prop, (numeric, total) in tallies.items()
        if schema.is_continuous(prop) or (total and numeric / total >= 0.9)
    )
    for prop in continuous:
        readings = collect_values(prop)
        if len(set(readings)) < 2:
            continue
        facets.append(
            (prop, [], len(set(readings)), coverage(prop), RangePreview(readings))
        )
    facets.sort(key=lambda f: (-f[3], workspace.label(f[0]).lower()))
    return facets


def test_perf_facet_overview(full_recipe_corpus, full_recipe_workspace):
    """Full-corpus Figure-2 overview: single sweep + memo vs multi-pass."""
    from repro.browser.facets import FacetSummary

    workspace = full_recipe_workspace
    items = list(workspace.items)

    def run_new():
        return FacetSummary.of_collection(workspace, items)

    def run_legacy():
        return _legacy_facet_overview(workspace, items)

    memo = workspace.facet_profile_stats
    memo_hits_before, memo_lookups_before = memo.hits, memo.lookups
    start = time.perf_counter()
    new_summary = run_new()  # nothing memoized yet: the true cold cost
    cold_seconds = time.perf_counter() - start
    legacy_facets = run_legacy()
    assert [f.prop for f in new_summary.facets] == [f[0] for f in legacy_facets]
    assert [f.values for f in new_summary.facets] == [f[1] for f in legacy_facets]
    assert [f.coverage for f in new_summary.facets] == [f[3] for f in legacy_facets]
    fast_median, _ = _median_rounds(run_new, rounds=5)
    legacy_median, _ = _median_rounds(run_legacy, rounds=3)
    speedup = legacy_median / fast_median
    memo_lookups = memo.lookups - memo_lookups_before
    memo_hit_rate = (
        (memo.hits - memo_hits_before) / memo_lookups if memo_lookups else 0.0
    )
    _record_bench(
        len(full_recipe_corpus.items),
        "facet_overview",
        {
            "median_seconds": fast_median,
            "legacy_median_seconds": legacy_median,
            "cold_seconds": cold_seconds,
            "cold_speedup": legacy_median / cold_seconds,
            "speedup": speedup,
            "cache_hit_rate": memo_hit_rate,
        },
    )
    assert speedup >= 3.0
    assert memo_hit_rate > 0.5


def test_perf_multi_session_serving(full_recipe_corpus, full_recipe_workspace):
    """Fifty interleaved sessions over one shared workspace (ISSUE-3).

    One stateless ``NavigationService`` carries fifty independent
    ``SessionState`` values through a scripted navigation, round-robin —
    every session advances one transition before any advances two, the
    worst case for per-session cache affinity.  Per-transition latency
    lands in ``BENCH_perf_core.json`` under ``multi_session``.
    """
    from repro.service import NavigationService, commands as cmd

    corpus = full_recipe_corpus
    props = corpus.extras["properties"]
    cuisines = list(corpus.extras["cuisines"].items())
    ingredients = list(corpus.extras["ingredients"].items())
    n_sessions = 50

    def script(i: int) -> list:
        _, cuisine = cuisines[i % len(cuisines)]
        _, ingredient = ingredients[i % len(ingredients)]
        return [
            cmd.RunQuery(TypeIs(corpus.extras["types"]["Recipe"])),
            cmd.Refine(HasValue(props["cuisine"], cuisine)),
            cmd.Refine(HasValue(props["ingredient"], ingredient)),
            cmd.NegateConstraint(2),
            cmd.RemoveConstraint(2),
            cmd.UndoRefinement(),
            cmd.Refine(Range(props["serves"], low=2, high=6)),
            cmd.Back(),
        ]

    service = NavigationService(full_recipe_workspace.query_engine)
    scripts = [script(i) for i in range(n_sessions)]
    steps_per_session = len(scripts[0])

    # Warm once (cold extents would dominate the first round-robin row).
    warm_state = service.initial_state(full_recipe_workspace)
    for command in scripts[0]:
        warm_state = service.apply(
            full_recipe_workspace, warm_state, command
        ).state

    states = [
        service.initial_state(full_recipe_workspace)
        for _ in range(n_sessions)
    ]
    latencies: list[float] = []
    wall_start = time.perf_counter()
    for step in range(steps_per_session):
        for i in range(n_sessions):
            start = time.perf_counter()
            states[i] = service.apply(
                full_recipe_workspace, states[i], scripts[i][step]
            ).state
            latencies.append(time.perf_counter() - start)
    wall_seconds = time.perf_counter() - wall_start

    # Interleaving must not bleed state across sessions: each ends with
    # exactly the constraints its own script left behind.
    for i, state in enumerate(states):
        assert state.view.query is not None
        assert len(state.back_stack) > 0
    transitions = len(latencies)
    assert transitions == n_sessions * steps_per_session
    ordered = sorted(latencies)
    payload = {
        "sessions": n_sessions,
        "transitions": transitions,
        "wall_seconds": wall_seconds,
        "throughput_per_second": transitions / wall_seconds,
        "mean_seconds": statistics.fmean(latencies),
        "median_seconds": statistics.median(latencies),
        "p95_seconds": ordered[int(0.95 * (transitions - 1))],
        "max_seconds": ordered[-1],
    }
    _record_bench(len(corpus.items), "multi_session", payload)
    assert payload["median_seconds"] < 0.5
    assert payload["throughput_per_second"] > 10


@pytest.mark.parametrize("n_items", [250, 1000, 4000])
def test_perf_indexing_scales(benchmark, full_recipe_corpus, n_items):
    corpus = full_recipe_corpus

    def index_slice():
        model = VectorSpaceModel(corpus.graph, schema=corpus.schema)
        model.index_items(corpus.items[:n_items])
        return model

    model = benchmark.pedantic(index_slice, rounds=2, iterations=1)
    assert len(model) == n_items
