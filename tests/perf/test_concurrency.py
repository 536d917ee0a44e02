"""Concurrent serving over one frozen workspace.

The ISSUE-3 contract: N threads running identical refinements against a
single sealed workspace must (a) all see identical results, and (b)
leave the shared telemetry — ``CacheStats``, metric counters, the
intern table — with *exact* counts (no lost updates).  The cache is
warmed first so every threaded lookup is a deterministic hit.
"""

import sys
import threading

import pytest

from repro.core import NavigationEngine, View, Workspace
from repro.obs.metrics import MetricsRegistry
from repro.perf.intern import InternTable
from repro.perf.stats import CacheStats
from repro.query import HasValue
from repro.rdf import Graph, Literal, Namespace, RDF
from repro.service import NavigationService, commands as cmd

EX = Namespace("http://cc.example/")

THREADS = 8
ROUNDS = 10  # × 10 commands per round = 100 transitions per thread


def _run_threads(count, target):
    """Run target(i) in `count` threads; re-raise the first failure."""
    errors = []

    def wrapped(i):
        try:
            target(i)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _graph():
    g = Graph()
    for i in range(40):
        item = EX[f"d{i}"]
        g.add(item, RDF.type, EX.Doc)
        g.add(item, EX.color, EX.red if i % 2 else EX.blue)
        g.add(item, EX.size, EX.big if i % 3 else EX.small)
        g.add(item, EX.title, Literal(f"doc number {i} corn salad"))
    return g


@pytest.fixture()
def frozen_workspace():
    return Workspace(_graph()).freeze()


def _script():
    """Ten commands whose queries exercise the extent cache."""
    return [
        cmd.Search("corn"),
        cmd.Refine(HasValue(EX.color, EX.red)),
        cmd.NegateConstraint(1),
        cmd.RemoveConstraint(0),
        cmd.UndoRefinement(),
        cmd.Refine(HasValue(EX.size, EX.big)),
        cmd.Back(),
        cmd.GoItem(EX.d0),
        cmd.Back(),
        cmd.UndoRefinement(),
    ]


def _run_session(service, workspace):
    """One full scripted session; returns the observed view trace."""
    state = service.initial_state(workspace)
    trace = []
    for _ in range(ROUNDS):
        for command in _script():
            state = service.apply(workspace, state, command).state
            view = state.view
            trace.append(
                tuple(view.items) if view.is_collection else view.item
            )
    return trace


class TestConcurrentSessions:
    def test_identical_results_and_exact_cache_counts(self, frozen_workspace):
        service = NavigationService()
        stats = frozen_workspace.query_context.cache_stats

        # Warm every extent the script touches, then measure one
        # reference run: all-hit, deterministic counts.
        _run_session(service, frozen_workspace)
        stats.reset()
        reference_trace = _run_session(service, frozen_workspace)
        reference_hits = stats.hits
        assert stats.misses == 0
        assert reference_hits > 0

        stats.reset()
        interned_before = len(frozen_workspace.graph.interner)
        traces = [None] * THREADS

        def drive(i):
            traces[i] = _run_session(service, frozen_workspace)

        _run_threads(THREADS, drive)

        assert all(trace == reference_trace for trace in traces)
        assert stats.misses == 0
        assert stats.hits == THREADS * reference_hits
        # A frozen, warmed workspace mints no new ids.
        assert len(frozen_workspace.graph.interner) == interned_before

    def test_refinement_counters_are_exact(self, frozen_workspace):
        service = NavigationService()
        metrics = frozen_workspace.obs.metrics
        refinements_per_run = sum(
            isinstance(c, cmd.Refine) for c in _script()
        ) * ROUNDS
        _run_session(service, frozen_workspace)  # warm + register
        metrics.reset()

        _run_threads(
            THREADS, lambda i: _run_session(service, frozen_workspace)
        )
        counters = metrics.snapshot()["counters"]
        assert (
            counters["session.refinements"] == THREADS * refinements_per_run
        )

    def test_facet_memo_counts_are_exact(self, frozen_workspace):
        collections = [
            tuple(frozen_workspace.items[:10]),
            tuple(frozen_workspace.items[10:20]),
            tuple(frozen_workspace.items[20:30]),
        ]
        for collection in collections:  # warm the memo
            frozen_workspace.facet_profile(collection)
        memo = frozen_workspace.facet_profile_stats
        memo.reset()
        per_thread = 50

        def probe(i):
            for n in range(per_thread):
                frozen_workspace.facet_profile(collections[n % 3])

        _run_threads(THREADS, probe)
        assert memo.hits == THREADS * per_thread
        assert memo.misses == 0

    def test_analysis_memo_under_threads(self, frozen_workspace):
        """Cold: racing misses all compute and store equal postings.
        Warm: every lookup is an exact hit.  Lost counter updates, a
        torn entry or a racing vector-index build would break one."""

        def views(workspace):
            items = workspace.items
            return [
                View.of_collection(workspace, items),
                View.of_collection(workspace, items[:20]),
                View.of_collection(
                    workspace, items[1::2], query=HasValue(EX.color, EX.red)
                ),
                View.of_item(workspace, items[3]),
            ]

        def panes(engine, workspace):
            return [
                [
                    (s.advisor, s.title, s.group, s.weight)
                    for s in engine.suggest(view).all_suggestions()
                ]
                for view in views(workspace)
            ]

        reference_ws = Workspace(
            frozen_workspace.graph, items=frozen_workspace.items
        ).freeze()
        reference = panes(NavigationEngine(), reference_ws)
        lookups = reference_ws.analysis_memo.stats.lookups
        assert lookups > 0

        engine = NavigationEngine()
        stats = frozen_workspace.analysis_memo.stats
        results = [None] * THREADS
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(
                THREADS,
                lambda i: results.__setitem__(
                    i, panes(engine, frozen_workspace)
                ),
            )
        finally:
            sys.setswitchinterval(interval)
        assert all(result == reference for result in results)
        assert stats.lookups == THREADS * lookups
        assert frozen_workspace.vector_store.maintenance.full_rebuilds == 1

        misses = stats.misses
        stats.reset()
        _run_threads(
            THREADS,
            lambda i: results.__setitem__(i, panes(engine, frozen_workspace)),
        )
        assert all(result == reference for result in results)
        assert stats.hits == THREADS * lookups
        assert stats.misses == 0
        assert len(frozen_workspace.analysis_memo) <= misses


class TestViewMasks:
    def test_previews_and_refines_on_shared_views(self, frozen_workspace):
        """Threads share views whose masks are seeded (landing), lazily
        derived (a go-to collection) or carried by a refine, and race
        the first ordered build of the intern table's rank.  Every count
        and every refined item list must equal a single-threaded run's
        over an identical workspace."""
        service = NavigationService()
        probes = [
            HasValue(EX.color, EX.red),
            HasValue(EX.size, EX.small),
            HasValue(EX.color, EX.blue),
        ]

        def shared_states(workspace):
            landing = service.initial_state(workspace)
            picked = service.apply(
                workspace, landing,
                cmd.GoCollection(tuple(workspace.items[::3])),
            ).state
            return [landing, picked]

        def work(workspace, states):
            out = []
            for state in states:
                for predicate in probes:
                    out.append(service.preview_count(workspace, state, predicate))
                    refined = service.apply(
                        workspace, state, cmd.Refine(predicate)
                    ).state
                    out.append(refined.view.items)
                    out.append(
                        service.preview_count(workspace, refined, probes[1])
                    )
            return out

        # Its own graph, hence its own intern table: the threads below
        # build the shared table's rank.
        reference_ws = Workspace(_graph()).freeze()
        reference = work(reference_ws, shared_states(reference_ws))
        states = shared_states(frozen_workspace)
        results = [None] * THREADS
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(
                THREADS,
                lambda i: results.__setitem__(
                    i, [work(frozen_workspace, states) for _ in range(5)]
                ),
            )
        finally:
            sys.setswitchinterval(interval)
        assert all(run == reference for result in results for run in result)


class TestAnalyzerStemCache:
    """The shared default Analyzer under the 8-thread harness.

    The stem cache is process-global state (``default_analyzer()`` is
    one instance shared by every workspace), so it must stay bounded and
    must hand every thread the exact stemmer output regardless of
    eviction races.
    """

    def test_threads_get_exact_stems_and_cache_stays_bounded(self):
        from repro.vsm.stemmer import PorterStemmer
        from repro.vsm.tokenizer import Analyzer

        limit = 64
        analyzer = Analyzer(cache_limit=limit)
        vocabulary = [f"running{i}" for i in range(200)] + [
            "connection", "relational", "navigational", "adjustable",
        ]
        reference = {word: PorterStemmer().stem(word) for word in vocabulary}
        results = [dict() for _ in range(THREADS)]

        def stem_all(i):
            # Rotated per thread so threads collide on eviction order.
            ordering = vocabulary[i:] + vocabulary[:i]
            for _ in range(3):
                for word in ordering:
                    results[i][word] = analyzer.stem_token(word)

        _run_threads(THREADS, stem_all)

        for word, expected in reference.items():
            assert all(results[i][word] == expected for i in range(THREADS))
        assert analyzer.cache_size <= limit

    def test_default_analyzer_is_bounded(self):
        from repro.vsm.tokenizer import default_analyzer

        analyzer = default_analyzer()
        assert analyzer.cache_limit == type(analyzer).CACHE_LIMIT
        before = analyzer.cache_size
        for word in ("connection", "connection", "connected"):
            analyzer.stem_token(word)
        assert analyzer.cache_size <= analyzer.cache_limit
        assert analyzer.cache_size >= min(before, analyzer.cache_limit)


class TestPrimitives:
    def test_cache_stats_increments_are_atomic(self):
        stats = CacheStats()
        per_thread = 10_000

        def bump(i):
            for _ in range(per_thread):
                stats.record_hit()
                stats.record_miss()

        _run_threads(THREADS, bump)
        assert stats.hits == THREADS * per_thread
        assert stats.misses == THREADS * per_thread

    def test_counter_inc_is_atomic(self):
        registry = MetricsRegistry()
        per_thread = 10_000

        def bump(i):
            counter = registry.counter("shared")
            for _ in range(per_thread):
                counter.inc()

        _run_threads(THREADS, bump)
        assert registry.snapshot()["counters"]["shared"] == (
            THREADS * per_thread
        )

    def test_intern_table_assigns_one_id_per_node(self):
        table = InternTable()
        nodes = [f"node-{n}" for n in range(500)]
        ids = [dict() for _ in range(THREADS)]

        def intern_all(i):
            # Shuffled per thread so threads collide on first-sight order.
            ordering = nodes[i:] + nodes[:i]
            for node in ordering:
                ids[i][node] = table.intern(node)

        _run_threads(THREADS, intern_all)
        assert len(table) == len(nodes)
        for node in nodes:
            expected = table.id_of(node)
            assert all(ids[i][node] == expected for i in range(THREADS))
            assert table.node_at(expected) == node


class TestAnalystRecordsUnderThreads:
    def test_racing_profiles_and_records_share_one_table(self):
        """Threads profile overlapping subsets straight off one cold
        table while others build item records and advance it.  Every
        profile must equal the graph sweep, and every entry must be
        built once: a profile that sized its buckets before another
        thread added a property, or a torn snapshot, would break one."""
        from repro.core.analysts.common import collection_profile
        from repro.core.analysts.records import AnalystRecords

        g = Graph()
        for i in range(96):
            item = EX[f"d{i}"]
            g.add(item, RDF.type, EX.Doc)
            g.add(item, EX.color, EX.red if i % 2 else EX.blue)
            # Most items bring a property no other item has.
            g.add(item, EX[f"p{i % 48}"], Literal(i))
            g.add(item, EX.title, Literal(f"doc number {i} corn salad"))
        workspace = Workspace(g).freeze()
        items = workspace.items
        subsets = [items[i::THREADS] + items[:i] for i in range(THREADS)]
        expected = [
            collection_profile(workspace.graph, workspace.schema, subset)
            for subset in subsets
        ]
        records = workspace.analyst_records()
        results = [None] * THREADS

        def work(i):
            if i % 4 == 3:
                records.of(subsets[i])
                advanced = AnalystRecords.advance(
                    records, workspace.graph, workspace.schema, set()
                )
                assert all(
                    advanced._facets[item] is records._facets[item]
                    for item in advanced._facets
                )
            results[i] = records.profile(subsets[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(THREADS, work)
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, expected):
            assert list(got.properties) == list(want.properties)
            for prop, profile in want.properties.items():
                assert list(got.properties[prop].counts.items()) == list(
                    profile.counts.items()
                )
                assert got.properties[prop].coverage == profile.coverage
        assert len(records._facets) == len(items)
        assert len(records) == len(set().union(*subsets[3::4]))
