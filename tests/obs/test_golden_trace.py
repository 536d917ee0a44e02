"""Golden traces: rendered span trees and metric snapshots, exactly.

A :class:`ManualClock` advances one tick per read, so every duration is
a pure function of the code path taken — the rendered trace of a fixed
navigation flow is therefore a stable string this suite can assert
byte-for-byte, and the Figure-1 recipe flow must render identically on
every run.
"""

import pytest

from repro.browser.session import Session
from repro.core.workspace import Workspace
from repro.obs import ManualClock, Observability, render_trace_forest
from repro.query import HasValue, TypeIs
from repro.rdf import Graph, Namespace, RDF

EX = Namespace("http://golden.example/")


def _tiny_workspace():
    graph = Graph()
    for name, color in (("a", EX.red), ("b", EX.red), ("c", EX.blue)):
        item = EX[name]
        graph.add(item, RDF.type, EX.Doc)
        graph.add(item, EX.color, color)
    obs = Observability(tracing=True, clock=ManualClock())
    return Workspace(graph, obs=obs)


class TestGoldenTinyFlow:
    @pytest.fixture()
    def workspace(self):
        workspace = _tiny_workspace()
        workspace.obs.tracer.clear()  # only the flow below shows up
        return workspace

    def test_refine_trace_renders_exactly(self, workspace):
        session = Session(workspace)
        session.refine(HasValue(EX.color, EX.red))
        assert render_trace_forest(workspace.obs.tracer.roots) == "\n".join(
            [
                "session.refine items=2 mode=filter [5]",
                "  query.evaluate results=2 root=HasValue [3]",
                "    query.node cache=miss kind=HasValue [1]",
            ]
        )

    def test_preview_after_refine_hits_the_cache(self, workspace):
        session = Session(workspace)
        predicate = HasValue(EX.color, EX.red)
        session.refine(predicate)
        workspace.obs.tracer.clear()
        assert session.preview_count(predicate) == 2
        assert render_trace_forest(workspace.obs.tracer.roots) == "\n".join(
            [
                "session.preview_count mode=filter results=2 [5]",
                "  query.count results=2 root=HasValue [3]",
                "    query.node cache=hit kind=HasValue [1]",
            ]
        )

    def test_metrics_snapshot_exactly(self, workspace):
        session = Session(workspace)
        predicate = HasValue(EX.color, EX.red)
        session.refine(predicate)
        session.preview_count(predicate)
        assert session.metrics.snapshot() == {
            "counters": {
                "session.preview_counts": 1,
                "session.refinements": 1,
            },
            "gauges": {
                "facets.profile_memo.hits": 0,
                "facets.profile_memo.misses": 0,
                "graph.version": workspace.graph.version,
                "index.postings_touched": 0,
                "index.search_memo.evictions": 0,
                "index.search_memo.hits": 0,
                "index.search_memo.misses": 0,
                "nav.analysis_memo.evictions": 0,
                "nav.analysis_memo.hits": 0,
                "nav.analysis_memo.misses": 0,
                "query.extent_cache.evictions": 0,
                "query.extent_cache.hit_rate": 0.5,
                "query.extent_cache.hits": 1,
                "query.extent_cache.misses": 1,
                "store.full_rebuilds": 0,
                "store.items_reindexed": 0,
            },
            "histograms": {},
        }


def _run_figure1_flow(corpus):
    """One deterministic pass over the §3/Figure-1 recipe interaction."""
    workspace = Workspace(
        corpus.graph,
        schema=corpus.schema,
        items=corpus.items,
        obs=Observability(tracing=True, clock=ManualClock()),
    )
    workspace.obs.tracer.clear()
    session = Session(workspace)
    props = corpus.extras["properties"]
    italian = HasValue(props["cuisine"], corpus.extras["cuisines"]["Italian"])
    session.run_query(TypeIs(corpus.extras["types"]["Recipe"]))
    first = [s.title for s in session.suggestions().all_suggestions()]
    preview = session.preview_count(italian)
    session.refine(italian)
    second = [s.title for s in session.suggestions().all_suggestions()]
    trace = render_trace_forest(workspace.obs.tracer.roots)
    return {
        "trace": trace,
        "metrics": session.metrics.snapshot(),
        "suggestions": (first, second),
        "preview": preview,
        "items": list(session.current.items),
    }


class TestFigure1Flow:
    def test_trace_is_bit_identical_across_runs(self, recipe_corpus):
        one = _run_figure1_flow(recipe_corpus)
        two = _run_figure1_flow(recipe_corpus)
        assert one["trace"] == two["trace"]
        assert one["metrics"] == two["metrics"]
        assert one["suggestions"] == two["suggestions"]
        assert one["items"] == two["items"]

    def test_trace_structure(self, recipe_corpus):
        run = _run_figure1_flow(recipe_corpus)
        roots = run["trace"].splitlines()
        top_level = [line.split(" ", 1)[0] for line in roots if line[:1] != " "]
        assert top_level == [
            "session.query",
            "nav.suggest",
            "session.preview_count",
            "session.refine",
            "nav.suggest",
        ]
        assert "nav.analyst" in run["trace"]
        assert "nav.advisor" in run["trace"]
        assert "facets.profile" in run["trace"]
        assert run["preview"] == len(run["items"])

    def test_metrics_account_for_the_flow(self, recipe_corpus):
        run = _run_figure1_flow(recipe_corpus)
        metrics = run["metrics"]
        assert metrics["counters"]["session.refinements"] == 1
        assert metrics["counters"]["session.preview_counts"] == 1
        per_analyst = metrics["histograms"]["nav.analyst_suggestions"]
        # Two suggestion cycles ran; every triggered analyst observed once.
        assert per_analyst["count"] == run["trace"].count("nav.analyst ")
        assert sum(per_analyst["counts"]) == per_analyst["count"]
        gauges = metrics["gauges"]
        assert gauges["query.extent_cache.hits"] > 0
        assert gauges["facets.profile_memo.hits"] > 0
