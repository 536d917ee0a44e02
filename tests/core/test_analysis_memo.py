"""The cross-session memo of view-pure analyst postings.

A repeated view — every session's landing pane — is served from the
workspace's analysis memo instead of re-running the analysts that
declare ``view_pure``.  These tests pin what that may and may not
change: nothing a session sees.
"""

from __future__ import annotations

import pytest

from repro.core import analysis_memo
from repro.core.advisors import RELATED_ITEMS
from repro.core.analysts import Analyst, standard_analysts
from repro.core.engine import NavigationEngine
from repro.core.epochs import EpochManager
from repro.core.suggestions import Invoke
from repro.core.view import View
from repro.core.workspace import Workspace
from repro.net.protocol import canonical_json, ok_envelope, suggestions_payload
from repro.obs import ManualClock, Observability, render_trace_forest
from repro.query.ast import HasValue, Range
from repro.rdf import Graph, Literal, Namespace, RDF
from repro.service import commands as cmd
from repro.service.manager import SessionManager
from repro.store.datom import OP_ASSERT

EX = Namespace("http://memo.example/")

VIEW_PURE = {
    "refine-by-property-value",
    "refine-by-path",
    "refine-by-text",
    "keyword-search-within",
    "refine-by-range",
    "similar-by-content-item",
    "similar-by-content-collection",
    "sharing-a-property",
    "contrary-constraints",
    "related-collections",
}
HISTORY = {"history-previous", "history-refinement", "similar-by-visit"}


@pytest.fixture()
def workspace(recipe_corpus):
    return Workspace(
        recipe_corpus.graph,
        schema=recipe_corpus.schema,
        items=recipe_corpus.items,
    ).freeze()


def _body(result) -> bytes:
    return canonical_json(ok_envelope(suggestions_payload(result)))


def _quads(result, keep=lambda s: True):
    return [
        (s.advisor, s.title, s.group, s.weight)
        for s in result.all_suggestions()
        if keep(s)
    ]


def _count_analyze(monkeypatch) -> dict:
    """Count ``analyze`` calls per analyst name, for every analyst class."""
    calls: dict[str, int] = {}
    for analyst in standard_analysts():
        cls = type(analyst)
        original = cls.analyze

        def counting(self, view, blackboard, original=original):
            calls[self.name] = calls.get(self.name, 0) + 1
            original(self, view, blackboard)

        monkeypatch.setattr(cls, "analyze", counting)
    return calls


def _small_graph() -> Graph:
    graph = Graph()
    for index, (color, title, year) in enumerate(
        [
            (EX.red, "red apple pie", 1990),
            (EX.red, "red beet salad", 1995),
            (EX.blue, "blue corn bread", 2001),
            (EX.green, "green pea soup", 2004),
            (EX.blue, "blue cheese tart", 2010),
        ]
    ):
        item = EX[f"doc{index}"]
        graph.add(item, RDF.type, EX.Doc)
        graph.add(item, EX.color, color)
        graph.add(item, EX.title, Literal(title))
        graph.add(item, EX.year, Literal(year))
    return graph


class TestContract:
    def test_the_ten_view_pure_analysts(self):
        declared = {a.name: a.view_pure for a in standard_analysts()}
        assert {name for name, pure in declared.items() if pure} == VIEW_PURE
        assert {name for name, pure in declared.items() if not pure} == HISTORY

    def test_the_base_class_is_not_view_pure(self):
        assert Analyst.view_pure is False


class TestSharedLanding:
    def test_second_landing_runs_no_view_pure_analyst(
        self, workspace, monkeypatch
    ):
        calls = _count_analyze(monkeypatch)
        manager = SessionManager(workspace)
        first = _body(manager.create("a").suggestions())
        ran_first = dict(calls)
        assert set(ran_first) & VIEW_PURE, "the landing ran no analyst"
        calls.clear()
        second = _body(manager.create("b").suggestions())
        assert not set(calls) & VIEW_PURE, f"re-ran {calls}"
        assert second == first
        stats = workspace.analysis_memo.stats
        assert stats.hits == stats.misses == len(set(ran_first) & VIEW_PURE)

    def test_memo_served_landing_equals_a_cold_engine(self, workspace):
        manager = SessionManager(workspace)
        manager.create("a").suggestions()
        served = manager.create("b").suggestions()
        landing = View.of_collection(workspace, workspace.items)
        cold = NavigationEngine().suggest(landing)
        assert _body(served) == _body(cold)

    def test_histories_stay_per_session(self, workspace):
        manager = SessionManager(workspace)
        a, b = manager.create("a"), manager.create("b")
        a.apply(cmd.GoItem(workspace.items[0]))
        a.apply(cmd.Back())
        b.apply(cmd.GoItem(workspace.items[1]))
        b.apply(cmd.Back())
        assert a.state.view == b.state.view
        pane_a, pane_b = a.suggestions(), b.suggestions()
        assert workspace.analysis_memo.stats.hits > 0
        shared = lambda s: s.analyst not in HISTORY  # noqa: E731
        own = lambda s: s.analyst in HISTORY  # noqa: E731
        assert _quads(pane_a, shared) == _quads(pane_b, shared)
        assert _quads(pane_a, own) != _quads(pane_b, own)
        label = workspace.label
        assert f"Previous: {label(workspace.items[0])}" in [
            s.title for s in pane_a.all_suggestions()
        ]
        assert f"Previous: {label(workspace.items[1])}" in [
            s.title for s in pane_b.all_suggestions()
        ]
        for session, pane in ((a, pane_a), (b, pane_b)):
            cold = NavigationEngine().suggest(
                session.service.materialize(workspace, session.state)
            )
            assert _quads(pane) == _quads(cold)

    def test_mutating_a_suggestion_does_not_leak(self, workspace):
        manager = SessionManager(workspace)
        pane_a = manager.create("a").suggestions()
        expected = _quads(pane_a)
        for suggestion in pane_a.blackboard.entries:
            suggestion.title += " (edited)"
            suggestion.weight = -1.0
            suggestion.group = "edited"
        pane_b = manager.create("b").suggestions()
        assert _quads(pane_b) == expected
        for suggestion in pane_b.blackboard.entries:
            suggestion.title += " (edited again)"
        assert _quads(manager.create("c").suggestions()) == expected


class TestInvalidation:
    def test_add_item_matches_a_fresh_workspace(self):
        # An arrival is a new epoch with a memo of its own: the old
        # epoch's memo keeps serving its own, unchanged, pane.
        workspace = Workspace(_small_graph())
        engine = NavigationEngine()
        view_items = list(workspace.items)
        before = engine.suggest(View.of_collection(workspace, view_items))
        epochs = EpochManager(workspace)
        epochs.ingest(
            [
                (OP_ASSERT, EX.doc9, RDF.type, EX.Doc),
                (OP_ASSERT, EX.doc9, EX.color, EX.red),
                (OP_ASSERT, EX.doc9, EX.title, Literal("red pepper stew")),
                (OP_ASSERT, EX.doc9, EX.year, Literal(2020)),
            ]
        )
        epoch = epochs.publish()
        grown = epoch.workspace
        assert EX.doc9 in grown.items
        fresh = epochs.cold_workspace(epoch.watermark)
        for items in (view_items, grown.items):
            after = engine.suggest(View.of_collection(grown, items))
            cold = NavigationEngine().suggest(View.of_collection(fresh, items))
            assert _quads(after) == _quads(cold)
        # The old view's pane did change: a stale hit would have shown.
        after = engine.suggest(View.of_collection(grown, view_items))
        assert _quads(after) != _quads(before)
        again = engine.suggest(View.of_collection(workspace, view_items))
        assert _quads(again) == _quads(before)

    def test_equal_queries_that_render_differently_do_not_share(self):
        workspace = Workspace(_small_graph()).freeze()
        engine = NavigationEngine()
        items = workspace.items[:3]
        for low in (0.0, -0.0):
            query = Range(EX.year, low=low, high=3000.0)
            view = View.of_collection(workspace, items, query=query)
            served = engine.suggest(view)
            cold = NavigationEngine().suggest(view)
            assert _quads(served) == _quads(cold)
        assert any(
            "≥ -0" in s.title or "in [-0," in s.title
            for s in served.all_suggestions()
        )


class TestBoundsAndTelemetry:
    def test_cap_holds_and_evictions_are_counted(self):
        workspace = Workspace(_small_graph()).freeze()
        memo = workspace.analysis_memo
        engine = NavigationEngine()
        landing = View.of_collection(workspace, workspace.items)
        items = workspace.items
        pairs = [
            (items[i], items[j])
            for i in range(len(items))
            for j in range(len(items))
            if i != j
        ]
        queries = [None, HasValue(EX.color, EX.red), HasValue(EX.color, EX.blue)]
        engine.suggest(landing)
        for query in queries:
            for pair in pairs:
                engine.suggest(View.of_collection(workspace, pair, query=query))
                # Kept hot, the landing view survives every eviction.
                hits = memo.stats.hits
                engine.suggest(landing)
                assert memo.stats.hits > hits
        assert len(memo) == analysis_memo.ANALYSIS_MEMO_CAP
        assert memo.stats.evictions > 0
        assert memo.stats.evictions == (
            memo.stats.misses - analysis_memo.ANALYSIS_MEMO_CAP
        )

    def test_a_hit_is_traced_and_counted_like_a_live_run(self):
        obs = Observability(tracing=True, clock=ManualClock())
        workspace = Workspace(_small_graph(), obs=obs).freeze()
        engine = NavigationEngine()
        view = View.of_collection(workspace, workspace.items)

        def cycle():
            obs.tracer.clear()
            engine.suggest(view)
            return [
                line.strip()
                for line in render_trace_forest(obs.tracer.roots).splitlines()
                if line.strip().startswith(("nav.analyst ", "nav.suggest "))
            ]

        live = cycle()
        histogram = obs.metrics.snapshot()["histograms"]["nav.analyst_suggestions"]
        served = cycle()
        assert workspace.analysis_memo.stats.hits > 0

        def untimed(lines):
            return [line.rsplit(" [", 1)[0] for line in lines]

        assert untimed(served) == untimed(live)
        doubled = obs.metrics.snapshot()["histograms"]["nav.analyst_suggestions"]
        assert doubled["counts"] == [2 * n for n in histogram["counts"]]


class _Counting(Analyst):
    """An extension analyst that declares nothing."""

    name = "counting-extension"

    def __init__(self):
        self.calls = 0

    def triggers_on(self, view):
        return view.is_collection

    def analyze(self, view, blackboard):
        self.calls += 1
        self.post(
            blackboard, RELATED_ITEMS, f"run {self.calls}", Invoke(int, "noop")
        )


class _Echo(Analyst):
    """A reactive analyst: listens to every posting."""

    name = "echo"

    def __init__(self):
        self.heard = 0

    def is_reactive(self):
        return True

    def on_posted(self, view, blackboard, suggestion):
        self.heard += 1


class TestExtensions:
    def test_an_undeclared_extension_runs_every_cycle(self):
        workspace = Workspace(_small_graph()).freeze()
        engine = NavigationEngine()
        extension = _Counting()
        engine.add_analyst(extension)
        view = View.of_collection(workspace, workspace.items)
        engine.suggest(view)
        second = engine.suggest(view)
        assert extension.calls == 2
        posted = [s for s in second.blackboard.entries if s.analyst == _Counting.name]
        assert [s.title for s in posted] == ["run 2"]
        assert workspace.analysis_memo.stats.hits > 0

    def test_reactive_listeners_turn_the_memo_off(self):
        workspace = Workspace(_small_graph()).freeze()
        echo = _Echo()
        engine = NavigationEngine()
        engine.add_analyst(echo)
        view = View.of_collection(workspace, workspace.items)
        first = engine.suggest(view)
        second = engine.suggest(view)
        assert workspace.analysis_memo.stats.lookups == 0
        assert echo.heard == len(first.blackboard) + len(second.blackboard)
