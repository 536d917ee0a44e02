"""A view's intern mask: cached per intern table, seeded where it is known.

A collection view keeps one ``(intern table, mask)`` pair, so a preview
is one AND and one popcount.  Every epoch's graph has a fresh intern
table with its own ids; a session migrated to a new epoch keeps its
view's items, and their mask must be derived again against the new
table, never reused.
"""

import gc
import weakref

import pytest

from repro.check.reference import naive_extent
from repro.core.epochs import EpochManager
from repro.core.workspace import Workspace
from repro.perf.bitset import popcount
from repro.perf.intern import InternTable
from repro.query import And, HasValue, Not, Range
from repro.rdf import RDF, Graph, Literal, Namespace
from repro.service import NavigationService, commands as cmd
from repro.service.manager import SessionManager
from repro.service.state import ViewState
from repro.store.datom import OP_ASSERT, OP_RETRACT

EX = Namespace("http://vmask.example/")
COLORS = (EX.red, EX.blue, EX.green)


def _graph(n: int = 60) -> Graph:
    g = Graph()
    for i in range(n):
        item = EX[f"it{i:02d}"]
        g.add(item, RDF.type, EX.Doc)
        g.add(item, EX.color, COLORS[i % 3])
        g.add(item, EX.size, EX.big if i % 2 else EX.small)
        g.add(item, EX.weight, Literal(i))
    return g


def _naive_count(workspace, predicate, items) -> int:
    """How many of ``items`` the predicate matches, item by item."""
    return len(naive_extent(predicate, set(items), workspace.query_context))


class TestEpochRule:
    def test_preview_after_publish_and_sync_counts_the_new_graph(self):
        epochs = EpochManager(Workspace(_graph()))
        manager = SessionManager(epochs.current.workspace)
        manager.attach_epochs(epochs)
        session = manager.create("a")
        session.apply(cmd.Refine(Not(HasValue(EX.color, EX.green))))
        view = session.state.view
        big = HasValue(EX.size, EX.big)
        old_table = epochs.current.workspace.graph.interner
        old_mask = view.bits(old_table)
        assert session.preview_count(big) == 20

        # New items that match (outside the view), and one view item
        # that stops matching.
        ops = []
        for i in range(60, 75):
            item = EX[f"it{i:02d}"]
            ops += [
                (OP_ASSERT, item, RDF.type, EX.Doc),
                (OP_ASSERT, item, EX.color, EX.red),
                (OP_ASSERT, item, EX.size, EX.big),
            ]
        ops.append((OP_RETRACT, EX.it01, EX.size, EX.big))
        epochs.ingest(ops)
        epochs.publish()
        session = manager.sync_session("a")

        assert session.state.view is view  # the migration keeps the view
        workspace = session.workspace
        new_table = workspace.graph.interner
        assert new_table is not old_table
        # The items moved to other ids: a mask read against the wrong
        # table would count other items.
        assert view.bits(new_table) != old_mask
        count = session.preview_count(big)
        assert count == _naive_count(workspace, big, view.items) == 19

    def test_one_pair_per_view_and_a_new_table_rederives(self):
        view = ViewState.of_collection([EX.a, EX.b, EX.c])
        first, second = InternTable(), InternTable()
        second.intern(EX.z)
        assert view.bits(first) == 0b111
        assert view.bits(second) == second.bits_of([EX.a, EX.b, EX.c])
        assert view.bits(second) != view.bits(first)  # re-derived again
        assert view.bits(first) == 0b111

    def test_the_cache_does_not_pin_a_retired_table(self):
        view = ViewState.of_collection([EX.a, EX.b])
        table = InternTable()
        view.bits(table)
        alive = weakref.ref(table)
        del table
        gc.collect()
        assert alive() is None

    def test_the_cache_is_not_part_of_the_value(self):
        cached = ViewState.of_collection([EX.a, EX.b])
        cached.bits(InternTable())
        plain = ViewState.of_collection([EX.a, EX.b])
        assert cached == plain
        assert hash(cached) == hash(plain)
        assert cached.to_dict() == plain.to_dict()


class TestSeeding:
    @pytest.fixture()
    def frozen(self):
        return Workspace(_graph()).freeze()

    def test_landing_reads_universe_bits_and_interns_nothing(
        self, frozen, monkeypatch
    ):
        service = NavigationService()
        context = frozen.query_context
        red = HasValue(EX.color, EX.red)
        frozen.query_engine.count(red)  # warm the extent cache

        def no_interning(self, nodes):
            raise AssertionError("the landing view interned its items")

        monkeypatch.setattr(InternTable, "bits_of", no_interning)
        state = service.initial_state(frozen)
        assert state.view.bits(frozen.graph.interner) is context.universe_bits()
        assert service.preview_count(frozen, state, red) == 20

    def test_landing_over_an_items_subset_reads_its_universe(self):
        # ``items=`` is the universe its query context ranges over.
        items = [EX[f"it{i:02d}"] for i in range(0, 60, 2)]
        workspace = Workspace(_graph(), items=items)
        service = NavigationService()
        state = service.initial_state(workspace)
        interner = workspace.graph.interner
        universe = workspace.query_context.universe_bits()
        assert state.view.bits(interner) is universe
        red = HasValue(EX.color, EX.red)
        count = service.preview_count(workspace, state, red)
        assert count == _naive_count(workspace, red, items) == 10

    def test_a_refine_keeps_its_result_mask(self, frozen, monkeypatch):
        service = NavigationService()
        state = service.initial_state(frozen)
        state = service.apply(
            frozen, state, cmd.Refine(HasValue(EX.size, EX.big))
        ).state
        interner = frozen.graph.interner
        mask = state.view.bits(interner)
        red = HasValue(EX.color, EX.red)
        light = Range(EX.weight, high=29.0)
        for leaf in (red, light):  # warm their extents: no leaf interns
            frozen.query_engine.count(leaf)
        assert popcount(mask) == len(state.view.items) == 30
        assert interner.nodes_of(mask) == set(state.view.items)
        assert list(state.view.items) == sorted(
            state.view.items, key=lambda n: n.n3()
        )

        def no_interning(self, nodes):
            raise AssertionError("a refined view interned its items")

        monkeypatch.setattr(InternTable, "bits_of", no_interning)
        assert service.preview_count(frozen, state, light) == _naive_count(
            frozen, light, state.view.items
        )
        narrower = service.apply(frozen, state, cmd.Refine(red)).state
        assert len(narrower.view.items) == 10

    def test_fuzzy_fallback_interns_lazily(self, frozen):
        service = NavigationService()
        state = service.initial_state(frozen, fuzzy_on_empty=True)
        nothing = And([HasValue(EX.color, EX.red), HasValue(EX.color, EX.blue)])
        state = service.apply(frozen, state, cmd.RunQuery(nothing)).state
        assert state.last_was_fuzzy and state.view.items
        assert "_bits" not in state.view.__dict__
        big = HasValue(EX.size, EX.big)
        assert service.preview_count(frozen, state, big) == _naive_count(
            frozen, big, state.view.items
        )
