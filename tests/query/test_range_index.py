"""The sorted per-property range index behind ``Range`` leaves.

``Range`` extents come from :class:`RangeIndex` bisection; per-item
``Range.matches`` (through ``naive_extent``) stays the oracle.  The
graph below is built to hit every reading rule at once: multi-valued
items, resource objects, unparseable and non-finite literals, dates,
date-times, integers and decimals, and equal readings from distinct
literals.
"""

import datetime as dt
import math
import threading
from array import array
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.reference import naive_extent
from repro.core.epochs import EpochManager
from repro.core.workspace import Workspace
from repro.query import QueryContext, QueryEngine, Range
from repro.perf.bitset import bits_from_ids
from repro.query.ast import RangeIndex
from repro.rdf import Graph, Literal, Namespace, RDF
from repro.rdf.terms import XSD_DECIMAL
from repro.store.datom import OP_ASSERT

EX = Namespace("http://ri.example/")

INF = math.inf

#: A range bound: open, any float (NaN and ±inf included) or one near
#: the readings below.
_bounds = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-60, 60).map(float),
)


def _graph() -> Graph:
    g = Graph()
    rows = {
        "a": [Literal(3)],
        "b": [Literal(1), Literal(7)],  # multi-valued
        "c": [Literal("2.5", datatype=XSD_DECIMAL), EX.big],  # + a resource
        "d": [Literal("nan")],
        "e": [Literal("inf")],
        "f": [Literal("-inf"), Literal(2)],
        "g": [Literal("n/a")],
        "h": [EX.small],  # resource only
        "i": [Literal("3")],  # untyped, equal reading to a's integer
        "j": [Literal(-4.25)],
        "k": [Literal("nan"), Literal(5)],
    }
    for name, values in rows.items():
        item = EX[name]
        g.add(item, RDF.type, EX.Doc)
        for value in values:
            g.add(item, EX.size, value)
    dates = {
        "p": dt.date(2003, 7, 1),
        "q": dt.date(2003, 7, 31),
        "r": dt.datetime(2003, 7, 15, 12, 0, 0),
        "s": dt.datetime(2003, 7, 31, 23, 59, 59),
    }
    for name, when in dates.items():
        item = EX[name]
        g.add(item, RDF.type, EX.Doc)
        g.add(item, EX.sent, Literal(when))
    g.add(EX.a, EX.colour, EX.red)
    return g


def _day(year, month, day) -> float:
    return float(dt.date(year, month, day).toordinal())


SIZE_RANGES = [
    (None, 3.0),
    (3.0, None),
    (3.0, 3.0),  # point range on a reading two items share
    (2.5, 2.5),  # point range on a decimal reading
    (2.6, 2.9),  # between readings: empty
    (1.0, 7.0),  # bounds equal to readings
    (-INF, None),
    (None, INF),
    (-INF, INF),
    (INF, INF),
    (-INF, -INF),
    (-INF, 0.0),
    (0.0, INF),
    (-4.25, -4.25),
    (100.0, None),
    (None, -100.0),
    (-1e308, 1e308),
]

SENT_RANGES = [
    (_day(2003, 7, 1), _day(2003, 7, 1)),
    (_day(2003, 7, 1), _day(2003, 7, 31)),
    (_day(2003, 7, 31), None),
    (None, _day(2003, 7, 15) + 0.5),
    (_day(2003, 7, 15) + 0.5, _day(2003, 7, 15) + 0.5),
]


@pytest.fixture()
def engine():
    return QueryEngine(QueryContext(_graph()))


class TestAgainstNaiveExtent:
    @pytest.mark.parametrize("low,high", SIZE_RANGES)
    def test_numeric_ranges(self, engine, low, high):
        predicate = Range(EX.size, low=low, high=high)
        context = engine.context
        want = naive_extent(predicate, context.universe, context)
        assert engine.evaluate(predicate) == want
        assert engine.count(predicate) == len(want)
        assert predicate.candidates(context) == want

    @pytest.mark.parametrize("low,high", SENT_RANGES)
    def test_temporal_ranges(self, engine, low, high):
        predicate = Range(EX.sent, low=low, high=high)
        context = engine.context
        want = naive_extent(predicate, context.universe, context)
        assert want, "every temporal range here selects something"
        assert engine.evaluate(predicate) == want
        assert engine.count(predicate) == len(want)

    def test_within_restricts(self, engine):
        predicate = Range(EX.size, low=2.0, high=5.0)
        within = [EX.a, EX.b, EX.f, EX.k]
        want = naive_extent(predicate, set(within), engine.context)
        assert engine.evaluate(predicate, within) == want
        assert engine.count(predicate, within) == len(want)

    def test_reading_rules(self, engine):
        context = engine.context
        # NaN never matches, ±inf match the matching infinite bound,
        # unparseable literals and resources never match.
        everything = engine.evaluate(Range(EX.size, low=-INF))
        assert EX.d not in everything
        assert EX.g not in everything and EX.h not in everything
        assert {EX.e, EX.f, EX.k} <= everything
        assert engine.evaluate(Range(EX.size, low=INF)) == {EX.e}
        assert engine.evaluate(Range(EX.size, high=-INF)) == {EX.f}
        assert engine.evaluate(Range(EX.size, low=3, high=3)) == {EX.a, EX.i}
        # one entry per reading: b holds 1 and 7, f holds -inf and 2
        index = context.range_index(EX.size)
        assert len(index.values) == len(index.ids) == 10
        assert list(index.values) == sorted(index.values)

    def test_property_without_readings(self, engine):
        assert engine.evaluate(Range(EX.colour, low=0)) == set()
        assert engine.evaluate(Range(EX.missing, high=0)) == set()

    def test_nan_bound_leaves_its_side_open(self, engine):
        # matches() compares False against a NaN bound, so it filters
        # nothing on that side; the index must agree.
        context = engine.context
        predicate = Range(EX.size, low=math.nan, high=3.0)
        want = naive_extent(predicate, context.universe, context)
        assert engine.evaluate(predicate) == want


class TestInvalidation:
    """A changed graph is a new sealed snapshot with indexes of its own."""

    def test_add_and_remove_rebuild(self):
        g = _graph()
        context = QueryContext(g)
        wide = Range(EX.size, low=0.0, high=10.0)
        before = context.range_index(EX.size)
        assert EX.z not in wide.candidates(context)

        # A fork takes the writes.  Its context's universe is the typed
        # subjects, so look at the raw extent for the untyped EX.z.
        grown = g.fork()
        grown.add(EX.z, EX.size, Literal(6))
        engine = QueryEngine(QueryContext(grown))
        added = engine.context
        assert added.range_index(EX.size) is not before
        assert EX.z in wide.candidates(added)
        assert engine.evaluate(wide) == naive_extent(
            wide, added.universe, added
        )

        built = added.range_index(EX.size)
        shrunk = grown.fork()
        shrunk.remove(EX.b, EX.size, Literal(7))
        shrunk.remove(EX.b, EX.size, Literal(1))
        engine = QueryEngine(QueryContext(shrunk))
        removed = engine.context
        assert removed.range_index(EX.size) is not built
        assert EX.b not in engine.evaluate(wide)
        assert engine.evaluate(wide) == naive_extent(
            wide, removed.universe, removed
        )
        assert context.range_index(EX.size) is before
        assert EX.z not in wide.candidates(context)

    def test_unchanged_graph_reuses_the_index(self, engine):
        context = engine.context
        first = context.range_index(EX.size)
        engine.evaluate(Range(EX.size, low=1))
        engine.evaluate(Range(EX.size, low=2))
        assert context.range_index(EX.size) is first

    def test_workspace_add_item(self):
        workspace = Workspace(_graph())
        wide = Range(EX.size, low=0.0)
        assert EX.z not in workspace.query_engine.evaluate(wide)
        before = workspace.query_context.range_index(EX.size)

        epochs = EpochManager(workspace)
        epochs.ingest(
            [
                (OP_ASSERT, EX.z, RDF.type, EX.Doc),
                (OP_ASSERT, EX.z, EX.size, Literal(9)),
            ]
        )
        grown = epochs.publish().workspace
        engine = grown.query_engine
        context = grown.query_context
        assert EX.z in engine.evaluate(wide)
        assert context.range_index(EX.size) is not before
        assert engine.evaluate(wide) == naive_extent(
            wide, context.universe, context
        )


class TestLaziness:
    def test_only_range_filtered_properties_get_an_index(self, engine):
        context = engine.context
        engine.evaluate(Range(EX.size, low=1.0))
        assert set(context._range_indexes) == {EX.size}
        engine.count(Range(EX.sent, high=_day(2004, 1, 1)))
        assert set(context._range_indexes) == {EX.size, EX.sent}

    def test_nothing_built_before_the_first_range(self):
        workspace = Workspace(_graph())
        assert workspace.query_context._range_indexes == {}


class TestConcurrency:
    def test_eight_threads_share_one_build(self, monkeypatch):
        g = _graph()
        context = QueryContext(g)
        engine = QueryEngine(context)
        builds = []
        original = RangeIndex.build.__func__

        def counting_build(cls, graph, prop):
            builds.append(prop)
            return original(cls, graph, prop)

        monkeypatch.setattr(RangeIndex, "build", classmethod(counting_build))
        predicate = Range(EX.size, low=0.0, high=5.0)
        barrier = threading.Barrier(8)
        results = [None] * 8

        def worker(slot):
            barrier.wait()
            # bypass the extent cache so every thread reads the index
            results[slot] = predicate.candidates(context)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        want = naive_extent(predicate, context.universe, context)
        assert all(result == want for result in results)
        assert builds == [EX.size]
        assert engine.evaluate(predicate) == want


class TestBlockMasks:
    """``RangeIndex.bits`` ORs whole 64-reading blocks plus two partial
    slices; the plain id-slice mask between the bisections is the oracle."""

    @staticmethod
    def _index(readings):
        values = array("d", sorted(r for r, _ in readings))
        ids = array("q", [i for _, i in sorted(readings)])
        return RangeIndex(values, ids)

    @staticmethod
    def _slice_bits(index, low, high):
        values = index.values
        start = 0 if low is None else bisect_left(values, low)
        end = len(values) if high is None else bisect_right(values, high)
        return bits_from_ids(index.ids[start:end])

    @given(
        st.lists(
            st.tuples(
                st.integers(-50, 50).map(float), st.integers(0, 400)
            ),
            max_size=300,
        ),
        _bounds,
        _bounds,
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_id_slice_mask(self, readings, low, high):
        index = self._index(readings)
        assert index.bits(low, high) == self._slice_bits(index, low, high)

    def test_edges_of_a_multi_block_index(self):
        readings = [(float(v // 3), (v * 37) % 500) for v in range(400)]
        index = self._index(readings)
        assert len(index.blocks) == 400 // RangeIndex.BLOCK
        bounds = [None, -INF, INF, math.nan, -1.0, 0.0, 21.0, 21.5, 64.0,
                  133.0, 134.0]
        for low in bounds:
            for high in bounds:
                assert index.bits(low, high) == self._slice_bits(
                    index, low, high
                ), (low, high)
        assert index.bits(None, None) == bits_from_ids(index.ids)
        assert index.bits(5.0, 4.0) == 0
