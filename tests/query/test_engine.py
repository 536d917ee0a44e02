"""Tests for query evaluation and the extension mechanism."""

import pytest

from repro.index import TextIndex
from repro.query import (
    And,
    Cardinality,
    HasValue,
    Not,
    Predicate,
    QueryContext,
    QueryEngine,
    Range,
    TextMatch,
)
from repro.rdf import Graph, Literal, Namespace, RDF

EX = Namespace("http://qe.example/")


@pytest.fixture()
def engine():
    g = Graph()
    for i in range(10):
        item = EX[f"d{i}"]
        g.add(item, RDF.type, EX.Doc)
        g.add(item, EX.parity, EX.even if i % 2 == 0 else EX.odd)
        g.add(item, EX.value, Literal(i))
        g.add(item, EX.text, Literal(f"document number {i}"))
    text_index = TextIndex(g)
    text_index.index_items(list(g.items_of_type(EX.Doc)))
    return QueryEngine(QueryContext(g, text_index=text_index))


class TestEvaluate:
    def test_full_universe(self, engine):
        assert len(engine.evaluate(HasValue(EX.parity, EX.even))) == 5

    def test_within_restricts(self, engine):
        within = [EX.d0, EX.d1, EX.d2]
        result = engine.evaluate(HasValue(EX.parity, EX.even), within=within)
        assert result == {EX.d0, EX.d2}

    def test_filter_fallback_for_non_enumerable(self, engine):
        """Cardinality has no candidates(); engine filters the universe."""
        result = engine.evaluate(Cardinality(EX.value, at_least=1))
        assert len(result) == 10

    def test_mixed_and_falls_back(self, engine):
        p = And([HasValue(EX.parity, EX.even), Cardinality(EX.value, at_least=1)])
        assert len(engine.evaluate(p)) == 5

    def test_negation_against_universe(self, engine):
        assert len(engine.evaluate(Not(HasValue(EX.parity, EX.even)))) == 5

    def test_count(self, engine):
        assert engine.count(HasValue(EX.parity, EX.odd)) == 5

    def test_matches_single(self, engine):
        assert engine.matches(HasValue(EX.parity, EX.even), EX.d4)

    def test_text_match_via_external_index(self, engine):
        assert engine.evaluate(TextMatch("number")) == set(
            engine.context.universe
        )


class TestExtensions:
    def test_extension_overrides_default(self, engine):
        calls = []

        def fake(predicate, context):
            calls.append(predicate)
            return {EX.d0}

        engine.register_extension(HasValue, fake)
        assert engine.evaluate(HasValue(EX.parity, EX.even)) == {EX.d0}
        assert calls

    def test_extension_none_defers(self, engine):
        engine.register_extension(HasValue, lambda p, c: None)
        assert len(engine.evaluate(HasValue(EX.parity, EX.even))) == 5

    def test_extension_for_custom_predicate(self, engine):
        class ValueIsSquare(Predicate):
            def _key(self):
                return ()

            def matches(self, item, context):  # pragma: no cover
                raise AssertionError("extension should answer first")

            def describe(self, context):
                return "square"

        engine.register_extension(
            ValueIsSquare,
            lambda p, c: {EX.d0, EX.d1, EX.d4, EX.d9},
        )
        assert len(engine.evaluate(ValueIsSquare())) == 4

    def test_non_predicate_type_rejected(self, engine):
        with pytest.raises(TypeError):
            engine.register_extension(int, lambda p, c: set())


class TestExtentCacheBound:
    def test_distinct_ranges_stay_within_the_cap(self, engine):
        # Slider previews mint a fresh Range per stop; the cache must
        # evict the least recently used extents instead of growing, and
        # a leaf that keeps being asked for must stay cached.
        from repro.query.ast import EXTENT_CACHE_CAP

        context = engine.context
        stats = context.cache_stats
        even = HasValue(EX.parity, EX.even)
        assert len(engine.evaluate(even)) == 5
        for step in range(10_000):
            engine.count(Range(EX.value, low=step / 1000.0))
            if step % 100 == 99:
                misses = stats.misses
                assert len(engine.evaluate(even)) == 5
                assert stats.misses == misses, "value leaf was evicted"
            assert len(context._extent_cache) <= EXTENT_CACHE_CAP
        assert stats.evictions == 10_001 - EXTENT_CACHE_CAP
        assert len(context._extent_cache) == EXTENT_CACHE_CAP
