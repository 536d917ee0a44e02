"""Tests for the boolean full-text index."""

import datetime as dt

import pytest

from repro.index import TextIndex
from repro.rdf import Graph, Literal, Namespace, RDF

EX = Namespace("http://ti.example/")


@pytest.fixture()
def index():
    g = Graph()
    g.add(EX.d1, RDF.type, EX.Doc)
    g.add(EX.d1, EX.title, Literal("software cost estimation"))
    g.add(EX.d1, EX.body, Literal("we estimate the costs of software"))
    g.add(EX.d2, RDF.type, EX.Doc)
    g.add(EX.d2, EX.title, Literal("image compression"))
    g.add(EX.d2, EX.body, Literal("software for compressing images"))
    g.add(EX.d2, EX.when, Literal(dt.date(2003, 7, 31)))
    g.add(EX.d2, EX.count, Literal(42))
    idx = TextIndex(g)
    idx.index_items([EX.d1, EX.d2])
    return idx


class TestSearch:
    def test_single_token(self, index):
        assert index.search("software") == {EX.d1, EX.d2}

    def test_and_semantics(self, index):
        assert index.search("software cost") == {EX.d1}

    def test_stemming_applies(self, index):
        # 'estimation' vs 'estimate', 'costs' vs 'cost'
        assert index.search("estimating costs") == {EX.d1}

    def test_no_match(self, index):
        assert index.search("wavelet") == set()

    def test_empty_query(self, index):
        assert index.search("") == set()

    def test_stop_word_only_query(self, index):
        assert index.search("the of and") == set()

    def test_within_property(self, index):
        assert index.search("software", within=EX.title) == {EX.d1}
        assert index.search("software", within=EX.body) == {EX.d1, EX.d2}

    def test_within_unknown_property(self, index):
        assert index.search("software", within=EX.missing) == set()


class TestIndexing:
    def test_numeric_and_temporal_values_skipped(self, index):
        assert index.search("42") == set()
        assert index.search("2003") == set()

    def test_items_with_token(self, index):
        stem = index.analyzer.stem_token("software")
        assert index.items_with_token(stem) == {EX.d1, EX.d2}

    def test_token_frequencies(self, index):
        freqs = index.token_frequencies()
        assert freqs[index.analyzer.stem_token("software")] == 2

    def test_text_properties_listing(self, index):
        assert EX.title in index.text_properties()
        assert EX.when not in index.text_properties()

    def test_indexed_items(self, index):
        assert index.indexed_items == {EX.d1, EX.d2}

    def test_incremental_add(self, index):
        g = index.graph
        g.add(EX.d3, EX.title, Literal("software patterns"))
        index.index_item(EX.d3)
        assert EX.d3 in index.search("software")


def _advance(index, graph, items, dirty=()):
    return TextIndex.advance(index, graph, items, set(dirty))


class TestReindexAndUnindex:
    """Regression: an advanced index must withdraw stale postings."""

    def test_mutate_then_reindex_drops_stale_postings(self, index):
        # d1's title changes: "software cost estimation" -> "garden news".
        g = index.graph.fork()
        g.remove(EX.d1, EX.title, Literal("software cost estimation"))
        g.remove(EX.d1, EX.body, Literal("we estimate the costs of software"))
        g.add(EX.d1, EX.title, Literal("garden news"))
        index = _advance(index, g, [EX.d1, EX.d2], {EX.d1})
        # The stale item must no longer match tokens it dropped...
        assert index.search("cost") == set()
        assert index.search("estimation") == set()
        assert EX.d1 not in index.search("software")
        assert index.search("software", within=EX.title) == set()
        # ...and must match its new values.
        assert index.search("garden") == {EX.d1}

    def test_reindex_unchanged_item_is_idempotent(self, index):
        before_vocab = index.vocabulary_size()
        before = index.search("software")
        index = _advance(index, index.graph, [EX.d1, EX.d2], {EX.d1})
        assert index.search("software") == before
        assert index.vocabulary_size() == before_vocab
        freqs = index.token_frequencies()
        assert freqs[index.analyzer.stem_token("software")] == 2

    def test_unindex_item(self, index):
        index = _advance(index, index.graph, [EX.d2])
        assert index.search("cost") == set()
        assert index.search("software") == {EX.d2}
        assert index.indexed_items == {EX.d2}
        # Emptied structures are pruned.
        assert index.analyzer.stem_token("estimation") not in dict(
            index.token_frequencies()
        )
        assert EX.d1 not in index.search("software", within=EX.body)

    def test_unindex_unknown_item_is_a_noop(self, index):
        index = _advance(index, index.graph, [EX.d1, EX.d2], {EX.d9})
        assert index.indexed_items == {EX.d1, EX.d2}
        assert index.search("software") == {EX.d1, EX.d2}

    def test_token_frequencies_shrink_on_reindex(self, index):
        # Before the fix, frequencies only ever grew (stale postings).
        g = index.graph.fork()
        g.remove(EX.d2, EX.body, Literal("software for compressing images"))
        index = _advance(index, g, [EX.d1, EX.d2], {EX.d2})
        freqs = index.token_frequencies()
        assert freqs[index.analyzer.stem_token("software")] == 1
        assert index.search("compression", within=EX.body) == set()

    def test_text_properties_pruned_when_property_empties(self):
        g = Graph()
        g.add(EX.d1, EX.note, Literal("only value"))
        idx = TextIndex(g)
        idx.index_item(EX.d1)
        assert idx.text_properties() == [EX.note]
        fork = g.fork()
        fork.remove(EX.d1, EX.note, Literal("only value"))
        assert _advance(idx, fork, [EX.d1], {EX.d1}).text_properties() == []
        assert idx.text_properties() == [EX.note]
