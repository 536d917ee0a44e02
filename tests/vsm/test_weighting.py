"""Tests for tf.idf weighting and corpus statistics (§5.2)."""

import math

import pytest

from repro.vsm import CorpusStats, idf, term_weight


class TestIdf:
    def test_formula(self):
        assert idf(100, 10) == pytest.approx(math.log(10))

    def test_term_in_every_doc_is_zero(self):
        """Ubiquitous attribute values are ignored (§5.2)."""
        assert idf(100, 100) == 0.0

    def test_unseen_term_is_zero(self):
        assert idf(100, 0) == 0.0

    def test_empty_corpus_is_zero(self):
        assert idf(0, 0) == 0.0

    def test_rarer_terms_weigh_more(self):
        assert idf(100, 1) > idf(100, 50)


class TestTermWeight:
    def test_paper_formula(self):
        expected = math.log(3.0 + 1.0) * math.log(100 / 10)
        assert term_weight(3.0, 100, 10) == pytest.approx(expected)

    def test_zero_frequency(self):
        assert term_weight(0.0, 100, 10) == 0.0

    def test_log_damping_of_frequency(self):
        w1 = term_weight(1.0, 100, 10)
        w10 = term_weight(10.0, 100, 10)
        assert w10 < 10 * w1  # sub-linear in frequency


class TestCorpusStats:
    def test_add_document(self):
        stats = CorpusStats()
        stats.add_document(["a", "b"])
        stats.add_document(["b"])
        assert stats.num_docs == 2
        assert stats.doc_frequency("a") == 1
        assert stats.doc_frequency("b") == 2

    def test_remove_document(self):
        stats = CorpusStats()
        stats.add_document(["a", "b"])
        stats.add_document(["b"])
        advanced = CorpusStats.advance(stats, [["a", "b"]], [])
        assert advanced.num_docs == 1
        assert advanced.doc_frequency("a") == 0
        assert advanced.doc_frequency("b") == 1

    def test_remove_drops_zero_entries(self):
        stats = CorpusStats()
        stats.add_document(["a"])
        assert CorpusStats.advance(stats, [["a"]], []).vocabulary_size() == 0

    def test_advance_equals_a_cold_count_and_leaves_prior_alone(self):
        docs = [["a", "b"], ["b", "c"], ["c"], ["a", "d"]]
        prior = CorpusStats()
        for coords in docs:
            prior.add_document(coords)
        advanced = CorpusStats.advance(prior, [docs[1], docs[3]], [["b", "e"]])
        cold = CorpusStats()
        for coords in (docs[0], docs[2], ["b", "e"]):
            cold.add_document(coords)
        assert advanced.num_docs == cold.num_docs == 3
        assert advanced._df == cold._df
        assert prior.num_docs == 4
        assert prior._df == {"a": 2, "b": 2, "c": 2, "d": 1}

    def test_idf_uses_current_stats(self):
        stats = CorpusStats()
        stats.add_document(["a"])
        stats.add_document(["b"])
        assert stats.idf("a") == pytest.approx(math.log(2))
