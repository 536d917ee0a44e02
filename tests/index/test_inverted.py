"""Tests for the inverted index."""

import pytest

from repro.index import InvertedIndex


class TestInvertedIndex:
    def test_add_and_postings(self):
        idx = InvertedIndex()
        idx.bulk_load([("d1", [("a", 0.5), ("b", 0.3)])])
        assert idx.postings("a") == {"d1": 0.5}

    def test_zero_weights_skipped(self):
        idx = InvertedIndex()
        idx.bulk_load([("d1", [("a", 0.0)])])
        assert idx.postings("a") == {}
        assert "d1" in idx  # document is known, just empty

    def test_reloading_a_document_raises(self):
        idx = InvertedIndex()
        idx.bulk_load([("d1", [("a", 0.5)])])
        with pytest.raises(ValueError):
            idx.bulk_load([("d1", [("b", 0.7)])])
        with pytest.raises(ValueError):
            InvertedIndex().bulk_load([("d2", []), ("d2", [])])

    def test_doc_ids_are_insertion_positions(self):
        idx = InvertedIndex()
        assert idx.bulk_load([("d0", [("a", 1.0)]), ("d1", [("b", 1.0)])]) == 2
        assert idx.bulk_load([("d2", [("a", 0.5)])]) == 1
        assert idx._ids == {"d0": 0, "d1": 1, "d2": 2}
        assert idx._items == ["d0", "d1", "d2"]
        assert list(idx.documents()) == ["d0", "d1", "d2"]

    def test_document_frequency(self):
        idx = InvertedIndex()
        idx.bulk_load([("d1", [("a", 0.5)]), ("d2", [("a", 0.1)])])
        assert idx.document_frequency("a") == 2
        assert idx.document_frequency("zzz") == 0

    def test_iteration(self):
        idx = InvertedIndex()
        idx.bulk_load([("d1", [("a", 0.5), ("b", 0.1)])])
        assert set(idx.coordinates()) == {"a", "b"}
        assert set(idx.documents()) == {"d1"}
