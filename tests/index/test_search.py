"""Tests for top-k retrieval."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import InvertedIndex, top_k
from repro.vsm import SparseVector


@pytest.fixture()
def index():
    idx = InvertedIndex()
    idx.add("d1", [("a", 1.0), ("b", 0.5)])
    idx.add("d2", [("a", 0.2)])
    idx.add("d3", [("b", 1.0), ("c", 1.0)])
    return idx


class TestTopK:
    def test_scores_are_dot_products(self, index):
        hits = top_k(index, SparseVector({"a": 1.0, "b": 1.0}), 3)
        scores = {h.item: h.score for h in hits}
        assert scores["d1"] == pytest.approx(1.5)
        assert scores["d3"] == pytest.approx(1.0)
        assert scores["d2"] == pytest.approx(0.2)

    def test_ranked_descending(self, index):
        hits = top_k(index, SparseVector({"a": 1.0, "b": 1.0}), 3)
        assert [h.item for h in hits] == ["d1", "d3", "d2"]

    def test_k_limits(self, index):
        assert len(top_k(index, SparseVector({"a": 1.0}), 1)) == 1

    def test_k_zero(self, index):
        assert top_k(index, SparseVector({"a": 1.0}), 0) == []

    def test_empty_query(self, index):
        assert top_k(index, SparseVector(), 5) == []

    def test_only_overlapping_docs_scored(self, index):
        hits = top_k(index, SparseVector({"c": 1.0}), 10)
        assert [h.item for h in hits] == ["d3"]

    def test_exclude_filter(self, index):
        hits = top_k(
            index, SparseVector({"a": 1.0}), 10, exclude=lambda d: d == "d1"
        )
        assert [h.item for h in hits] == ["d2"]

    def test_tie_break_deterministic(self):
        idx = InvertedIndex()
        idx.add("x", [("a", 1.0)])
        idx.add("y", [("a", 1.0)])
        hits = top_k(idx, SparseVector({"a": 1.0}), 2)
        assert [h.item for h in hits] == ["x", "y"]


def _brute_force(index, query, k, exclude=None):
    """Score every document in query order, then sort (score, repr)."""
    scores = {}
    for coord, q_weight in query.items():
        for item, d_weight in index.postings(coord).items():
            scores[item] = scores.get(item, 0.0) + q_weight * d_weight
    ranked = sorted(
        (
            (item, score)
            for item, score in scores.items()
            if exclude is None or not exclude(item)
        ),
        key=lambda pair: (-pair[1], repr(pair[0])),
    )
    return ranked[: max(k, 0)]


def _random_index(rng, n_docs, n_coords, weight=None):
    idx = InvertedIndex()
    for d in range(n_docs):
        coords = rng.sample(range(n_coords), rng.randint(1, n_coords))
        idx.add(
            f"d{d:03d}",
            [
                (f"c{c}", weight if weight is not None else rng.uniform(0.01, 2.0))
                for c in coords
            ],
        )
    return idx


def _pairs(hits):
    # scores compared exactly, not approx: accumulation order is pinned
    return [(hit.item, hit.score) for hit in hits]


class TestTopKSelection:
    """Heap selection equals a full sort, ties and edges included."""

    def test_ties_at_the_kth_place_break_on_repr(self):
        idx = InvertedIndex()
        for d in range(20):
            idx.add(f"d{d:02d}", [("shared", 1.0)])
        query = SparseVector({"shared": 1.0})
        for k in (1, 5, 19, 20):
            hits = top_k(idx, query, k)
            assert [h.item for h in hits] == [f"d{d:02d}" for d in range(k)]

    def test_all_equal_scores_across_many_coords(self):
        rng = random.Random(7)
        idx = _random_index(rng, 30, 6, weight=0.25)
        query = SparseVector({f"c{c}": 1.0 for c in range(6)})
        for k in (1, 7, 30):
            assert _pairs(top_k(idx, query, k)) == _brute_force(idx, query, k)

    def test_k_at_least_corpus_size(self):
        rng = random.Random(11)
        idx = _random_index(rng, 12, 5)
        query = SparseVector({f"c{c}": rng.uniform(0.1, 1.0) for c in range(5)})
        for k in (12, 13, 500):
            hits = top_k(idx, query, k)
            assert len(hits) == 12
            assert _pairs(hits) == _brute_force(idx, query, k)

    def test_exclude_never_leaks_and_backfills(self):
        rng = random.Random(23)
        idx = _random_index(rng, 40, 6)
        query = SparseVector({f"c{c}": 1.0 for c in range(6)})
        exclude = lambda item: item.endswith(("0", "5"))  # noqa: E731
        hits = top_k(idx, query, 8, exclude=exclude)
        assert len(hits) == 8
        assert not any(exclude(h.item) for h in hits)
        assert _pairs(hits) == _brute_force(idx, query, 8, exclude)

    def test_negative_weights_rank_exactly(self):
        idx = InvertedIndex()
        idx.add("d1", [("a", -0.5), ("b", 1.0)])
        idx.add("d2", [("a", 1.0)])
        query = SparseVector({"a": 1.0, "b": 1.0})
        assert _pairs(top_k(idx, query, 2)) == [("d2", 1.0), ("d1", 0.5)]
        hits = top_k(idx, SparseVector({"a": -1.0}), 1)
        assert _pairs(hits) == [("d1", 0.5)]

    def test_empty_index_and_non_positive_k(self):
        empty = InvertedIndex()
        assert top_k(empty, SparseVector({"a": 1.0}), 5) == []
        idx = InvertedIndex()
        idx.add("d1", [("a", 1.0)])
        assert top_k(idx, SparseVector({"a": 1.0}), -1) == []
        assert top_k(idx, SparseVector({"ghost": 1.0}), 5) == []

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=25),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_ranking(self, seed, k):
        rng = random.Random(seed)
        idx = _random_index(rng, rng.randint(1, 40), rng.randint(1, 8))
        query = SparseVector(
            {f"c{c}": rng.uniform(0.0, 2.0) for c in range(rng.randint(1, 8))}
        )
        assert _pairs(top_k(idx, query, k)) == _brute_force(idx, query, k)
