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
        hits = top_k(index, SparseVector({"a": 1.0}), 10, exclude={"d1"})
        assert [h.item for h in hits] == ["d2"]

    def test_tie_break_deterministic(self):
        idx = InvertedIndex()
        idx.add("x", [("a", 1.0)])
        idx.add("y", [("a", 1.0)])
        hits = top_k(idx, SparseVector({"a": 1.0}), 2)
        assert [h.item for h in hits] == ["x", "y"]


def _brute_force(index, query, k, exclude=()):
    """Score every document in query order, then sort (score, repr)."""
    scores = {}
    for coord, q_weight in query.items():
        for item, d_weight in index.postings(coord).items():
            scores[item] = scores.get(item, 0.0) + q_weight * d_weight
    ranked = sorted(
        (
            (item, score)
            for item, score in scores.items()
            if item not in exclude
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
        exclude = {d for d in idx.documents() if d.endswith(("0", "5"))}
        hits = top_k(idx, query, 8, exclude=exclude)
        assert len(hits) == 8
        assert not any(h.item in exclude for h in hits)
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


def _id_tables(idx):
    """The index's private id state as plain structures."""
    return (
        {coord: dict(bucket) for coord, bucket in idx._postings.items()},
        dict(idx._ids),
        list(idx._items),
        list(idx._free),
    )


class TestIdKeyedChurn:
    """Seeded add / re-add / remove sequences against a plain
    ``{item: {coord: weight}}`` oracle: retrieval, postings and the
    interned-id tables stay consistent at every step."""

    N_COORDS = 8

    def _entries(self, rng):
        coords = rng.sample(range(self.N_COORDS), rng.randint(1, 5))
        # Some zero weights: skipped by the index, absent from the oracle.
        return [(f"c{c}", rng.choice([0.0, rng.uniform(-0.5, 2.0)])) for c in coords]

    def _check(self, idx, oracle, rng):
        assert len(idx) == len(oracle)
        assert list(idx.documents()) == list(oracle)
        for c in range(self.N_COORDS):
            coord = f"c{c}"
            want = {
                item: vec[coord] for item, vec in oracle.items() if coord in vec
            }
            assert idx.postings(coord) == want
            assert idx.document_frequency(coord) == len(want)
        # Every id is either live or free, exactly once.
        live = list(idx._ids.values())
        assert sorted(live + idx._free) == list(range(len(idx._items)))
        assert all(idx._items[doc] == item for item, doc in idx._ids.items())
        query = SparseVector(
            {f"c{c}": rng.uniform(-1.0, 2.0) for c in rng.sample(range(self.N_COORDS), 3)}
        )
        exclude = set(rng.sample(sorted(oracle), min(len(oracle), 3)))
        exclude.add("never-indexed")
        for k in (1, 4, 50):
            assert _pairs(top_k(idx, query, k)) == _brute_force(idx, query, k)
            assert _pairs(top_k(idx, query, k, exclude=exclude)) == _brute_force(
                idx, query, k, exclude
            )

    def _step(self, idx, oracle, rng, serial):
        roll = rng.random()
        if roll < 0.45 or not oracle:
            item = f"d{serial:04d}"
            entries = self._entries(rng)
        elif roll < 0.7:
            item = rng.choice(sorted(oracle))
            entries = self._entries(rng)
        else:
            item = rng.choice(sorted(oracle) + ["ghost"])
            assert idx.remove(item) is (item in oracle)
            oracle.pop(item, None)
            return
        idx.add(item, entries)
        oracle.pop(item, None)  # a re-added document moves to the end
        oracle[item] = {coord: weight for coord, weight in entries if weight}

    @pytest.mark.parametrize("seed", range(6))
    def test_churn_matches_oracle(self, seed):
        rng = random.Random(seed)
        idx, oracle = InvertedIndex(), {}
        for serial in range(120):
            self._step(idx, oracle, rng, serial)
            self._check(idx, oracle, rng)

    def test_removed_ids_are_reused(self):
        idx = InvertedIndex()
        for d in range(4):
            idx.add(f"d{d}", [("a", 1.0)])
        freed = idx._ids["d1"]
        idx.remove("d1")
        idx.add("fresh", [("a", 0.5)])
        assert idx._ids["fresh"] == freed
        assert len(idx._items) == 4 and not idx._free
        # A re-add keeps the table size too.
        idx.add("d2", [("b", 1.0)])
        assert len(idx._items) == 4
        assert idx.postings("a") == {"d0": 1.0, "d3": 1.0, "fresh": 0.5}
        assert _pairs(top_k(idx, SparseVector({"a": 1.0}), 10)) == [
            ("d0", 1.0), ("d3", 1.0), ("fresh", 0.5),
        ]

    def test_clear_resets_ids(self):
        idx = InvertedIndex()
        idx.add("d0", [("a", 1.0)])
        idx.remove("d0")
        idx.add("d1", [("a", 1.0)])
        idx.clear()
        assert _id_tables(idx) == ({}, {}, [], [])
        idx.add("d2", [("a", 1.0)])
        assert idx._ids == {"d2": 0}
