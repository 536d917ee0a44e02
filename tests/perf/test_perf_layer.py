"""Tests for the performance substrate: interning, bitsets, stats."""

import random

import pytest

from repro.perf import (
    CacheStats,
    InternTable,
    bits_from_ids,
    iter_ids,
    popcount,
)
from repro.query import HasValue, QueryContext, QueryEngine
from repro.rdf import Graph, Literal, Namespace, RDF
from repro.rdf.terms import BlankNode

EX = Namespace("http://perf.example/")


class TestInternTable:
    def test_ids_are_dense_and_first_seen_ordered(self):
        table = InternTable()
        nodes = [EX.a, EX.b, EX.c]
        assert [table.intern(n) for n in nodes] == [0, 1, 2]
        assert len(table) == 3

    def test_intern_is_idempotent(self):
        table = InternTable()
        first = table.intern(EX.a)
        table.intern(EX.b)
        assert table.intern(EX.a) == first
        assert len(table) == 2

    def test_roundtrip(self):
        table = InternTable()
        nodes = [EX[f"n{i}"] for i in range(50)]
        ids = [table.intern(n) for n in nodes]
        assert [table.node_at(i) for i in ids] == nodes
        assert all(table.id_of(n) == i for n, i in zip(nodes, ids))

    def test_contains(self):
        table = InternTable()
        table.intern(EX.a)
        assert EX.a in table
        assert EX.b not in table

    def test_bits_roundtrip(self):
        table = InternTable()
        for i in range(20):
            table.intern(EX[f"n{i}"])
        subset = {EX.n3, EX.n7, EX.n19}
        mask = table.bits_of(subset)
        assert table.nodes_of(mask) == subset
        assert popcount(mask) == 3

    def test_bits_of_interns_unseen_nodes(self):
        table = InternTable()
        mask = table.bits_of([EX.fresh])
        assert table.nodes_of(mask) == {EX.fresh}


def _n3(node):
    return node.n3()


def _mixed_nodes(rng, count):
    """Resources, blank nodes and literals, in no particular order."""
    kinds = [
        lambda i: EX[f"r{rng.randrange(10**6)}-{i}"],
        lambda i: BlankNode(f"b{rng.randrange(10**6)}-{i}"),
        lambda i: Literal(f"v{rng.randrange(10**6)}-{i}"),
        lambda i: Literal(rng.randrange(-1000, 1000) * 1000 + i),
    ]
    return [rng.choice(kinds)(i) for i in range(count)]


class TestOrdered:
    """``InternTable.ordered`` against the plain sort it replaces."""

    @pytest.mark.parametrize("size", [0, 1, 2, 63, 64, 65, 700])
    def test_random_masks_equal_the_n3_sort(self, size):
        rng = random.Random(size)
        table = InternTable()
        for node in _mixed_nodes(rng, size):
            table.intern(node)
        for density in (0.0, 0.005, 0.02, 0.3, 0.9, 1.0):
            ids = [i for i in range(size) if rng.random() < density]
            mask = bits_from_ids(ids)
            assert table.ordered(mask, _n3) == sorted(
                table.nodes_of(mask), key=_n3
            )

    def test_ids_interned_after_the_rank_fall_back(self):
        rng = random.Random(7)
        table = InternTable()
        for node in _mixed_nodes(rng, 300):
            table.intern(node)
        table.ordered(bits_from_ids(range(300)), _n3)  # builds the rank
        for node in _mixed_nodes(rng, 40):
            table.intern(node)
        for _ in range(20):
            ids = rng.sample(range(340), rng.randrange(1, 340))
            mask = bits_from_ids(ids)
            assert table.ordered(mask, _n3) == sorted(
                table.nodes_of(mask), key=_n3
            )

    def test_a_new_key_builds_a_new_rank(self):
        table = InternTable()
        for i in range(100):
            table.intern(EX[f"n{i:03d}"])
        mask = bits_from_ids(range(0, 100, 3))
        by_n3 = table.ordered(mask, _n3)
        backwards = table.ordered(mask, lambda n: "".join(reversed(n.n3())))
        assert by_n3 == sorted(table.nodes_of(mask), key=_n3)
        assert backwards == sorted(
            table.nodes_of(mask), key=lambda n: "".join(reversed(n.n3()))
        )


class TestBitsetHelpers:
    def test_empty(self):
        assert bits_from_ids([]) == 0
        assert list(iter_ids(0)) == []
        assert popcount(0) == 0

    def test_matches_set_semantics_randomized(self):
        rng = random.Random(20260806)
        for _ in range(50):
            a = set(rng.sample(range(500), rng.randint(0, 60)))
            b = set(rng.sample(range(500), rng.randint(0, 60)))
            bits_a = bits_from_ids(a)
            bits_b = bits_from_ids(b)
            assert set(iter_ids(bits_a & bits_b)) == a & b
            assert set(iter_ids(bits_a | bits_b)) == a | b
            assert set(iter_ids(bits_a & ~bits_b)) == a - b
            assert popcount(bits_a) == len(a)

    def test_iter_ids_ascending(self):
        mask = bits_from_ids([9, 2, 77, 4])
        assert list(iter_ids(mask)) == [2, 4, 9, 77]


class TestCacheStats:
    def test_counters_and_rates(self):
        stats = CacheStats()
        stats.hits += 3
        stats.misses += 1
        assert stats.lookups == 4
        assert stats.hit_rate == pytest.approx(0.75)
        payload = stats.as_dict()
        assert payload["hits"] == 3
        stats.reset()
        assert stats.lookups == 0
        assert stats.hit_rate == 0.0


class TestGraphVersion:
    def test_version_bumps_only_on_effective_change(self):
        graph = Graph()
        v0 = graph.version
        assert graph.add(EX.a, EX.p, Literal("x"))
        v1 = graph.version
        assert v1 > v0
        # re-adding the same triple is a no-op
        assert not graph.add(EX.a, EX.p, Literal("x"))
        assert graph.version == v1
        # removing a missing triple is a no-op
        assert not graph.remove(EX.a, EX.p, Literal("y"))
        assert graph.version == v1
        assert graph.remove(EX.a, EX.p, Literal("x"))
        assert graph.version > v1

    def test_interner_is_stable_across_mutations(self):
        graph = Graph()
        graph.add(EX.a, RDF.type, EX.Doc)
        item_id = graph.interner.intern(EX.a)
        graph.add(EX.b, RDF.type, EX.Doc)
        graph.remove(EX.a, RDF.type, EX.Doc)
        assert graph.interner.id_of(EX.a) == item_id


def _tagged_graph(n: int = 8) -> Graph:
    graph = Graph()
    for i in range(n):
        item = EX[f"d{i}"]
        graph.add(item, RDF.type, EX.Doc)
        graph.add(item, EX.tag, EX.even if i % 2 == 0 else EX.odd)
    return graph


class TestCacheTelemetryOracle:
    """Exact-count oracles: the telemetry must equal what the cache did.

    A single-leaf predicate triggers exactly one extent-cache lookup per
    evaluation, so the expected counter values are computable by hand —
    no ``>=`` slack.  (``universe_bits`` and ``bits_of`` lookups do not
    touch ``cache_stats``; only predicate-extent lookups count.)
    """

    def test_n_identical_evaluations_hit_n_minus_one(self):
        context = QueryContext(_tagged_graph())
        engine = QueryEngine(context)
        predicate = HasValue(EX.tag, EX.even)
        n = 7
        for _ in range(n):
            assert len(engine.evaluate(predicate)) == 4
        stats = context.cache_stats
        assert stats.misses == 1
        assert stats.hits == n - 1
        assert stats.lookups == n
        assert stats.hit_rate == pytest.approx((n - 1) / n)

    def test_count_previews_share_the_same_cache(self):
        context = QueryContext(_tagged_graph())
        engine = QueryEngine(context)
        predicate = HasValue(EX.tag, EX.odd)
        assert len(engine.evaluate(predicate)) == 4
        for _ in range(5):
            assert engine.count(predicate) == 4
        stats = context.cache_stats
        assert stats.misses == 1
        assert stats.hits == 5

    def test_noop_mutation_invalidates_nothing(self):
        from repro.core.workspace import FrozenWorkspaceError

        graph = _tagged_graph()
        context = QueryContext(graph)
        engine = QueryEngine(context)
        predicate = HasValue(EX.tag, EX.even)
        engine.evaluate(predicate)
        # The context sealed the graph: even re-adding an existing
        # triple is refused, and the cached extent keeps serving.
        with pytest.raises(FrozenWorkspaceError):
            graph.add(EX.d0, EX.tag, EX.even)
        engine.evaluate(predicate)
        assert context.cache_stats.misses == 1
        assert context.cache_stats.hits == 1

    def test_workspace_gauges_report_the_oracle_counts(self):
        from repro.browser.session import Session
        from repro.core.workspace import Workspace

        workspace = Workspace(_tagged_graph())
        session = Session(workspace)
        predicate = HasValue(EX.tag, EX.even)
        n = 5
        assert {session.preview_count(predicate) for _ in range(n)} == {4}
        snapshot = session.metrics.snapshot()
        assert snapshot["gauges"]["query.extent_cache.hits"] == n - 1
        assert snapshot["gauges"]["query.extent_cache.misses"] == 1
        assert snapshot["counters"]["session.preview_counts"] == n

    def test_workspace_gauges_track_graph_mutation(self):
        # A change is published as the next epoch, whose workspace
        # re-wires the gauges of the shared registry to its own caches.
        from repro.core.epochs import EpochManager
        from repro.core.workspace import Workspace
        from repro.service.manager import SessionManager
        from repro.store.datom import OP_ASSERT

        epochs = EpochManager(Workspace(_tagged_graph()))
        manager = SessionManager(epochs.current.workspace)
        manager.attach_epochs(epochs)
        session = manager.create("reader")
        predicate = HasValue(EX.tag, EX.even)
        session.preview_count(predicate)
        session.preview_count(predicate)
        epochs.ingest([(OP_ASSERT, EX.d0, EX.note, Literal("updated"))])
        graph = epochs.publish().workspace.graph
        session = manager.sync_session("reader")
        session.preview_count(predicate)
        snapshot = session.metrics.snapshot()
        assert snapshot["gauges"]["query.extent_cache.misses"] == 1
        assert snapshot["gauges"]["query.extent_cache.hits"] == 0
        assert snapshot["gauges"]["graph.version"] == graph.version
