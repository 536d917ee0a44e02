"""Bitset engine ≡ naive evaluation, over randomized predicate trees.

The bitset extent cache is pure optimization: for any predicate tree the
result set must be *identical* to ``naive_extent`` — set algebra over
per-item ``matches``, the differential harness's oracle.  These tests
generate seeded-random And/Or/Not trees over the recipe corpus — with
``within=`` restrictions, degenerate combinators, adversarial range
bounds and extension predicates mixed in — check the engine against the
oracle, then exercise cache invalidation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.reference import naive_extent
from repro.query import (
    And,
    Cardinality,
    HasProperty,
    HasValue,
    Not,
    Or,
    QueryContext,
    QueryEngine,
    Range,
    TextMatch,
    TypeIs,
    ValueIn,
)
from repro.rdf import Graph, Literal, Namespace, RDF
from repro.store.datom import OP_ASSERT, OP_RETRACT

EX = Namespace("http://bitset.example/")

NAN = float("nan")
INF = float("inf")


@pytest.fixture(scope="module")
def setting(recipe_workspace):
    """(context, engine) over the recipe corpus."""
    context = recipe_workspace.query_context
    return context, QueryEngine(context)


def _leaf_pool(corpus):
    props = corpus.extras["properties"]
    cuisines = list(corpus.extras["cuisines"].values())
    courses = list(corpus.extras["courses"].values())
    ingredients = list(corpus.extras["ingredients"].values())
    leaves = [
        TypeIs(corpus.extras["types"]["Recipe"]),
        HasProperty(props["method"]),
        HasProperty(props["origin"]),
        TextMatch("olive"),
        TextMatch("bake"),
        Range(props["serves"], low=2, high=6),
        Range(props["prepMinutes"], low=None, high=45),
        Range(props["serves"], low=5, high=None),
        ValueIn(props["ingredient"], ingredients[:12], quantifier="any"),
    ]
    leaves += [HasValue(props["cuisine"], value) for value in cuisines]
    leaves += [HasValue(props["course"], value) for value in courses]
    leaves += [HasValue(props["ingredient"], value) for value in ingredients[:8]]
    return leaves


def _random_tree(rng, leaves, depth):
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    shape = rng.random()
    if shape < 0.4:
        parts = [
            _random_tree(rng, leaves, depth - 1)
            for _ in range(rng.randint(2, 3))
        ]
        return And(parts)
    if shape < 0.8:
        parts = [
            _random_tree(rng, leaves, depth - 1)
            for _ in range(rng.randint(2, 3))
        ]
        return Or(parts)
    return Not(_random_tree(rng, leaves, depth - 1))


def _naive(predicate, context, population):
    return naive_extent(predicate, set(population), context)


def _tagged_graph(n: int = 10) -> Graph:
    """``n`` docs tagged even/odd by index, each with an integer size."""
    graph = Graph()
    for i in range(n):
        item = EX[f"d{i}"]
        graph.add(item, RDF.type, EX.Doc)
        graph.add(item, EX.tag, EX.even if i % 2 == 0 else EX.odd)
        graph.add(item, EX.size, Literal(i))
    return graph


def _adversarial_leaves(corpus):
    """Leaves whose extents are easy to get subtly wrong."""
    props = corpus.extras["properties"]
    return [
        # NaN compares False everywhere, so a NaN bound excludes nothing
        Range(props["serves"], low=NAN, high=None),
        Range(props["serves"], low=None, high=NAN),
        Range(props["prepMinutes"], low=-INF, high=INF),
        Range(props["serves"], low=INF, high=None),
        And([]),
        Or([]),
    ]


def _trees(leaves):
    leaf = st.sampled_from(leaves)
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            # min_size=0 generates And([]) / Or([]) on purpose
            st.lists(children, min_size=0, max_size=3).map(And),
            st.lists(children, min_size=0, max_size=3).map(Or),
            children.map(Not),
            children.map(lambda p: Not(Not(Not(p)))),
        ),
        max_leaves=6,
    )


class TestRandomizedEquivalence:
    def test_trees_match_naive(self, setting, recipe_corpus):
        context, engine = setting
        leaves = _leaf_pool(recipe_corpus)
        rng = random.Random(40526)
        for _ in range(60):
            predicate = _random_tree(rng, leaves, depth=3)
            expected = _naive(predicate, context, context.universe)
            assert engine.evaluate(predicate) == expected
            assert engine.count(predicate) == len(expected)

    def test_within_matches_naive(self, setting, recipe_corpus):
        context, engine = setting
        leaves = _leaf_pool(recipe_corpus)
        universe = sorted(context.universe, key=lambda n: n.n3())
        rng = random.Random(90125)
        for _ in range(40):
            predicate = _random_tree(rng, leaves, depth=2)
            within = rng.sample(universe, rng.randint(0, len(universe)))
            expected = _naive(predicate, context, within)
            assert engine.evaluate(predicate, within=within) == expected
            assert engine.count(predicate, within=within) == len(expected)

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_adversarial_trees_match_naive(self, setting, recipe_corpus, data):
        context, engine = setting
        leaves = _leaf_pool(recipe_corpus) + _adversarial_leaves(recipe_corpus)
        predicate = data.draw(_trees(leaves))
        expected = _naive(predicate, context, context.universe)
        assert engine.evaluate(predicate) == expected
        assert engine.count(predicate) == len(expected)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_adversarial_within_matches_naive(
        self, setting, recipe_corpus, data
    ):
        context, engine = setting
        leaves = _leaf_pool(recipe_corpus) + _adversarial_leaves(recipe_corpus)
        predicate = data.draw(_trees(leaves))
        universe = sorted(context.universe, key=lambda n: n.n3())
        within = data.draw(
            st.lists(st.sampled_from(universe), unique=True, max_size=40)
        )
        expected = _naive(predicate, context, within)
        assert engine.evaluate(predicate, within=within) == expected
        assert engine.count(predicate, within=within) == len(expected)

    def test_degenerate_roots(self, setting):
        context, engine = setting
        cases = {
            And([]): set(context.universe),
            Or([]): set(),
            Not(And([])): set(),
            Not(Or([])): set(context.universe),
        }
        for predicate, expected in cases.items():
            assert engine.evaluate(predicate) == expected
            assert engine.count(predicate) == len(expected)
            assert _naive(predicate, context, context.universe) == expected

    def test_repeated_evaluation_hits_cache(self, setting, recipe_corpus):
        context, engine = setting
        leaves = _leaf_pool(recipe_corpus)
        predicate = And([leaves[0], Or([leaves[3], leaves[5]])])
        first = engine.evaluate(predicate)
        hits_before = context.cache_stats.hits
        assert engine.evaluate(predicate) == first
        assert context.cache_stats.hits > hits_before


class TestExtensionPredicates:
    def test_cardinality_falls_back(self, setting, recipe_corpus):
        context, engine = setting
        prop = recipe_corpus.extras["properties"]["ingredient"]
        predicate = Cardinality(prop, at_least=6)
        expected = _naive(predicate, context, context.universe)
        assert engine.evaluate(predicate) == expected
        assert engine.count(predicate) == len(expected)

    def test_mixed_tree_with_cardinality_falls_back(self, setting, recipe_corpus):
        context, engine = setting
        props = recipe_corpus.extras["properties"]
        cuisines = list(recipe_corpus.extras["cuisines"].values())
        predicate = And(
            [HasValue(props["cuisine"], cuisines[0]), Cardinality(props["ingredient"], at_least=4)]
        )
        expected = _naive(predicate, context, context.universe)
        assert engine.evaluate(predicate) == expected
        within = sorted(context.universe, key=lambda n: n.n3())[::3]
        assert engine.evaluate(predicate, within=within) == _naive(
            predicate, context, within
        )

    def test_root_extension_answers_first(self, recipe_workspace, recipe_corpus):
        context = recipe_workspace.query_context
        frozen = set(list(context.universe)[:5])
        engine = QueryEngine(context)
        engine.register_extension(HasValue, lambda p, c: set(frozen))
        props = recipe_corpus.extras["properties"]
        cuisines = list(recipe_corpus.extras["cuisines"].values())
        predicate = HasValue(props["cuisine"], cuisines[0])
        assert engine.evaluate(predicate) == frozen
        assert engine.count(predicate) == len(frozen)

    def test_root_extension_is_never_cached(self, recipe_workspace, recipe_corpus):
        """Extension closures may depend on state the version can't see."""
        context = recipe_workspace.query_context
        items = list(context.universe)
        answer = {"extent": set(items[:3])}
        engine = QueryEngine(context)
        engine.register_extension(HasValue, lambda p, c: set(answer["extent"]))
        props = recipe_corpus.extras["properties"]
        cuisines = list(recipe_corpus.extras["cuisines"].values())
        predicate = HasValue(props["cuisine"], cuisines[0])
        assert engine.evaluate(predicate) == set(items[:3])
        answer["extent"] = set(items[3:5])
        assert engine.evaluate(predicate) == set(items[3:5])

    def test_nested_extension_not_consulted(self, recipe_workspace, recipe_corpus):
        """Extensions apply at the query root only."""
        context = recipe_workspace.query_context
        engine = QueryEngine(context)
        engine.register_extension(HasValue, lambda p, c: set())
        props = recipe_corpus.extras["properties"]
        cuisines = list(recipe_corpus.extras["cuisines"].values())
        inner = HasValue(props["cuisine"], cuisines[0])
        tree = Or([inner, inner])
        expected = _naive(tree, context, context.universe)
        assert expected
        assert engine.evaluate(tree) == expected

    def test_extension_answers_at_root_only(self):
        context = QueryContext(_tagged_graph())
        engine = QueryEngine(context)
        frozen = set(list(context.universe)[:2])
        engine.register_extension(HasValue, lambda p, c: set(frozen))
        assert engine.evaluate(HasValue(EX.tag, EX.even)) == frozen
        # nested: the extension is not consulted, extents answer normally
        tree = Or([HasValue(EX.tag, EX.even), HasValue(EX.tag, EX.odd)])
        assert len(engine.evaluate(tree)) == 10

    def test_extentless_leaf_falls_back_to_filtering(self):
        context = QueryContext(_tagged_graph())
        engine = QueryEngine(context)
        predicate = And(
            [HasValue(EX.tag, EX.even), Cardinality(EX.size, at_least=1)]
        )
        expected = _naive(predicate, context, context.universe)
        assert len(expected) == 5
        assert engine.evaluate(predicate) == expected


class TestErrorSurfacing:
    """Leaf errors surface whatever the rest of the tree resolves to."""

    @pytest.fixture()
    def no_text_index(self):
        graph = Graph()
        for i in range(4):
            graph.add(EX[f"d{i}"], RDF.type, EX.Doc)
            graph.add(EX[f"d{i}"], EX.tag, EX.even)
        return QueryEngine(QueryContext(graph))

    def test_text_match_without_index_raises(self, no_text_index):
        with pytest.raises(RuntimeError, match="text index"):
            no_text_index.evaluate(TextMatch("apple"))
        with pytest.raises(RuntimeError, match="text index"):
            no_text_index.count(TextMatch("apple"))

    def test_and_resolves_every_part_after_an_unknown(self, no_text_index):
        # The Cardinality part has no extent, so the tree is doomed to
        # per-item filtering; the later TextMatch must still raise
        # rather than be skipped.
        tree = And([Cardinality(EX.tag, at_least=1), TextMatch("apple")])
        with pytest.raises(RuntimeError, match="text index"):
            no_text_index.evaluate(tree)

    def test_and_resolves_every_part_after_an_empty_one(self, no_text_index):
        tree = And([HasValue(EX.tag, EX.odd), TextMatch("apple")])
        with pytest.raises(RuntimeError, match="text index"):
            no_text_index.evaluate(tree)


class TestCacheInvalidation:
    """A changed graph is a fork with a context of its own.

    Its extents see the change; the sealed graph's context keeps
    answering from its cache.
    """

    @pytest.fixture()
    def small(self):
        graph = _tagged_graph(8)
        context = QueryContext(graph)
        return graph, context, QueryEngine(context)

    @staticmethod
    def _changed(graph, ops):
        grown = graph.fork()
        grown.transact(ops)
        return QueryEngine(QueryContext(grown))

    def test_graph_mutation_refreshes_extents(self, small):
        graph, context, engine = small
        predicate = HasValue(EX.tag, EX.even)
        assert len(engine.evaluate(predicate)) == 4
        changed = self._changed(
            graph,
            [
                (OP_ASSERT, EX.d9, RDF.type, EX.Doc),
                (OP_ASSERT, EX.d9, EX.tag, EX.even),
            ],
        )
        result = changed.evaluate(predicate)
        assert EX.d9 in result and len(result) == 5
        assert len(engine.evaluate(predicate)) == 4
        assert context.cache_stats.hits >= 1

    def test_removal_refreshes_extents(self, small):
        graph, context, engine = small
        predicate = Not(HasValue(EX.tag, EX.odd))
        before = engine.evaluate(predicate)
        assert len(before) == 4
        changed = self._changed(
            graph,
            [
                (OP_RETRACT, EX.d0, EX.tag, EX.even),
                (OP_ASSERT, EX.d0, EX.tag, EX.odd),
            ],
        )
        after = changed.evaluate(predicate)
        assert after == before - {EX.d0}
        assert engine.evaluate(predicate) == before

    def test_range_extent_tracks_updates(self, small):
        graph, context, engine = small
        predicate = Range(EX.size, low=3, high=None)
        assert len(engine.evaluate(predicate)) == 5
        changed = self._changed(
            graph,
            [
                (OP_RETRACT, EX.d7, EX.size, Literal(7)),
                (OP_ASSERT, EX.d7, EX.size, Literal(0)),
            ],
        )
        assert len(changed.evaluate(predicate)) == 4
        assert len(engine.evaluate(predicate)) == 5


class TestWorkspacePreviewCounts:
    def test_workspace_preview_counts_match_naive(self, recipe_corpus):
        from repro.browser.session import Session
        from repro.core.suggestions import RefineMode
        from repro.core.workspace import Workspace

        workspace = Workspace(
            recipe_corpus.graph,
            schema=recipe_corpus.schema,
            items=recipe_corpus.items,
        )
        context = workspace.query_context
        session = Session(workspace)
        session.run_query(TypeIs(recipe_corpus.extras["types"]["Recipe"]))
        leaves = _leaf_pool(recipe_corpus) + _adversarial_leaves(recipe_corpus)
        italian = HasValue(
            recipe_corpus.extras["properties"]["cuisine"],
            recipe_corpus.extras["cuisines"]["Italian"],
        )
        for view in ("all recipes", "italian recipes"):
            items = set(session.current.items)
            for predicate in leaves:
                assert session.preview_count(predicate) == len(
                    _naive(predicate, context, items)
                ), (view, predicate)
                excluded = session.preview_count(predicate, RefineMode.EXCLUDE)
                assert excluded == len(
                    _naive(Not(predicate), context, items)
                ), (view, predicate)
            session.refine(italian)
