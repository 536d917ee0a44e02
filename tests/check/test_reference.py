"""The oracle itself: naive set-algebra semantics, and its agreement
with the production query engine (the differential harness is only as
good as its reference)."""

import random

import pytest

from repro.check import CommandGenerator, ReferenceModel, naive_extent, random_corpus
from repro.query import And, HasValue, Not, Or, QueryEngine, TextMatch
from repro.query.simplify import simplify
from repro.rdf import RDF, Graph, Literal, Namespace
from repro.core.workspace import Workspace
from repro.service import commands as cmd

EX = Namespace("http://ref.example/")


@pytest.fixture(scope="module")
def tiny():
    g = Graph()
    for name, color in [("a", EX.red), ("b", EX.red), ("c", EX.blue)]:
        item = EX[name]
        g.add(item, RDF.type, EX.Thing)
        g.add(item, EX.color, color)
        g.add(item, EX.title, Literal(f"thing {name}"))
    workspace = Workspace(g)
    workspace.freeze()
    return workspace


class TestNaiveExtent:
    def test_empty_and_is_universe(self, tiny):
        universe = set(tiny.query_context.universe)
        assert naive_extent(And([]), universe, tiny.query_context) == universe

    def test_empty_or_is_empty(self, tiny):
        universe = set(tiny.query_context.universe)
        assert naive_extent(Or([]), universe, tiny.query_context) == set()

    def test_not_is_universe_complement(self, tiny):
        context = tiny.query_context
        universe = set(context.universe)
        red = HasValue(EX.color, EX.red)
        assert naive_extent(Not(red), universe, context) == {EX.c}

    def test_leaves_use_per_item_matches(self, tiny):
        context = tiny.query_context
        universe = set(context.universe)
        assert naive_extent(TextMatch("thing"), universe, context) == universe


class TestEngineAgreement:
    """Random predicate trees: naive == the production engine.

    This is the live version of the "simplify's complement
    short-circuit agrees with the engine for empty And/Or" check:
    complement pairs simplify to ``Or([])``/``And([])``, and the engine
    and the oracle must still agree.
    """

    @pytest.fixture(scope="class")
    def setting(self):
        corpus = random_corpus(20260807)
        context = corpus.workspace.query_context
        engine = QueryEngine(context)
        generator = CommandGenerator(random.Random(13), corpus)
        return corpus, context, engine, generator

    def test_random_trees_agree_with_naive(self, setting):
        corpus, context, engine, generator = setting
        universe = set(context.universe)
        for _ in range(120):
            predicate = generator.predicate()
            naive = naive_extent(predicate, universe, context)
            assert set(engine.evaluate(predicate)) == naive, predicate
            assert engine.count(predicate) == len(naive), predicate

    def test_simplified_trees_agree_too(self, setting):
        corpus, context, engine, generator = setting
        universe = set(context.universe)
        for _ in range(120):
            predicate = simplify(generator.predicate())
            naive = naive_extent(predicate, universe, context)
            assert set(engine.evaluate(predicate)) == naive, predicate

    def test_complement_short_circuit_both_strategies(self, setting):
        """The engine and the naive oracle both honour the short-circuit."""
        corpus, context, engine, _generator = setting
        universe = set(context.universe)
        p = HasValue(corpus.props[0], corpus.values[0])
        contradiction = simplify(And([p, Not(p)]))
        tautology = simplify(Or([p, Not(p)]))
        assert contradiction == Or([])
        assert tautology == And([])
        assert naive_extent(contradiction, universe, context) == set()
        assert naive_extent(tautology, universe, context) == universe
        assert set(engine.evaluate(contradiction)) == set()
        assert set(engine.evaluate(tautology)) == universe
        assert engine.count(contradiction) == 0
        assert engine.count(tautology) == len(universe)

    def test_empty_combinators_with_within(self, setting):
        corpus, context, engine, _generator = setting
        some = list(context.universe)[:5]
        assert set(engine.evaluate(And([]), within=some)) == set(some)
        assert set(engine.evaluate(Or([]), within=some)) == set()
        assert naive_extent(And([]), set(some), context) == set(some)
        assert naive_extent(Or([]), set(some), context) == set()


class TestReferenceModelWalk:
    """A short deterministic walk through the model's own semantics."""

    def test_refine_then_undo_restores_previous_query_view(self, tiny):
        model = ReferenceModel(tiny)
        model.apply(cmd.Search("thing"))
        model.apply(cmd.Refine(HasValue(EX.color, EX.red), "filter"))
        assert set(model.view.items) == {EX.a, EX.b}
        assert len(model.trail) == 2
        model.apply(cmd.UndoRefinement())
        assert set(model.view.items) == {EX.a, EX.b, EX.c}
        assert len(model.trail) == 1

    def test_back_pops_without_touching_trail(self, tiny):
        model = ReferenceModel(tiny)
        model.apply(cmd.Search("thing"))
        trail_before = len(model.trail)
        model.apply(cmd.Back())
        assert len(model.trail) == trail_before
        assert model.view.query is None
        with pytest.raises(RuntimeError):
            model.apply(cmd.Back())

    def test_shadow_query_tracks_unsimplified_tree(self, tiny):
        model = ReferenceModel(tiny)
        red = HasValue(EX.color, EX.red)
        model.apply(cmd.Refine(red, "filter"))
        model.apply(cmd.Refine(red, "filter"))  # duplicate chip
        # Simplified query dedupes; the shadow keeps both conjuncts.
        assert model.view.query == red
        assert model.view.shadow_query == And([red, red])
        assert model.extent(model.view.query) == model.extent(
            model.view.shadow_query
        )

    def test_bookmark_round_trip(self, tiny):
        model = ReferenceModel(tiny)
        model.apply(cmd.GoItem(EX.a))
        model.apply(cmd.AddBookmark(None))
        assert model.bookmarks == [EX.a]
        assert model.apply(cmd.RemoveBookmark(EX.a)) is True
        assert model.apply(cmd.RemoveBookmark(EX.a)) is False
