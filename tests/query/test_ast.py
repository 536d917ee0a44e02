"""Tests for the predicate AST (§4.2)."""

import pytest

from repro.index import TextIndex
from repro.query import (
    And,
    Cardinality,
    HasProperty,
    HasValue,
    Not,
    Or,
    PathValue,
    QueryContext,
    QueryEngine,
    Range,
    TextMatch,
    TypeIs,
)
from repro.rdf import Graph, Literal, Namespace, RDF, Schema

EX = Namespace("http://q.example/")


def _graph():
    g = Graph()
    for name, cuisine, ings, serves, title in [
        ("r1", EX.greek, [EX.parsley, EX.feta], 4, "greek salad"),
        ("r2", EX.greek, [EX.lamb], 8, "roast lamb"),
        ("r3", EX.mexican, [EX.corn, EX.parsley], 2, "corn soup"),
    ]:
        item = EX[name]
        g.add(item, RDF.type, EX.Recipe)
        g.add(item, EX.cuisine, cuisine)
        for ing in ings:
            g.add(item, EX.ingredient, ing)
        g.add(item, EX.serves, Literal(serves))
        g.add(item, EX.title, Literal(title))
    g.add(EX.r1, EX.origin, EX.r3)  # an object link for PathValue tests
    return g


def _context(g):
    text_index = TextIndex(g)
    text_index.index_items([EX.r1, EX.r2, EX.r3])
    return QueryContext(g, text_index=text_index)


@pytest.fixture()
def context():
    return _context(_graph())


class TestLeafPredicates:
    def test_has_value_matches(self, context):
        p = HasValue(EX.cuisine, EX.greek)
        assert p.matches(EX.r1, context)
        assert not p.matches(EX.r3, context)

    def test_has_value_candidates(self, context):
        assert HasValue(EX.cuisine, EX.greek).candidates(context) == {
            EX.r1, EX.r2,
        }

    def test_has_property(self, context):
        assert HasProperty(EX.ingredient).candidates(context) == {
            EX.r1, EX.r2, EX.r3,
        }

    def test_type_is(self, context):
        assert TypeIs(EX.Recipe).candidates(context) == {EX.r1, EX.r2, EX.r3}

    def test_text_match(self, context):
        assert TextMatch("greek").candidates(context) == {EX.r1}

    def test_text_match_within(self, context):
        p = TextMatch("corn", within=EX.title)
        assert p.candidates(context) == {EX.r3}

    def test_text_match_requires_index(self, tiny_graph):
        bare = QueryContext(tiny_graph)
        with pytest.raises(RuntimeError):
            TextMatch("x").matches(None, bare)

    def test_range_both_bounds(self, context):
        assert Range(EX.serves, low=3, high=6).candidates(context) == {EX.r1}

    def test_range_one_sided(self, context):
        assert Range(EX.serves, low=5).candidates(context) == {EX.r2}
        assert Range(EX.serves, high=3).candidates(context) == {EX.r3}

    def test_range_needs_a_bound(self):
        with pytest.raises(ValueError):
            Range(EX.serves)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            Range(EX.serves, low=10, high=5)

    def test_range_matches_single_item(self, context):
        assert Range(EX.serves, low=4, high=4).matches(EX.r1, context)

    def test_nan_reading_satisfies_no_range(self):
        # Regression: NaN compares False against both bounds, so an
        # unguarded NaN reading slipped through every Range — matches
        # and candidates both said yes regardless of the bounds.
        g = Graph()
        g.add(EX.broken, RDF.type, EX.Recipe)
        g.add(EX.broken, EX.serves, Literal("nan"))
        g.add(EX.ok, RDF.type, EX.Recipe)
        g.add(EX.ok, EX.serves, Literal(4))
        context = QueryContext(g)
        for predicate in (
            Range(EX.serves, low=0, high=100),
            Range(EX.serves, low=0),
            Range(EX.serves, high=100),
        ):
            assert not predicate.matches(EX.broken, context)
            assert predicate.candidates(context) == {EX.ok}

    def test_infinite_reading_is_a_real_value(self):
        # inf is an actual ordering point, unlike NaN: it satisfies
        # one-sided lower bounds and fails upper bounds.
        g = Graph()
        g.add(EX.hot, RDF.type, EX.Recipe)
        g.add(EX.hot, EX.serves, Literal("inf"))
        context = QueryContext(g)
        assert Range(EX.serves, low=1000).matches(EX.hot, context)
        assert not Range(EX.serves, high=1000).matches(EX.hot, context)

    def test_path_value(self, context):
        p = PathValue([EX.origin, EX.cuisine], EX.mexican)
        assert p.matches(EX.r1, context)
        assert not p.matches(EX.r2, context)

    def test_cardinality_at_most(self, context):
        p = Cardinality(EX.ingredient, at_most=1)
        assert p.matches(EX.r2, context)
        assert not p.matches(EX.r1, context)

    def test_cardinality_at_least(self, context):
        p = Cardinality(EX.ingredient, at_least=2)
        assert p.matches(EX.r1, context)
        assert not p.matches(EX.r2, context)

    def test_cardinality_needs_bound(self):
        with pytest.raises(ValueError):
            Cardinality(EX.ingredient)


class TestBooleanAlgebra:
    """Compounds have no extent of their own: the engine combines the
    extents of their parts."""

    def test_and(self, context):
        p = And([HasValue(EX.cuisine, EX.greek),
                 HasValue(EX.ingredient, EX.parsley)])
        assert QueryEngine(context).evaluate(p) == {EX.r1}

    def test_or(self, context):
        p = Or([HasValue(EX.ingredient, EX.lamb),
                HasValue(EX.ingredient, EX.corn)])
        assert QueryEngine(context).evaluate(p) == {EX.r2, EX.r3}

    def test_not(self, context):
        p = Not(HasValue(EX.cuisine, EX.greek))
        assert QueryEngine(context).evaluate(p) == {EX.r3}

    def test_nested(self, context):
        p = And([
            TypeIs(EX.Recipe),
            Or([HasValue(EX.cuisine, EX.mexican),
                HasValue(EX.ingredient, EX.feta)]),
        ])
        assert QueryEngine(context).evaluate(p) == {EX.r1, EX.r3}

    def test_empty_and_is_universe(self, context):
        assert QueryEngine(context).evaluate(And([])) == context.universe

    def test_empty_or_is_nothing(self, context):
        assert QueryEngine(context).evaluate(Or([])) == set()

    def test_double_negation_collapses(self):
        p = HasValue(EX.cuisine, EX.greek)
        assert Not(p).negated() is p

    def test_operator_sugar(self, context):
        p = HasValue(EX.cuisine, EX.greek) & ~HasValue(
            EX.ingredient, EX.parsley
        )
        assert QueryEngine(context).evaluate(p) == {EX.r2}

    def test_or_sugar(self, context):
        p = HasValue(EX.ingredient, EX.lamb) | HasValue(EX.ingredient, EX.corn)
        assert isinstance(p, Or)

    def test_equality_and_hash(self):
        a = HasValue(EX.cuisine, EX.greek)
        b = HasValue(EX.cuisine, EX.greek)
        assert a == b and hash(a) == hash(b)
        assert And([a]) == And([b])
        assert a != HasValue(EX.cuisine, EX.mexican)


class TestDescribe:
    def test_has_value(self, context):
        assert HasValue(EX.cuisine, EX.greek).describe(context) == "cuisine: greek"

    def test_labels_used_when_available(self):
        g = _graph()
        Schema(g).set_label(EX.cuisine, "Cuisine Kind")
        context = _context(g)
        assert "Cuisine Kind" in HasValue(EX.cuisine, EX.greek).describe(context)

    def test_type_is(self, context):
        assert TypeIs(EX.Recipe).describe(context) == "type: Recipe"

    def test_not_wraps(self, context):
        text = Not(HasValue(EX.cuisine, EX.greek)).describe(context)
        assert text == "NOT cuisine: greek"

    def test_nested_parenthesized(self, context):
        p = And([
            TypeIs(EX.Recipe),
            Or([HasValue(EX.cuisine, EX.greek),
                HasValue(EX.cuisine, EX.mexican)]),
        ])
        assert "(" in p.describe(context)

    def test_range_describe(self, context):
        assert "serves" in Range(EX.serves, low=1, high=5).describe(context)

    def test_cardinality_describe(self, context):
        assert "≤ 5" in Cardinality(EX.ingredient, at_most=5).describe(context)

    def test_universe_defaults_to_typed_subjects(self, context):
        assert context.universe == {EX.r1, EX.r2, EX.r3}
