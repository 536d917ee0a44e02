"""Tests for typed property-path predicates (§4.2).

Covers the :class:`Path` AST node (sequences, inverse hops, ``+``/``*``
closures, cycle-safe traversal), the toolbar syntax that produces it,
and the promise the engine relies on: ``candidates`` computes exactly the
set of items whose forward walk succeeds.
"""

import pytest

from repro.query import (
    Path,
    PathStep,
    QueryContext,
    QueryEngine,
    QueryParseError,
    QueryParser,
    TextMatch,
)
from repro.query.parser import split_path_spec
from repro.rdf import Graph, Literal, Namespace, RDF

EX = Namespace("http://path.example/")


def _context(graph, items=None):
    universe = set(items) if items is not None else None
    return QueryContext(graph, universe=universe)


def _papers_graph():
    """A small citation graph: papers → authors → affiliations."""
    g = Graph()
    items = []
    for i in range(6):
        paper = EX[f"p{i}"]
        items.append(paper)
        g.add(paper, RDF.type, EX.Paper)
        g.add(paper, EX.author, EX[f"a{i % 3}"])
    for i in range(3):
        g.add(EX[f"a{i}"], EX.affiliation, EX[f"uni{i % 2}"])
    # p1 → p0, p2 → p1, ... plus a deliberate cycle p0 → p5 → p0.
    for i in range(1, 6):
        g.add(EX[f"p{i}"], EX.cites, EX[f"p{i - 1}"])
    g.add(EX.p0, EX.cites, EX.p5)
    return g, items


@pytest.fixture()
def papers():
    g, items = _papers_graph()
    return g, _context(g, items), items


class TestPathStep:
    def test_closure_validated(self):
        with pytest.raises(ValueError):
            PathStep(EX.cites, closure="?")

    def test_plain_resources_coerced(self):
        path = Path((EX.author, EX.affiliation))
        assert path.steps == (PathStep(EX.author), PathStep(EX.affiliation))

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            Path(())


class TestMatches:
    def test_two_hop_sequence(self, papers):
        _g, context, _items = papers
        path = Path((EX.author, EX.affiliation), EX.uni0)
        # a0 and a2 sit at uni0, so papers by them match.
        assert path.matches(EX.p0, context)
        assert path.matches(EX.p2, context)
        assert not path.matches(EX.p1, context)

    def test_inverse_walks_backwards(self, papers):
        _g, context, _items = papers
        cited_by_p1 = Path((PathStep(EX.cites, inverse=True),), EX.p1)
        assert cited_by_p1.matches(EX.p0, context)
        assert not cited_by_p1.matches(EX.p2, context)

    def test_existence_when_value_omitted(self):
        g, items = _papers_graph()
        g.add(EX.orphan, RDF.type, EX.Paper)
        context = _context(g, items + [EX.orphan])
        has_affil = Path((EX.author, EX.affiliation))
        assert has_affil.matches(EX.p0, context)
        assert not has_affil.matches(EX.orphan, context)

    def test_plus_closure_is_transitive(self, papers):
        _g, context, _items = papers
        reaches_p0 = Path((PathStep(EX.cites, closure="+"),), EX.p0)
        # Every paper reaches p0 through the chain (and the cycle).
        for item in (EX.p1, EX.p3, EX.p5, EX.p0):
            assert reaches_p0.matches(item, context)

    def test_star_includes_zero_applications(self):
        g, items = _papers_graph()
        g.add(EX.island, RDF.type, EX.Paper)
        context = _context(g, items + [EX.island])
        star = Path((PathStep(EX.cites, closure="*"),), EX.island)
        plus = Path((PathStep(EX.cites, closure="+"),), EX.island)
        assert star.matches(EX.island, context)
        assert not plus.matches(EX.island, context)


class TestCycleTermination:
    def test_self_loop_terminates(self):
        g = Graph()
        g.add(EX.n, EX.knows, EX.n)
        context = _context(g, [EX.n])
        assert Path((PathStep(EX.knows, closure="+"),), EX.n).matches(
            EX.n, context
        )
        assert Path((PathStep(EX.knows, closure="+"),)).candidates(context) == {
            EX.n
        }

    def test_two_cycle_terminates_both_directions(self):
        g = Graph()
        g.add(EX.a, EX.knows, EX.b)
        g.add(EX.b, EX.knows, EX.a)
        context = _context(g, [EX.a, EX.b])
        forward = Path((PathStep(EX.knows, closure="+"),), EX.a)
        backward = Path((PathStep(EX.knows, inverse=True, closure="+"),), EX.a)
        assert forward.candidates(context) == {EX.a, EX.b}
        assert backward.candidates(context) == {EX.a, EX.b}

    def test_star_closure_over_cycle(self, papers):
        _g, context, items = papers
        # p0 ↔ p5 cycle: * from anywhere in the loop reaches everything.
        star = Path((PathStep(EX.cites, closure="*"),), EX.p3)
        expected = {i for i in items if star.matches(i, context)}
        assert star.candidates(context) == expected


class TestEngineAgreement:
    def _assert_engine(self, context, predicate, expected):
        engine = QueryEngine(context)
        assert engine.evaluate(predicate) == expected
        assert engine.count(predicate) == len(expected)

    def test_extent_matches_naive(self, papers):
        _g, context, items = papers
        cases = [
            Path((EX.author, EX.affiliation), EX.uni0),
            Path((EX.author, EX.affiliation)),
            Path((PathStep(EX.cites, inverse=True), EX.author), EX.a0),
            Path((PathStep(EX.cites, closure="+"),), EX.p0),
            Path((PathStep(EX.cites, closure="*"),), EX.p2),
            Path((PathStep(EX.author), PathStep(EX.affiliation, closure="*"))),
        ]
        for predicate in cases:
            expected = {
                item for item in items if predicate.matches(item, context)
            }
            self._assert_engine(context, predicate, expected)

    def test_unconstrained_star_is_whole_universe(self, papers):
        _g, context, items = papers
        predicate = Path((PathStep(EX.cites, closure="*"),))
        self._assert_engine(context, predicate, set(items))

    def test_extent_memoized_until_graph_changes(self, papers):
        g, context, _items = papers
        predicate = Path((PathStep(EX.cites, closure="+"),), EX.p0)
        first = context.path_extent(predicate)
        hits = context.path_stats.hits
        assert context.path_extent(predicate) == first
        assert context.path_stats.hits > hits
        # The graph changes as a fork with a context of its own; the
        # sealed graph and its memo are untouched.
        grown = g.fork()
        grown.add(EX.p9, EX.cites, EX.p0)
        grown.add(EX.p9, RDF.type, EX.Paper)
        grown_context = _context(grown, [*_items, EX.p9])
        assert EX.p9 in grown_context.path_extent(predicate)
        assert context.path_extent(predicate) == first


FIELDS = {
    "author": EX.author,
    "affiliation": EX.affiliation,
    "cites": EX.cites,
    "a/b": EX.slashed,
}


@pytest.fixture()
def parser():
    return QueryParser(
        resolve_property=FIELDS.get,
        resolve_value=lambda prop, text: EX[text],
    )


class TestParserSyntax:
    def test_sequence_with_value(self, parser):
        parsed = parser.parse("author/affiliation:MIT")
        assert parsed == Path(
            (PathStep(EX.author), PathStep(EX.affiliation)), EX.MIT
        )

    def test_bare_inverse(self, parser):
        assert parser.parse("^cites") == Path(
            (PathStep(EX.cites, inverse=True),)
        )

    def test_closures(self, parser):
        assert parser.parse("cites+") == Path(
            (PathStep(EX.cites, closure="+"),)
        )
        assert parser.parse("cites*") == Path(
            (PathStep(EX.cites, closure="*"),)
        )

    def test_inverse_closure_mid_sequence(self, parser):
        parsed = parser.parse("^cites+/author:smith")
        assert parsed == Path(
            (
                PathStep(EX.cites, inverse=True, closure="+"),
                PathStep(EX.author),
            ),
            EX.smith,
        )

    def test_quoted_segment_protects_slash(self, parser):
        # Quoted segments arrive via programmatic path specs (the
        # service/codec route), not the toolbar lexer.
        steps = parser._resolve_path('"a/b"/author')
        assert steps == (PathStep(EX.slashed), PathStep(EX.author))

    def test_unknown_step_falls_back_to_text(self, parser):
        assert parser.parse("author/nope:x") == TextMatch("author/nope x")

    def test_empty_step_rejected(self, parser):
        with pytest.raises(QueryParseError):
            parser.parse("author//affiliation:x")

    def test_split_path_spec_unterminated_quote(self):
        with pytest.raises(QueryParseError):
            split_path_spec('author/"broken')

    def test_split_keeps_quoted_slash(self):
        assert split_path_spec('"a/b"/c') == ['"a/b"', "c"]


class TestDescribe:
    def test_describe_renders_operators(self, papers):
        _g, context, _items = papers
        path = Path(
            (PathStep(EX.cites, inverse=True, closure="+"), PathStep(EX.author)),
            EX.a0,
        )
        text = path.describe(context)
        assert "^" in text and "+" in text and "/" in text

    def test_describe_existence_form(self, papers):
        _g, context, _items = papers
        assert Path((EX.author,)).describe(context).startswith("has ")
