"""Property-based tests: ``simplify`` preserves extension, both strategies.

For every random predicate tree — including empty ``And([])``/``Or([])``
combinators and complement pairs the simplifier short-circuits to those
empty forms — ``simplify(p)`` must have exactly the extension of ``p``
under both evaluation strategies: the production query engine and the
differential harness's ``naive_extent`` oracle.  This is the offline
counterpart of the harness's live shadow-query check.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.reference import naive_extent
from repro.query import And, HasValue, Not, Or, QueryContext, QueryEngine
from repro.query.simplify import simplify
from repro.rdf import Graph, Namespace, RDF

EX = Namespace("http://sx.example/")

values = st.integers(min_value=0, max_value=3).map(lambda i: EX[f"v{i}"])
properties = st.integers(min_value=0, max_value=2).map(lambda i: EX[f"p{i}"])


@st.composite
def corpora(draw):
    g = Graph()
    n_items = draw(st.integers(min_value=1, max_value=8))
    for i in range(n_items):
        item = EX[f"item{i}"]
        g.add(item, RDF.type, EX.Thing)
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            g.add(item, draw(properties), draw(values))
    return g


@st.composite
def predicates(draw, depth=2):
    """Random trees, empty combinators included on purpose."""
    if depth == 0:
        return HasValue(draw(properties), draw(values))
    kind = draw(st.sampled_from(["leaf", "and", "or", "not", "contradiction"]))
    if kind == "leaf":
        return HasValue(draw(properties), draw(values))
    if kind == "not":
        return Not(draw(predicates(depth=depth - 1)))
    if kind == "contradiction":
        # p ∧ ¬p / p ∨ ¬p: the complement short-circuit's trigger.
        part = draw(predicates(depth=depth - 1))
        combiner = draw(st.sampled_from([And, Or]))
        return combiner([part, Not(part)])
    parts = draw(
        st.lists(predicates(depth=depth - 1), min_size=0, max_size=3)
    )
    return And(parts) if kind == "and" else Or(parts)


def _strategies(context):
    """(name, evaluate) for the engine and the naive oracle."""
    engine = QueryEngine(context)
    universe = set(context.universe)
    return [
        ("engine", engine.evaluate),
        ("naive", lambda predicate: naive_extent(predicate, universe, context)),
    ]


@given(corpora(), predicates())
@settings(max_examples=80)
def test_simplify_preserves_extension_under_both_strategies(graph, predicate):
    simplified = simplify(predicate)
    context = QueryContext(graph)
    for name, evaluate in _strategies(context):
        assert evaluate(simplified) == evaluate(predicate), (
            f"{name}: {predicate!r} -> {simplified!r}"
        )


@given(corpora(), predicates())
@settings(max_examples=80)
def test_both_strategies_agree_on_raw_trees(graph, predicate):
    context = QueryContext(graph)
    (_e, engine), (_n, naive) = _strategies(context)
    assert engine(predicate) == naive(predicate), predicate


@given(corpora())
@settings(max_examples=30)
def test_empty_combinators_under_both_strategies(graph):
    context = QueryContext(graph)
    universe = set(context.universe)
    for _name, evaluate in _strategies(context):
        assert evaluate(And([])) == universe
        assert evaluate(Or([])) == set()
    engine = QueryEngine(context)
    assert engine.count(And([])) == len(universe)
    assert engine.count(Or([])) == 0


@given(corpora(), predicates())
@settings(max_examples=60)
def test_complement_short_circuit_agrees_with_engine(graph, predicate):
    # Structurally, simplify(p ∧ ¬p) is Or([]) only when p survives
    # flattening (a degenerate p like And([]) is inlined away first) —
    # see the leaf-predicate structural test in tests/check.  The
    # engine-facing property that must hold for *every* p is the
    # extension: empty for the contradiction, the universe for the
    # tautology, under both strategies.
    context = QueryContext(graph)
    universe = set(context.universe)
    contradiction = simplify(And([predicate, Not(predicate)]))
    tautology = simplify(Or([predicate, Not(predicate)]))
    for _name, evaluate in _strategies(context):
        assert evaluate(contradiction) == set()
        assert evaluate(tautology) == universe
    leaf = HasValue(EX.p0, EX.v0)
    assert simplify(And([leaf, Not(leaf)])) == Or([])
    assert simplify(Or([leaf, Not(leaf)])) == And([])
