"""Property-based tests: path predicates over random cyclic graphs.

For arbitrary link structures — cycles, self-loops, hops through blank
nodes, literal endpoints including NaN — the engine's path extent must
equal per-item forward matching, and closure walks must terminate (the
BFS visited-set guarantee).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import Path, PathStep, QueryContext, QueryEngine
from repro.rdf import BlankNode, Graph, Literal, Namespace, RDF

EX = Namespace("http://pathprop.example/")

link_props = st.integers(min_value=0, max_value=1).map(lambda i: EX[f"link{i}"])
closures = st.sampled_from(["", "+", "*"])

#: A small shared pool of blank nodes, so random edges route through them.
_BLANKS = [BlankNode(f"hop{i}") for i in range(3)]


@st.composite
def linked_graphs(draw):
    """A graph whose link edges may form arbitrary cycles.

    Items are typed; edge endpoints mix items, blank intermediary nodes,
    and literal leaves (including NaN) — path traversal must shrug at
    all of them.
    """
    g = Graph()
    n_items = draw(st.integers(min_value=2, max_value=7))
    items = [EX[f"item{i}"] for i in range(n_items)]
    for item in items:
        g.add(item, RDF.type, EX.Thing)
    nodes = items + _BLANKS[: draw(st.integers(min_value=0, max_value=3))]
    n_edges = draw(st.integers(min_value=0, max_value=14))
    for _ in range(n_edges):
        source = draw(st.sampled_from(nodes))
        prop = draw(link_props)
        kind = draw(st.sampled_from(["node", "node", "node", "literal"]))
        if kind == "literal":
            g.add(source, prop, draw(st.sampled_from(
                [Literal(math.nan), Literal("leaf"), Literal(7)]
            )))
        else:
            g.add(source, prop, draw(st.sampled_from(nodes)))
    return g, items


@st.composite
def path_predicates(draw, items):
    steps = tuple(
        PathStep(
            draw(link_props),
            inverse=draw(st.booleans()),
            closure=draw(closures),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    )
    value = None
    if draw(st.booleans()):
        value = draw(st.sampled_from(
            items + _BLANKS + [Literal(math.nan), Literal("leaf")]
        ))
    return Path(steps, value)


@given(linked_graphs(), st.data())
@settings(max_examples=80)
def test_engine_agrees_with_forward_matching(graph_items, data):
    graph, items = graph_items
    predicate = data.draw(path_predicates(items))
    context = QueryContext(graph, universe=set(items))
    expected = {
        item for item in items if predicate.matches(item, context)
    }
    assert QueryEngine(context).evaluate(predicate) == expected


@given(linked_graphs(), st.data())
@settings(max_examples=60)
def test_path_composes_with_boolean_algebra(graph_items, data):
    """Not(path) over the universe is exactly the complement extent."""
    from repro.query import Not

    graph, items = graph_items
    predicate = data.draw(path_predicates(items))
    context = QueryContext(graph, universe=set(items))
    engine = QueryEngine(context)
    extent = engine.evaluate(predicate)
    assert engine.evaluate(Not(predicate)) == set(items) - extent


@given(st.integers(min_value=1, max_value=8), st.sampled_from(["+", "*"]))
@settings(max_examples=40)
def test_closure_terminates_on_a_full_cycle(n, closure):
    """A pure n-cycle (every node reaches every node) must terminate."""
    g = Graph()
    items = [EX[f"c{i}"] for i in range(n)]
    for i, item in enumerate(items):
        g.add(item, RDF.type, EX.Thing)
        g.add(item, EX.link0, items[(i + 1) % n])
        g.add(item, EX.link0, item)  # self-loop on every node, too
    context = QueryContext(g, universe=set(items))
    predicate = Path((PathStep(EX.link0, closure=closure),), items[0])
    extent = predicate.candidates(context)
    assert extent == set(items)
    assert predicate.matches(items[-1], context)


@given(linked_graphs())
@settings(max_examples=40)
def test_star_without_value_covers_the_universe(graph_items):
    """Zero applications always succeed: `link*` existence is vacuous."""
    graph, items = graph_items
    context = QueryContext(graph, universe=set(items))
    predicate = Path((PathStep(EX.link0, closure="*"),))
    assert QueryEngine(context).evaluate(predicate) == set(items)
