"""Property-based invariants of the text index and facet counting."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import TextIndex
from repro.rdf import Graph, Literal, Namespace, RDF, Schema
from repro.vsm import default_analyzer

EX = Namespace("http://ip.example/")

words = st.sampled_from(
    ["apple", "beef", "corn", "delta", "echo", "foxtrot", "garlic"]
)
texts = st.lists(words, min_size=0, max_size=6).map(" ".join)
properties = st.integers(min_value=0, max_value=2).map(lambda i: EX[f"p{i}"])


@st.composite
def corpora(draw):
    g = Graph()
    items = []
    for i in range(draw(st.integers(min_value=1, max_value=7))):
        item = EX[f"d{i}"]
        g.add(item, RDF.type, EX.Doc)
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            g.add(item, draw(properties), Literal(draw(texts)))
        items.append(item)
    return g, items


def build_index(corpus):
    g, items = corpus
    index = TextIndex(g)
    index.index_items(items)
    return g, items, index


@given(corpora(), words)
@settings(max_examples=60)
def test_results_subset_of_indexed(corpus, word):
    _g, items, index = build_index(corpus)
    assert index.search(word) <= set(items)


@given(corpora(), words, words)
@settings(max_examples=60)
def test_and_semantics_is_intersection(corpus, a, b):
    _g, _items, index = build_index(corpus)
    assert index.search(f"{a} {b}") == index.search(a) & index.search(b)


@given(corpora(), words)
@settings(max_examples=60)
def test_search_matches_brute_force(corpus, word):
    g, items, index = build_index(corpus)
    analyzer = default_analyzer()
    stem = analyzer.stem_token(word)
    expected = set()
    for item in items:
        for _p, values in g.properties_of(item).items():
            for value in values:
                if isinstance(value, Literal) and stem in set(
                    analyzer.tokens(value.lexical)
                ):
                    expected.add(item)
    assert index.search(word) == expected


@given(corpora(), words)
@settings(max_examples=40)
def test_within_property_refines_overall(corpus, word):
    _g, _items, index = build_index(corpus)
    overall = index.search(word)
    per_property = set()
    for prop in index.text_properties():
        per_property |= index.search(word, within=prop)
    assert per_property == overall


@given(corpora())
@settings(max_examples=40)
def test_facet_counts_match_brute_force(corpus):
    from repro.core.analysts.common import collection_profile

    g, items, _index = build_index(corpus)
    schema = Schema(g)
    counts = collection_profile(g, schema, items).facet_counts()
    for prop, values in counts.items():
        for value, count in values.items():
            expected = sum(
                1 for item in items if (item, prop, value) in g
            )
            assert count == expected


@given(corpora(), words)
@settings(max_examples=40)
def test_token_frequencies_consistent(corpus, word):
    _g, _items, index = build_index(corpus)
    stem = default_analyzer().stem_token(word)
    frequencies = index.token_frequencies()
    assert frequencies.get(stem, 0) == len(index.items_with_token(stem))
