"""Tests for the synthetic linked (citation) corpus.

The path benchmark leans on structural guarantees this corpus makes by
construction — cycles at every size, deterministic generation, a skewed
entity layer — so they are pinned here at a small size where the full
graph is cheap to inspect.
"""

from repro.datasets import linked
from repro.query import Path, PathStep, QueryContext, QueryEngine
from repro.rdf import RDF


def _build(n=512):
    return linked.build_corpus(n_items=n, freeze=False)


class TestDeterminism:
    def test_same_seed_same_graph(self):
        a = _build()
        b = _build()
        assert a.graph == b.graph
        assert a.items == b.items

    def test_different_seed_differs(self):
        a = _build()
        b = linked.build_corpus(n_items=512, seed=1, freeze=False)
        assert a.graph != b.graph


class TestStructure:
    def test_every_item_is_a_typed_paper(self):
        corpus = _build()
        paper_type = corpus.extras["paper_type"]
        typed = set(corpus.graph.subjects(RDF.type, paper_type))
        assert typed == set(corpus.items)
        assert len(corpus.items) == 512

    def test_entity_layer_chains_to_countries(self):
        corpus = _build()
        g = corpus.graph
        for author in corpus.extras["authors"]:
            institutions = list(g.objects(author, corpus.extras["p_affiliation"]))
            assert len(institutions) == 1
            countries = list(
                g.objects(institutions[0], corpus.extras["p_located_in"])
            )
            assert len(countries) == 1

    def test_citations_are_cyclic_by_construction(self):
        corpus = _build()
        g = corpus.graph
        cites = corpus.extras["p_cites"]
        self_loops = [
            s for s, _p, o in g.triples(None, cites, None) if s == o
        ]
        assert self_loops  # i % 211 == 7 papers self-cite
        mutual = [
            (s, o)
            for s, _p, o in g.triples(None, cites, None)
            if s != o and (o, cites, s) in g
        ]
        assert mutual  # i % 173 == 11 papers pair up

    def test_institution_density_is_skewed(self):
        corpus = _build()
        g = corpus.graph
        p_affiliation = corpus.extras["p_affiliation"]
        sizes = sorted(
            (
                sum(1 for _ in g.subjects(p_affiliation, inst))
                for inst in corpus.extras["institutions"]
            ),
            reverse=True,
        )
        # Zipf-ish: the densest institution dwarfs the median.
        assert sizes[0] >= 4 * max(sizes[len(sizes) // 2], 1)


class TestPathQueries:
    def test_two_hop_agrees_with_forward_matching(self):
        corpus = _build()
        context = QueryContext(
            corpus.graph, schema=corpus.schema, universe=set(corpus.items)
        )
        g = corpus.graph
        p_affiliation = corpus.extras["p_affiliation"]
        dense = max(
            corpus.extras["institutions"],
            key=lambda inst: (
                sum(1 for _ in g.subjects(p_affiliation, inst)),
                inst.uri,
            ),
        )
        predicate = Path(
            (PathStep(corpus.extras["p_author"]), PathStep(p_affiliation)),
            dense,
        )
        expected = {
            item for item in corpus.items if predicate.matches(item, context)
        }
        assert expected  # the dense institution is reachable
        assert QueryEngine(context).evaluate(predicate) == expected

    def test_closure_terminates_despite_cycles(self):
        corpus = _build(256)
        context = QueryContext(
            corpus.graph, schema=corpus.schema, universe=set(corpus.items)
        )
        predicate = Path(
            (PathStep(corpus.extras["p_cites"], closure="+"),),
            corpus.items[0],
        )
        extent = predicate.candidates(context)
        # paper 0 is in every later paper's backward citation range.
        assert len(extent) > len(corpus.items) // 2
