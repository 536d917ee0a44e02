"""``advance`` constructors against a cold build, over seeded deltas.

An epoch fold builds the next epoch's vector model and text index from
the prior epoch's with ``VectorSpaceModel.advance`` and
``TextIndex.advance``.  Each must equal a cold build over the new graph
— profiles and their order, statistics, ranges, vectors, postings — and
leave the prior substrate as it was.  Each test also treats one changed
item as clean and demands a difference, so it cannot pass vacuously.
"""

import random

import pytest

from repro.index.textindex import TextIndex
from repro.rdf import Graph, Literal, Namespace, RDF, Schema
from repro.vsm import VectorSpaceModel

EX = Namespace("http://advance.example/")

WORDS = ["corn", "salad", "bread", "apple", "stew", "quick", "spicy", "pie"]


def _add_item(graph: Graph, rng: random.Random, name: str) -> None:
    item = EX[name]
    graph.add(item, RDF.type, EX.Recipe)
    for _ in range(rng.randint(1, 3)):
        graph.add(item, EX.ingredient, EX[f"ing{rng.randint(0, 6)}"])
    graph.add(item, EX.title, Literal(" ".join(rng.sample(WORDS, 3))))
    graph.add(item, EX.weight, Literal(rng.randint(1, 500)))


def _items(graph: Graph) -> list:
    return sorted(
        {s for s, _p, _o in graph.triples(None, RDF.type, None)},
        key=lambda node: node.n3(),
    )


def _delta(graph: Graph, rng: random.Random, serial: int):
    """Fork ``graph`` and apply a random delta; returns the fork, the
    delta's subjects, and the items whose data changed but stayed."""
    fork = graph.fork()
    items = _items(graph)
    touched, changed = set(), []
    for step in range(rng.randint(2, 5)):
        roll = rng.random()
        if roll < 0.35:
            name = f"new{serial}_{step}"
            _add_item(fork, rng, name)
            touched.add(EX[name])
        elif roll < 0.6 and len(items) > 2:
            gone = items.pop(rng.randrange(len(items)))
            fork.remove(gone, RDF.type, EX.Recipe)
            touched.add(gone)
        else:
            item = rng.choice(items)
            fork.add(item, EX.ingredient, EX[f"fresh{serial}_{step}"])
            fork.add(item, EX.title, Literal(f"zucchini{serial}x{step}"))
            touched.add(item)
            changed.append(item)
    changed = [item for item in changed if item in items]
    return fork, touched, changed


def _corpus(seed: int):
    rng = random.Random(seed)
    graph = Graph()
    for i in range(30):
        _add_item(graph, rng, f"r{i:02d}")
    return graph, rng


def _model_state(model: VectorSpaceModel) -> tuple:
    profiles = [
        (item, list(profile.tf.items()), list(profile.numerics.items()))
        for item, profile in model._profiles.items()
    ]
    ranges = {
        path: (r.low, r.high, r.count) for path, r in model._ranges.items()
    }
    vectors = [(item, list(model.vector(item).items())) for item in model.items]
    return profiles, model.stats.num_docs, dict(model.stats._df), ranges, vectors


def _text_state(index: TextIndex) -> tuple:
    overall = {token: set(items) for token, items in index._overall.items()}
    by_property = {
        prop: {token: set(items) for token, items in sub.items()}
        for prop, sub in index._by_property.items()
    }
    posted = {item: set(pairs) for item, pairs in index._posted.items()}
    return overall, by_property, posted


def _cold_model(graph: Graph, items) -> VectorSpaceModel:
    model = VectorSpaceModel(graph, schema=Schema(graph))
    model.index_items(items)
    return model


def _cold_text(graph: Graph, items) -> TextIndex:
    index = TextIndex(graph)
    index.index_items(items)
    return index


@pytest.mark.parametrize("seed", range(5))
def test_model_advance_equals_a_cold_build(seed):
    graph, rng = _corpus(seed)
    prior = _cold_model(graph, _items(graph))
    for serial in range(4):
        before = _model_state(prior)
        fork, touched, changed = _delta(graph, rng, serial)
        items = _items(fork)
        advanced = VectorSpaceModel.advance(
            prior, fork, Schema(fork), items, touched
        )
        cold = _cold_model(fork, items)
        assert _model_state(advanced) == _model_state(cold)
        assert _model_state(prior) == before
        for item in items:
            if item not in touched and item in prior:
                assert advanced.profile(item) is prior.profile(item)
        for item in changed:
            stale = VectorSpaceModel.advance(
                prior, fork, Schema(fork), items, touched - {item}
            )
            assert _model_state(stale) != _model_state(cold)
        graph, prior = fork, advanced


@pytest.mark.parametrize("seed", range(5))
def test_text_index_advance_equals_a_cold_build(seed):
    graph, rng = _corpus(seed)
    prior = _cold_text(graph, _items(graph))
    for serial in range(4):
        before = _text_state(prior)
        fork, touched, changed = _delta(graph, rng, serial)
        items = _items(fork)
        advanced = TextIndex.advance(prior, fork, items, touched)
        assert _text_state(advanced) == _text_state(_cold_text(fork, items))
        assert _text_state(prior) == before
        for item in changed:
            stale = TextIndex.advance(prior, fork, items, touched - {item})
            assert _text_state(stale) != _text_state(_cold_text(fork, items))
        graph, prior = fork, advanced
