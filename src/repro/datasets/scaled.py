"""Deterministic synthetic corpora at 10–100× the paper's scale.

The ROADMAP targets interactive navigation at corpus sizes far beyond
the study's 6,444 recipes.  This module generates an item population of
any requested size with the facet shape the hot paths care about —
shared by the analyst-record tests, the served-click benchmark's
facets workload, and the ``benchmarks/test_perf_scaled.py`` regression
bench, so they measure the same data:

* one ``rdf:type`` per item drawn from 8 types;
* a ``category`` facet over 32 values (dense postings);
* a ``tag`` facet over 256 values, 0–3 per item (sparse postings);
* numeric ``year``/``weight`` literals, with a sprinkle of the
  adversarial shapes the fuzz corpus uses ("nan", "inf", "n/a"
  strings) so scaled runs hit the same literal edge cases;
* a text ``title`` so profiles exercise the text/annotation paths.

Everything is deterministic given ``(n_items, seed)`` — the generator
uses one private :class:`random.Random` and no ambient entropy.
"""

from __future__ import annotations

import random

from ..rdf.graph import Graph
from ..rdf.namespace import Namespace
from ..rdf.schema import Schema, ValueType
from ..rdf.terms import Literal
from ..rdf.vocab import RDF
from .base import Corpus

__all__ = ["NS", "N_TYPES", "N_CATEGORIES", "N_TAGS", "build_corpus"]

NS = Namespace("http://repro.example/scaled/")

N_TYPES = 8
N_CATEGORIES = 32
N_TAGS = 256

#: One item in this many carries an adversarial (non-numeric-parseable
#: or non-finite) literal on a numeric property.
_ADVERSARIAL_EVERY = 97


def build_corpus(
    n_items: int = 65_536, seed: int = 20260808, freeze: bool = True
) -> Corpus:
    """A scaled corpus of ``n_items`` items, deterministic in ``seed``.

    ``extras`` carries the property/value handles tests and benches
    refine on: ``types``, ``categories``, ``tags``, and the property
    resources under ``p_*`` keys.
    """
    rng = random.Random(seed)
    graph = Graph()
    schema = Schema(graph)

    p_category = NS["category"]
    p_tag = NS["tag"]
    p_year = NS["year"]
    p_weight = NS["weight"]
    p_title = NS["title"]

    types = [NS[f"Type{i}"] for i in range(N_TYPES)]
    categories = [NS[f"category/{i:02d}"] for i in range(N_CATEGORIES)]
    tags = [NS[f"tag/{i:03d}"] for i in range(N_TAGS)]

    for label, prop in (
        ("category", p_category),
        ("tag", p_tag),
        ("year", p_year),
        ("weight", p_weight),
        ("title", p_title),
    ):
        schema.set_label(prop, label)
    schema.set_value_type(p_year, ValueType.INTEGER)
    schema.set_value_type(p_weight, ValueType.FLOAT)
    schema.set_value_type(p_title, ValueType.TEXT)
    for i, rtype in enumerate(types):
        schema.set_label(rtype, f"Type {i}")
    for i, category in enumerate(categories):
        schema.set_label(category, f"Category {i:02d}")

    items = []
    for i in range(n_items):
        item = NS[f"item/{i:06d}"]
        items.append(item)
        graph.add(item, RDF.type, types[i % N_TYPES])
        # Zipf-ish category skew: low categories are dense, high sparse.
        category = categories[min(int(rng.expovariate(0.18)), N_CATEGORIES - 1)]
        graph.add(item, p_category, category)
        for _ in range(rng.randint(0, 3)):
            graph.add(item, p_tag, tags[rng.randrange(N_TAGS)])
        if i % _ADVERSARIAL_EVERY == 13:
            graph.add(item, p_year, Literal(rng.choice(["nan", "inf", "n/a"])))
        else:
            graph.add(item, p_year, Literal(1900 + rng.randrange(126)))
        graph.add(item, p_weight, Literal(round(rng.uniform(0.0, 1000.0), 3)))
        graph.add(item, p_title, Literal(f"Item {i} alpha beta {i % 17}"))

    if freeze:
        graph.freeze()
    return Corpus(
        "scaled",
        graph,
        NS,
        items,
        extras={
            "types": types,
            "categories": categories,
            "tags": tags,
            "p_category": p_category,
            "p_tag": p_tag,
            "p_year": p_year,
            "p_weight": p_weight,
            "p_title": p_title,
            "seed": seed,
        },
    )
