"""Random small corpora for the differential harness.

Each corpus is a deliberately messy little RDF graph: several types,
discrete facet properties with overlapping value vocabularies, sparse
numeric properties (including the occasional non-finite literal — the
web-scale-RDF adversarial case), short text titles drawn from a small
vocabulary so full-text matches are neither empty nor total, untyped
annotation nodes that must stay out of the universe, and blank nodes as
values.  Everything derives from one ``random.Random`` so a corpus is
reproducible from its seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.workspace import Workspace
from ..rdf import RDF, BlankNode, Graph, Literal, Namespace, Resource

__all__ = ["FuzzCorpus", "random_corpus"]

FUZZ = Namespace("http://fuzz.example/")

#: Words that seed titles; stems collide on purpose (run/running).
WORDS = [
    "corn", "salad", "pepper", "braise", "running", "run", "magnet",
    "navigation", "query", "empty", "graph", "thursday", "august",
]

COLORS = ["red", "blue", "green", "mauve"]
SIZES = ["small", "big"]
SHAPES = ["round", "square", "flat"]


@dataclass
class FuzzCorpus:
    """A generated workspace plus the vocabulary commands draw from."""

    seed: int
    workspace: Workspace
    props: list[Resource]            # discrete facet properties
    values: list                     # every discrete value used
    numeric_props: list[Resource]    # properties with numeric literals
    numeric_span: tuple[float, float]
    words: list[str]                 # text vocabulary for searches
    link_props: list[Resource] = field(default_factory=list)  # item→item edges


def random_corpus(seed: int) -> FuzzCorpus:
    """Build a reproducible random workspace from a seed."""
    rng = random.Random(seed)
    g = Graph()

    n_items = rng.randint(12, 36)
    n_types = rng.randint(1, 3)
    types = [FUZZ[f"Type{t}"] for t in range(n_types)]

    color, size, shape = FUZZ.color, FUZZ.size, FUZZ.shape
    props = [color, size, shape]
    palette = {
        color: [FUZZ[v] for v in COLORS],
        size: [FUZZ[v] for v in SIZES],
        shape: [FUZZ[v] for v in SHAPES] + [BlankNode("shade0")],
    }
    numeric_props = [FUZZ.weight, FUZZ.year]
    low, high = 0.0, 100.0

    for i in range(n_items):
        item = FUZZ[f"item{i}"]
        g.add(item, RDF.type, rng.choice(types))
        for prop in props:
            # Sparse facets: some items miss a property entirely, some
            # carry several values for it.
            for _ in range(rng.choice([0, 1, 1, 1, 2])):
                g.add(item, prop, rng.choice(palette[prop]))
        for prop in numeric_props:
            draw = rng.random()
            if draw < 0.15:
                continue  # no reading at all
            if draw < 0.20:
                # Adversarial literal: non-numeric or non-finite.
                g.add(item, prop, Literal(rng.choice(["nan", "inf", "n/a"])))
                continue
            g.add(item, prop, Literal(round(rng.uniform(low, high), 1)))
        title = " ".join(
            rng.choice(WORDS) for _ in range(rng.randint(2, 5))
        )
        g.add(item, FUZZ.title, Literal(f"{title} number {i}"))

    # Item-to-item link edges: a sparse, cyclic relation for property
    # paths (forward, inverse, bounded and transitive closures).  A
    # separately-seeded rng keeps every draw above bit-identical to
    # pre-path corpora for the same seed.
    link = FUZZ.link
    link_rng = random.Random(f"links:{seed}")
    item_nodes = [FUZZ[f"item{i}"] for i in range(n_items)]
    for item in item_nodes:
        for _ in range(link_rng.choice([0, 1, 1, 2])):
            # Self-loops happen, and that is the point.
            g.add(item, link, link_rng.choice(item_nodes))
    if len(item_nodes) >= 2:
        # Guarantee at least one 2-cycle regardless of the draws above.
        g.add(item_nodes[0], link, item_nodes[1])
        g.add(item_nodes[1], link, item_nodes[0])

    # Untyped annotation nodes: subjects that must stay outside the
    # universe even though they carry properties items also use.
    for a in range(rng.randint(0, 4)):
        note = FUZZ[f"note{a}"]
        g.add(note, FUZZ.title, Literal("annotation corn"))
        g.add(note, color, FUZZ.red)

    workspace = Workspace(g)
    all_values = sorted(
        {v for vs in palette.values() for v in vs}, key=lambda n: n.n3()
    )
    return FuzzCorpus(
        seed=seed,
        workspace=workspace,
        props=props,
        values=all_values,
        numeric_props=numeric_props,
        numeric_span=(low, high),
        words=WORDS + ["zebra"],  # one word that never matches
        link_props=[link],
    )
