"""Corpora the workloads serve, built once per checkout and cached.

The corpora are fixed per workload; ``--seed`` never touches them.
Building them costs more than a run is allowed to spend, so the first
run in a checkout builds every cache (for all workloads, whichever is
asked for) and later runs only read them:

* ``recipes-<n>.store`` — a datom-log store of ``recipes.build_corpus(n,
  seed=7)``, served by ``repro serve --store --ingest``;
* ``recipes-<n>.extra.json`` — the N-Triples of the recipes that
  ``build_corpus(n + 400, seed=7)`` adds after the first ``n`` (the
  generator is sequential, so they extend the stored corpus), one text
  per recipe: the ingest stream;
* ``scaled-<n>.store`` — a store of ``scaled.build_corpus(n)``;
* ``scaled-<n>.facts.json`` — the load generator's own copy of the
  scaled data (category, tags, year, weight per item), from which it
  picks refinements and computes the counts it verifies.

Each cache is written under a temporary name and renamed into place,
so an interrupted build never leaves a half-written cache behind.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import shutil

from .paths import CACHE

RECIPE_SEED = 7
EXTRA_RECIPES = 400


def _publish(tmp: pathlib.Path, final: pathlib.Path) -> None:
    try:
        os.replace(tmp, final)
    except OSError:
        # Another run published the same cache first; keep theirs.
        if tmp.is_dir():
            shutil.rmtree(tmp, ignore_errors=True)
        elif tmp.exists():
            tmp.unlink()


def _tmp(final: pathlib.Path) -> pathlib.Path:
    return final.with_name(f".tmp-{os.getpid()}-{final.name}")


def _write_store(graph, final: pathlib.Path) -> None:
    from repro.store import LogStore

    tmp = _tmp(final)
    shutil.rmtree(tmp, ignore_errors=True)
    LogStore.init(tmp).append_log(graph.log, batch=100_000)
    _publish(tmp, final)


def _write_json(payload, final: pathlib.Path) -> None:
    tmp = _tmp(final)
    tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    _publish(tmp, final)


def recipe_store(size: int) -> pathlib.Path:
    return CACHE / f"recipes-{size}.store"


def recipe_extras_path(size: int) -> pathlib.Path:
    return CACHE / f"recipes-{size}.extra.json"


def scaled_store(size: int) -> pathlib.Path:
    return CACHE / f"scaled-{size}.store"


def scaled_facts_path(size: int) -> pathlib.Path:
    return CACHE / f"scaled-{size}.facts.json"


def ensure_recipes(size: int) -> None:
    """Build the stored recipe corpus and its ingest stream if missing."""
    store, extras = recipe_store(size), recipe_extras_path(size)
    if store.is_dir() and extras.is_file():
        return
    from repro.datasets import recipes
    from repro.rdf.ntriples import serialize_ntriples

    CACHE.mkdir(parents=True, exist_ok=True)
    if not store.is_dir():
        corpus = recipes.build_corpus(n_recipes=size, seed=RECIPE_SEED)
        _write_store(corpus.graph, store)
    if not extras.is_file():
        grown = recipes.build_corpus(
            n_recipes=size + EXTRA_RECIPES, seed=RECIPE_SEED
        )
        texts = [
            serialize_ntriples(grown.graph.triples(recipe, None, None))
            for recipe in grown.items[size:]
        ]
        _write_json(texts, extras)


def ensure_scaled(size: int) -> None:
    """Build the stored scaled corpus and the generator's facts if missing."""
    store, facts = scaled_store(size), scaled_facts_path(size)
    if store.is_dir() and facts.is_file():
        return
    from repro.datasets import scaled

    CACHE.mkdir(parents=True, exist_ok=True)
    corpus = scaled.build_corpus(size, freeze=False)
    if not store.is_dir():
        _write_store(corpus.graph, store)
    if not facts.is_file():
        _write_json(_facts(corpus), facts)


def _number(lexical: str) -> float | None:
    """A literal's finite numeric reading, or None.

    Every range the generator sends has two finite bounds, so a
    non-numeric ("n/a") or non-finite ("nan", "inf") reading matches
    none of them.
    """
    try:
        number = float(lexical)
    except ValueError:
        return None
    return number if math.isfinite(number) else None


def _facts(corpus) -> dict:
    """Per-item facet values of the scaled corpus, as plain JSON.

    Items are the typed subjects, exactly the population ``repro serve
    --store`` navigates.
    """
    from repro.rdf.vocab import RDF

    graph, extras = corpus.graph, corpus.extras
    items = sorted(
        {s for s, _p, _o in graph.triples(None, RDF.type, None)},
        key=lambda node: node.n3(),
    )
    categories = [c.uri for c in extras["categories"]]
    tags = [t.uri for t in extras["tags"]]
    category_index = {uri: i for i, uri in enumerate(categories)}
    tag_index = {uri: i for i, uri in enumerate(tags)}

    def values(item, prop):
        return [o for _s, _p, o in graph.triples(item, prop, None)]

    def numbers(item, prop):
        readings = (_number(o.lexical) for o in values(item, prop))
        return sorted(r for r in readings if r is not None)

    return {
        "items": [item.uri for item in items],
        "categories": categories,
        "tags": tags,
        "props": {
            name: extras[f"p_{name}"].uri
            for name in ("category", "tag", "year", "weight")
        },
        "category": [
            [category_index[o.uri] for o in values(i, extras["p_category"])]
            for i in items
        ],
        "tag": [
            sorted(tag_index[o.uri] for o in values(i, extras["p_tag"]))
            for i in items
        ],
        "year": [numbers(i, extras["p_year"]) for i in items],
        "weight": [numbers(i, extras["p_weight"]) for i in items],
    }


def load_facts(size: int) -> dict:
    return json.loads(scaled_facts_path(size).read_text(encoding="utf-8"))


def load_recipe_extras(size: int) -> list[str]:
    return json.loads(recipe_extras_path(size).read_text(encoding="utf-8"))
