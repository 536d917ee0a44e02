"""Tests for the Dataguides-style structural summary."""

import datetime as dt

import pytest

from repro.rdf import (
    Graph,
    Literal,
    Namespace,
    RDF,
    Schema,
    StructuralSummary,
)

EX = Namespace("http://sm.example/")


@pytest.fixture()
def graph():
    g = Graph()
    for i in range(4):
        recipe = EX[f"r{i}"]
        g.add(recipe, RDF.type, EX.Recipe)
        g.add(recipe, EX.cuisine, EX.greek if i < 2 else EX.mexican)
        g.add(recipe, EX.ingredient, EX.apple)
        g.add(recipe, EX.ingredient, EX[f"extra{i}"])
        g.add(recipe, EX.serves, Literal(i + 1))
        if i == 0:
            g.add(recipe, EX.note, Literal("only sometimes present"))
    for i in range(2):
        person = EX[f"p{i}"]
        g.add(person, RDF.type, EX.Person)
        g.add(person, EX.name, Literal(f"Person {i}"))
        g.add(person, EX.born, Literal(dt.date(1980 + i, 1, 1)))
    return g


@pytest.fixture()
def summary(graph):
    return StructuralSummary(graph)


class TestTypes:
    def test_all_types_found(self, summary):
        types = {t.rdf_type for t in summary.types}
        assert types == {EX.Recipe, EX.Person}

    def test_instance_counts(self, summary):
        assert summary.type_summary(EX.Recipe).instance_count == 4
        assert summary.type_summary(EX.Person).instance_count == 2

    def test_types_sorted_by_size(self, summary):
        counts = [t.instance_count for t in summary.types]
        assert counts == sorted(counts, reverse=True)

    def test_missing_type_is_none(self, summary):
        assert summary.type_summary(EX.Ghost) is None


class TestProperties:
    def _prop(self, summary, prop):
        recipe = summary.type_summary(EX.Recipe)
        return next(p for p in recipe.properties if p.prop == prop)

    def test_coverage(self, summary):
        assert self._prop(summary, EX.cuisine).coverage == 4
        assert self._prop(summary, EX.note).coverage == 1

    def test_properties_sorted_by_coverage(self, summary):
        recipe = summary.type_summary(EX.Recipe)
        coverages = [p.coverage for p in recipe.properties]
        assert coverages == sorted(coverages, reverse=True)

    def test_cardinality(self, summary):
        ingredient = self._prop(summary, EX.ingredient)
        assert ingredient.min_cardinality == 2
        assert ingredient.max_cardinality == 2
        assert ingredient.is_multivalued
        assert not self._prop(summary, EX.cuisine).is_multivalued

    def test_value_kinds(self, summary):
        assert self._prop(summary, EX.cuisine).dominant_kind == "object"
        assert self._prop(summary, EX.serves).dominant_kind == "number"
        assert self._prop(summary, EX.note).dominant_kind == "string"

    def test_temporal_kind(self, summary):
        person = summary.type_summary(EX.Person)
        born = next(p for p in person.properties if p.prop == EX.born)
        assert born.dominant_kind == "temporal"

    def test_samples_capped_and_distinct(self, graph):
        summary = StructuralSummary(graph, max_samples=2)
        recipe = summary.type_summary(EX.Recipe)
        ingredient = next(
            p for p in recipe.properties if p.prop == EX.ingredient
        )
        assert len(ingredient.samples) == 2
        assert len(set(ingredient.samples)) == 2

    def test_rdf_type_itself_excluded(self, summary):
        recipe = summary.type_summary(EX.Recipe)
        assert all(p.prop != RDF.type for p in recipe.properties)

    def test_annotation_properties_excluded(self, graph):
        Schema(graph).set_label(EX.r0, "labelled")
        summary = StructuralSummary(graph)
        recipe = summary.type_summary(EX.Recipe)
        from repro.rdf.vocab import RDFS

        assert all(p.prop != RDFS.label for p in recipe.properties)


class TestRender:
    def test_render_contains_types_and_props(self, summary):
        text = summary.render()
        assert "Recipe (4 instances)" in text
        assert "cuisine" in text
        assert "e.g." in text

    def test_render_marks_multivalued(self, summary):
        assert "x2..2" in summary.render()

    def test_empty_graph(self):
        summary = StructuralSummary(Graph())
        assert summary.types == []
        assert "REPOSITORY STRUCTURE" in summary.render()


def test_render_is_the_same_under_any_hash_seed():
    """Instances and values are sampled in a fixed order, not in the
    set order that string hash randomization picks per process."""
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    script = (
        "from repro.datasets import inbox\n"
        "from repro.rdf import StructuralSummary\n"
        "print(StructuralSummary(inbox.build_corpus().graph).render())\n"
    )
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    renders = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        renders.add(done.stdout)
    assert len(renders) == 1
