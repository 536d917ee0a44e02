"""Tests for the semistructured vector space model (§5)."""

import datetime as dt
import math

import pytest

from repro.rdf import Graph, Literal, Namespace, RDF, Schema, ValueType
from repro.vsm import (
    Coord,
    KIND_NUM_COS,
    KIND_NUM_SIN,
    KIND_OBJECT,
    KIND_WORD,
    VectorSpaceModel,
)

EX = Namespace("http://m.example/")


def build_recipe_graph():
    """Figure 3's shape: recipes with object and text attributes."""
    g = Graph()
    for name, ingredients, title in [
        ("r1", [EX.apple, EX.flour], "Apple Cobbler Cake"),
        ("r2", [EX.apple, EX.sugar], "Apple Pie"),
        ("r3", [EX.beef, EX.onion], "Beef Stew"),
    ]:
        item = EX[name]
        g.add(item, RDF.type, EX.Recipe)
        for ing in ingredients:
            g.add(item, EX.ingredient, ing)
        g.add(item, EX.title, Literal(title))
    return g


def _advance(prior, graph, items, dirty):
    return VectorSpaceModel.advance(prior, graph, Schema(graph), items, dirty)


@pytest.fixture()
def model():
    g = build_recipe_graph()
    m = VectorSpaceModel(g)
    m.index_items([EX.r1, EX.r2, EX.r3])
    return m


class TestCoordinates:
    def test_object_values_become_object_coords(self, model):
        profile = model.profile(EX.r1)
        assert Coord((EX.ingredient.uri,), KIND_OBJECT, EX.apple.uri) in profile.tf

    def test_text_values_split_into_words(self, model):
        """Figure 4: lower-case string values are 'further split-up'."""
        profile = model.profile(EX.r1)
        kinds = {c.kind for c in profile.tf if c.path == (EX.title.uri,)}
        assert kinds == {KIND_WORD}
        tokens = {c.token for c in profile.tf if c.path == (EX.title.uri,)}
        assert len(tokens) == 3  # apple / cobbler / cake stems

    def test_type_is_a_coordinate_dimension(self, model):
        profile = model.profile(EX.r1)
        assert Coord((RDF.type.uri,), KIND_OBJECT, EX.Recipe.uri) in profile.tf

    def test_vector_unit_length(self, model):
        assert math.isclose(model.vector(EX.r1).norm(), 1.0)

    def test_ubiquitous_type_has_zero_weight(self, model):
        """rdf:type=Recipe occurs in all docs → idf 0 → dropped."""
        vector = model.vector(EX.r1)
        assert Coord((RDF.type.uri,), KIND_OBJECT, EX.Recipe.uri) not in vector


class TestSimilarity:
    def test_shared_ingredient_beats_disjoint(self, model):
        assert model.similarity(EX.r1, EX.r2) > model.similarity(EX.r1, EX.r3)

    def test_self_similarity_is_one(self, model):
        assert model.similarity(EX.r1, EX.r1) == pytest.approx(1.0)

    def test_collection_similarity(self, model):
        sim = model.similarity_to_collection(EX.r2, [EX.r1, EX.r3])
        assert sim > 0.0

    def test_centroid_unit_length(self, model):
        assert math.isclose(model.centroid([EX.r1, EX.r2]).norm(), 1.0)


class TestPerAttributeNormalization:
    def test_attribute_totals_balanced(self):
        """An attribute with many values weighs like one with few (§5.2)."""
        g = Graph()
        g.add(EX.d, RDF.type, EX.Doc)
        g.add(EX.d, EX.subject, Literal("alpha"))
        body = " ".join(["beta"] * 1 + ["gamma"] * 1 + ["delta"] * 8)
        g.add(EX.d, EX.body, Literal(body))
        # A second doc so idf is nonzero for d's terms.
        g.add(EX.e, RDF.type, EX.Doc)
        g.add(EX.e, EX.subject, Literal("omega"))
        g.add(EX.e, EX.body, Literal("psi chi phi"))
        m = VectorSpaceModel(g)
        m.index_items([EX.d, EX.e])
        profile = m.profile(EX.d)
        subject_total = sum(
            f for c, f in profile.tf.items() if c.path == (EX.subject.uri,)
        )
        body_total = sum(
            f for c, f in profile.tf.items() if c.path == (EX.body.uri,)
        )
        assert subject_total == pytest.approx(body_total)

    def test_ablation_flag_disables(self):
        g = build_recipe_graph()
        m = VectorSpaceModel(g, per_attribute_normalization=False)
        m.index_items([EX.r1])
        profile = m.profile(EX.r1)
        apple = Coord((EX.ingredient.uri,), KIND_OBJECT, EX.apple.uri)
        assert profile.tf[apple] == 1.0  # raw count, not 1/2


class TestNumericAttributes:
    def build(self, unit_circle=True):
        g = Graph()
        schema = Schema(g)
        schema.set_value_type(EX.when, ValueType.DATE)
        for name, day in [("a", 1), ("b", 2), ("c", 28)]:
            item = EX[name]
            g.add(item, RDF.type, EX.Mail)
            g.add(item, EX.when, Literal(dt.date(2003, 7, day)))
            g.add(item, EX.topic, EX[f"t{name}"])
        m = VectorSpaceModel(g, schema=schema, unit_circle_numerics=unit_circle)
        m.index_items([EX.a, EX.b, EX.c])
        return m

    def test_numeric_coords_present(self):
        m = self.build()
        # b sits mid-range so both circle components are non-zero; a is
        # the minimum, whose sin component is legitimately zero.
        vector = m.vector(EX.b)
        assert Coord((EX.when.uri,), KIND_NUM_COS, "") in vector
        assert Coord((EX.when.uri,), KIND_NUM_SIN, "") in vector

    def test_day_apart_more_similar_than_month(self):
        """The paper's Thu Jul 31 / Fri Aug 1 motivation."""
        m = self.build()
        assert m.similarity(EX.a, EX.b) > m.similarity(EX.a, EX.c)

    def test_ablation_treats_dates_as_tokens(self):
        m = self.build(unit_circle=False)
        vector = m.vector(EX.a)
        assert Coord((EX.when.uri,), KIND_NUM_COS, "") not in vector
        # a day apart is now just "different" — no date similarity at all
        assert m.similarity(EX.a, EX.b) == pytest.approx(
            m.similarity(EX.a, EX.c)
        )

    def test_numeric_range_recorded(self):
        m = self.build()
        value_range = m.numeric_range((EX.when.uri,))
        assert value_range is not None
        assert value_range.count == 3


class TestCompositions:
    def build(self, use_compositions=True):
        g = Graph()
        schema = Schema(g)
        schema.add_composition([EX.author, EX.expertise])
        for name, author in [("p1", EX.alice), ("p2", EX.bob)]:
            paper = EX[name]
            g.add(paper, RDF.type, EX.Paper)
            g.add(paper, EX.author, author)
        g.add(EX.alice, EX.expertise, EX.ir)
        g.add(EX.bob, EX.expertise, EX.db)
        m = VectorSpaceModel(g, schema=schema, use_compositions=use_compositions)
        m.index_items([EX.p1, EX.p2])
        return m

    def test_composed_coordinate_created(self):
        m = self.build()
        profile = m.profile(EX.p1)
        composed = Coord(
            (EX.author.uri, EX.expertise.uri), KIND_OBJECT, EX.ir.uri
        )
        assert composed in profile.tf

    def test_ablation_disables_compositions(self):
        m = self.build(use_compositions=False)
        assert all(len(c.path) == 1 for c in m.profile(EX.p1).tf)



class TestIncremental:
    def test_add_item_updates_stats(self, model):
        g = model.graph
        g.add(EX.r4, RDF.type, EX.Recipe)
        g.add(EX.r4, EX.ingredient, EX.apple)
        g.add(EX.r4, EX.title, Literal("Apple Tart"))
        model.add_item(EX.r4)
        assert len(model) == 4
        apple = Coord((EX.ingredient.uri,), KIND_OBJECT, EX.apple.uri)
        assert model.stats.doc_frequency(apple) == 3

    def test_vectors_reweighed_after_arrival(self, model):
        before = model.vector(EX.r1)
        g = model.graph
        g.add(EX.r4, RDF.type, EX.Recipe)
        g.add(EX.r4, EX.ingredient, EX.beef)
        model.add_item(EX.r4)
        after = model.vector(EX.r1)
        assert before != after  # idf moved, cache refreshed

    def test_reindex_replaces_profile(self, model):
        g = model.graph.fork()
        g.add(EX.r1, EX.ingredient, EX.sugar)
        advanced = _advance(model, g, model.items, {EX.r1})
        assert len(advanced) == 3
        sugar = Coord((EX.ingredient.uri,), KIND_OBJECT, EX.sugar.uri)
        assert sugar in advanced.profile(EX.r1).tf
        assert sugar not in model.profile(EX.r1).tf
        assert advanced.stats.doc_frequency(sugar) == 2

    def test_remove_item(self, model):
        advanced = _advance(model, model.graph, [EX.r1, EX.r2], set())
        assert EX.r3 not in advanced
        assert EX.r3 in model
        assert advanced.stats.num_docs == 2

    def test_item_listed_twice_counts_once(self):
        g = build_recipe_graph()
        twice = VectorSpaceModel(g)
        assert twice.index_items([EX.r1, EX.r2, EX.r1, EX.r3]) == 4
        once = VectorSpaceModel(g)
        once.index_items([EX.r1, EX.r2, EX.r3])
        assert twice.items == once.items
        assert twice.stats.num_docs == 3
        assert twice.stats._df == once.stats._df
        for item in once.items:
            assert twice.vector(item) == once.vector(item)

    def test_vector_of_unindexed_raises(self, model):
        with pytest.raises(KeyError):
            model.vector(EX.unknown)


class TestQueryVectors:
    def test_text_vector_matches_word_coords(self, model):
        query = model.text_vector("apple")
        assert query.dot(model.vector(EX.r1)) > 0.0
        assert query.dot(model.vector(EX.r3)) == 0.0

    def test_text_vector_empty_for_stop_words(self, model):
        assert len(model.text_vector("the and of")) == 0

    def test_pair_vector_object(self, model):
        query = model.pair_vector([(EX.ingredient, EX.apple)])
        assert query.dot(model.vector(EX.r2)) > 0.0

    def test_pair_vector_text_value(self, model):
        query = model.pair_vector([(EX.title, Literal("apple cake"))])
        assert query.dot(model.vector(EX.r1)) > 0.0

    def test_label_annotations_not_indexed(self):
        g = build_recipe_graph()
        schema = Schema(g)
        schema.set_label(EX.r1, "a label that should not be a coordinate")
        m = VectorSpaceModel(g, schema=schema)
        m.index_items([EX.r1])
        tokens = {c.token for c in m.profile(EX.r1).tf}
        assert "coordin" not in tokens and "label" not in tokens
