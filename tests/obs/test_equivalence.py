"""Tracing is pure observation: enabled vs disabled changes no output.

Over seeded-random predicate trees (reusing the bitset-equivalence
generators) and over a full suggestion flow, a traced engine must return
exactly what an untraced one does — and both exactly what
``naive_extent`` computes — with and without ``within=`` restrictions.
"""

import random

import pytest

from repro.browser.session import Session
from repro.check.reference import naive_extent
from repro.core.workspace import Workspace
from repro.obs import ManualClock, Observability
from repro.query import HasValue, QueryEngine, TypeIs
from tests.query.test_bitset_equivalence import _leaf_pool, _random_tree


def _traced_obs():
    return Observability(tracing=True, clock=ManualClock())


class TestQueryEquivalence:
    @pytest.fixture(scope="class")
    def engines(self, recipe_workspace):
        """A traced and a plain engine over one shared context."""
        context = recipe_workspace.query_context
        return {
            "traced": QueryEngine(context, obs=_traced_obs()),
            "plain": QueryEngine(context),
        }

    def test_random_trees_agree(self, engines, recipe_corpus):
        leaves = _leaf_pool(recipe_corpus)
        context = engines["plain"].context
        rng = random.Random(20260806)
        for _ in range(40):
            predicate = _random_tree(rng, leaves, depth=3)
            expected = naive_extent(predicate, set(context.universe), context)
            for engine in engines.values():
                assert engine.evaluate(predicate) == expected
                assert engine.count(predicate) == len(expected)

    def test_random_trees_agree_within(self, engines, recipe_corpus):
        leaves = _leaf_pool(recipe_corpus)
        context = engines["plain"].context
        universe = sorted(context.universe, key=lambda n: n.n3())
        rng = random.Random(41)
        for _ in range(25):
            predicate = _random_tree(rng, leaves, depth=2)
            within = rng.sample(universe, rng.randint(0, len(universe)))
            expected = naive_extent(predicate, set(within), context)
            for engine in engines.values():
                assert engine.evaluate(predicate, within=within) == expected
                assert engine.count(predicate, within=within) == len(expected)

    def test_traced_engines_recorded_spans(self, engines):
        """Sanity: the traced engine above really was tracing."""
        tracer = engines["traced"].obs.tracer
        assert tracer.enabled
        assert any(span.name == "query.node" for span in tracer.spans())


class TestSuggestionEquivalence:
    @pytest.fixture(scope="class")
    def flows(self, recipe_corpus):
        """The same navigation flow under a traced and an untraced workspace."""

        def run(obs):
            workspace = Workspace(
                recipe_corpus.graph,
                schema=recipe_corpus.schema,
                items=recipe_corpus.items,
                obs=obs,
            )
            session = Session(workspace)
            props = recipe_corpus.extras["properties"]
            session.run_query(TypeIs(recipe_corpus.extras["types"]["Recipe"]))
            first = session.suggestions()
            italian = HasValue(
                props["cuisine"], recipe_corpus.extras["cuisines"]["Italian"]
            )
            preview = session.preview_count(italian)
            session.refine(italian)
            second = session.suggestions()
            return {
                "first": [
                    (s.advisor, s.title, s.weight)
                    for s in first.all_suggestions()
                ],
                "second": [
                    (s.advisor, s.title, s.weight)
                    for s in second.all_suggestions()
                ],
                "preview": preview,
                "items": list(session.current.items),
                "ranked": [
                    hit.item
                    for hit in workspace.vector_store.search_text("garlic", 10)
                ],
            }

        return run(_traced_obs()), run(None)

    def test_suggestions_identical(self, flows):
        traced, plain = flows
        assert traced["first"] == plain["first"]
        assert traced["second"] == plain["second"]

    def test_results_identical(self, flows):
        traced, plain = flows
        assert traced["preview"] == plain["preview"]
        assert traced["items"] == plain["items"]

    def test_ranking_identical(self, flows):
        traced, plain = flows
        assert traced["ranked"] == plain["ranked"]
