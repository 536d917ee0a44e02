"""Tier-1 differential fuzzing: fixed seeds, fixed budgets.

The acceptance bar for the harness: a ≥2,000-step budget spread over
≥20 random corpora runs with zero divergences, deterministically.  The
sensitivity tests then re-introduce known bug shapes via monkeypatching
and assert the same harness *does* diverge — a fuzzer that can't fail
proves nothing.
"""

import math
import random

from repro.check import (
    CommandGenerator,
    Divergence,
    DifferentialRunner,
    FuzzConfig,
    fuzz,
    random_corpus,
)
from repro.check.corpus import FUZZ
from repro.query.ast import RangeIndex
from repro.rdf import Literal


class TestFixedSeedBudget:
    def test_two_thousand_steps_over_twenty_corpora_run_clean(self):
        report = fuzz(20260807, steps=2000, corpora=20)
        assert report.ok, report.failure.detail
        assert report.steps_run >= 2000
        assert report.corpora_run >= 20

    def test_thorough_config_probes_every_step(self):
        report = fuzz(99, steps=120, corpora=3, config=FuzzConfig.thorough())
        assert report.ok, report.failure.detail

    def test_runs_are_deterministic(self):
        first = fuzz(4242, steps=200, corpora=4)
        second = fuzz(4242, steps=200, corpora=4)
        assert first.ok and second.ok
        assert first.steps_run == second.steps_run

    def test_generator_is_deterministic(self):
        corpus = random_corpus(17)
        runs = []
        for _ in range(2):
            generator = CommandGenerator(random.Random(5), corpus)
            runner = DifferentialRunner(corpus)
            generator.bind(runner)
            commands = []
            for _step in range(50):
                command = generator.next_command()
                commands.append(command)
                runner.step(command)
            runs.append(commands)
        assert runs[0] == runs[1]


class TestHarnessSensitivity:
    """Break the engine on purpose; the fuzzer must notice."""

    def test_catches_matches_vs_candidates_disagreement(self, monkeypatch):
        # The historical NaN bug shape, moved to where Range extents now
        # come from: the range index keeps NaN readings that per-item
        # matches excludes, so the bitset path and the naive oracle
        # disagree.
        def buggy_reading(value):
            if not isinstance(value, Literal):
                return None
            return value.as_number()  # the missing math.isnan guard

        monkeypatch.setattr(RangeIndex, "reading", staticmethod(buggy_reading))
        report = fuzz(20260807, steps=2000, corpora=20, minimize_failures=False)
        assert not report.ok, "fuzzer missed a matches/candidates divergence"
        assert "extension differs" in report.failure.detail or (
            "preview count" in report.failure.detail
        )

    def test_catches_nondeterministic_suggestions(self, monkeypatch):
        from repro.service.navigation import NavigationService

        flip = {"n": 0}
        original = NavigationService.suggest

        def flaky_suggest(self, workspace, state):
            result = original(self, workspace, state)
            flip["n"] += 1
            if flip["n"] % 2 == 0 and result.all_suggestions():
                result.all_suggestions()[0].title += " (flaky)"
            return result

        monkeypatch.setattr(NavigationService, "suggest", flaky_suggest)
        report = fuzz(7, steps=400, corpora=4, minimize_failures=False)
        assert not report.ok
        assert "nondeterministic" in report.failure.detail

    def test_catches_a_memoized_history_analyst(self, monkeypatch):
        # The refinement trail is per session, so declaring its analyst
        # view-pure serves one history's "Back to" chips to another:
        # the memo-served pane must then differ from a cold engine's.
        from repro.core.analysts.history import RefinementTrailAnalyst

        monkeypatch.setattr(RefinementTrailAnalyst, "view_pure", True)
        report = fuzz(7, steps=100, corpora=2, minimize_failures=False)
        assert not report.ok, "fuzzer missed a memoized history analyst"
        assert "nondeterministic" in report.failure.detail

    def test_catches_a_corrupted_term_fragment(self, monkeypatch):
        # Served states are spliced from memoized term fragments; one
        # wrong fragment must trip both the fuzzer's per-step byte check
        # and the wire check, whose expected bodies encode to_dict().
        from repro.net.wirecheck import run_wire_check
        from repro.service import serialize

        target = FUZZ["item3"]  # every corpus has at least 12 items
        original = serialize._fragment_of

        def corrupting(node):
            data = original(node)
            if node == target:
                data = data.replace(b"item3", b"item33")
                object.__setattr__(node, "_json", data)  # the memo is wrong
            return data

        monkeypatch.setattr(serialize, "_fragment_of", corrupting)
        report = fuzz(7, steps=40, corpora=2, minimize_failures=False)
        assert not report.ok, "fuzzer missed a corrupted term fragment"
        assert "spliced state bytes" in report.failure.detail
        wire = run_wire_check(1337, steps=10, corpora=1)
        assert not wire.ok, "wire check missed a corrupted term fragment"
        assert "differ" in wire.failure.detail

    def test_catches_a_corrupted_view_body(self, monkeypatch):
        # A view is encoded once and its body memoized; every later
        # state that holds it on its back stack splices the memo.  A
        # memo that goes wrong after a correct first encoding must trip
        # both the fuzzer's per-step byte check and the wire check.
        from repro.net.wirecheck import run_wire_check
        from repro.service.state import ViewState

        original = ViewState.json_bytes

        def poisoning(view):
            fresh = "_json" not in view.__dict__
            data = original(view)
            if fresh and view.is_collection:
                wrong = data.replace(b'"collection"', b'"collectiom"')
                object.__setattr__(view, "_json", wrong)  # the memo is wrong
            return data

        monkeypatch.setattr(ViewState, "json_bytes", poisoning)
        report = fuzz(7, steps=40, corpora=2, minimize_failures=False)
        assert not report.ok, "fuzzer missed a corrupted view body"
        assert "spliced state bytes" in report.failure.detail
        wire = run_wire_check(1337, steps=10, corpora=1)
        assert not wire.ok, "wire check missed a corrupted view body"
        assert "differ" in wire.failure.detail


def test_corpora_include_adversarial_literals():
    # Guard the guard: corpora really do contain NaN readings,
    # otherwise the sensitivity test above is vacuous.
    found_nan = False
    for seed in range(40):
        corpus = random_corpus(seed)
        for item in corpus.workspace.items:
            for prop in corpus.numeric_props:
                for value in corpus.workspace.graph.objects(item, prop):
                    if isinstance(value, Literal):
                        number = value.as_number()
                        if number is not None and math.isnan(number):
                            found_nan = True
    assert found_nan, "no corpus produced a NaN reading in 40 seeds"
