"""The differential fuzz loop: random commands, N interpreters, one truth.

``DifferentialRunner`` drives the production
:class:`~repro.service.navigation.NavigationService` and the naive
:class:`~repro.check.reference.ReferenceModel` with the same command
stream and raises :class:`Divergence` the moment they disagree — on the
view's extension, on which exception a bad command raises, on telemetry
deltas, on suggestion determinism/preview counts, on the JSON
round-trip of the session state, or on its spliced wire bytes
differing from the plain-dict encoding.

``fuzz`` wraps that in the seeded outer loop (many corpora, many
steps), and ``minimize`` shrinks a failing sequence with a ddmin-style
pass so the repro file a CI run uploads is short enough to read.
"""

from __future__ import annotations

import copy
import json
import random
import re
from dataclasses import dataclass, field, replace

from ..core.engine import NavigationEngine
from ..core.suggestions import Refine as RefineAction, RefineMode
from ..query.ast import (
    And,
    HasProperty,
    HasValue,
    Not,
    Or,
    Path,
    PathStep,
    Predicate,
    Range,
    TextMatch,
    TypeIs,
    ValueIn,
)
from ..rdf import RDF
from ..service import commands as cmd
from ..service.navigation import NavigationService
from ..service.serialize import value_json
from ..service.state import SessionState
from .corpus import FuzzCorpus, random_corpus
from .reference import ReferenceModel

#: Analysts whose chip titles end in "(N)", N items of the view.
_COUNTED_ANALYSTS = ("refine-by-property-value", "refine-by-path", "refine-by-text")
_TITLE_COUNT = re.compile(r"\((\d+)\)$")

__all__ = [
    "Divergence",
    "FuzzConfig",
    "FuzzFailure",
    "FuzzReport",
    "DifferentialRunner",
    "CommandGenerator",
    "run_commands",
    "minimize",
    "fuzz",
]


class Divergence(AssertionError):
    """The service and the reference model disagreed."""

    def __init__(self, step: int, command: cmd.Command, detail: str):
        super().__init__(f"step {step}: {command!r}: {detail}")
        self.step = step
        self.command = command
        self.detail = detail


@dataclass
class FuzzConfig:
    """Knobs for how aggressively each step is checked."""

    #: Run the (expensive) suggestion-cycle probe every N steps; 0 = off.
    suggest_every: int = 5
    #: Decode the state back from its JSON every N steps; 0 = off.  Its
    #: bytes are compared with the dict encoding at every step.
    roundtrip_every: int = 7
    #: Cap on refinement suggestions preview-probed per suggest cycle.
    probe_suggestions: int = 4
    #: After each clean corpus, run the log-replay oracle: the corpus
    #: graph's datom log written to a real store and replayed must
    #: reproduce bit-identical indexes and navigation (storecheck).
    store_oracle: bool = True

    @classmethod
    def thorough(cls) -> "FuzzConfig":
        """Probe everything at every step (used when minimizing)."""
        return cls(suggest_every=1, roundtrip_every=1, probe_suggestions=8)


@dataclass
class FuzzFailure:
    """One reproducible divergence."""

    corpus_seed: int
    step: int
    detail: str
    commands: list = field(default_factory=list)
    repro_path: str | None = None


@dataclass
class FuzzReport:
    """What a fuzz run covered, and the first failure if any."""

    seed: int
    steps_run: int = 0
    corpora_run: int = 0
    failure: FuzzFailure | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


class DifferentialRunner:
    """Applies one command stream to both interpreters, checking lockstep."""

    def __init__(
        self,
        corpus: FuzzCorpus,
        config: FuzzConfig | None = None,
        service: NavigationService | None = None,
    ):
        self.corpus = corpus
        self.workspace = corpus.workspace
        self.config = config if config is not None else FuzzConfig()
        self.service = service if service is not None else NavigationService()
        self.state: SessionState = self.service.initial_state(self.workspace)
        self._landing = self.state.view
        self.model = ReferenceModel(
            self.workspace, back_limit=self.state.back_limit
        )
        self.steps = 0
        self._refinement_counter = self.workspace.obs.metrics.counter(
            "session.refinements"
        )

    # -- one step ----------------------------------------------------------

    def step(self, command: cmd.Command) -> None:
        """Apply one command to both sides and cross-check everything."""
        self.steps += 1
        refinements_before = self._refinement_counter.value
        service_error: BaseException | None = None
        model_error: BaseException | None = None
        outcome = model_outcome = None
        try:
            transition = self.service.apply(self.workspace, self.state, command)
        except Exception as error:  # noqa: BLE001 - parity-checked below
            service_error = error
        try:
            model_outcome = self.model.apply(command)
        except Exception as error:  # noqa: BLE001 - parity-checked below
            model_error = error

        if (service_error is None) != (model_error is None) or (
            service_error is not None
            and type(service_error) is not type(model_error)
        ):
            raise Divergence(
                self.steps,
                command,
                f"exception mismatch: service={service_error!r} "
                f"model={model_error!r}",
            )
        if service_error is None:
            self.state = transition.state
            outcome = transition.outcome
            if isinstance(command, cmd.RemoveBookmark):
                if bool(outcome) != bool(model_outcome):
                    raise Divergence(
                        self.steps,
                        command,
                        f"outcome mismatch: service={outcome!r} "
                        f"model={model_outcome!r}",
                    )

        self._check_telemetry(command, refinements_before)
        self._check_state(command)
        config = self.config
        self._check_roundtrip(command)
        if config.suggest_every and self.steps % config.suggest_every == 0:
            self._check_suggestions(command)

    # -- the invariants ----------------------------------------------------

    def _fail(self, command: cmd.Command, detail: str) -> None:
        raise Divergence(self.steps, command, detail)

    def _check_state(self, command: cmd.Command) -> None:
        view, ref = self.state.view, self.model.view
        if view.kind != ref.kind:
            self._fail(command, f"view kind {view.kind!r} != {ref.kind!r}")
        if view.is_item:
            if view.item != ref.item:
                self._fail(command, f"item {view.item!r} != {ref.item!r}")
        else:
            if tuple(view.items) != tuple(ref.items):
                self._fail(
                    command,
                    f"view extension differs: service has "
                    f"{len(view.items)} item(s) "
                    f"{[n.n3() for n in view.items]}, model has "
                    f"{len(ref.items)} item(s) {[n.n3() for n in ref.items]}",
                )
            if view.query != ref.query:
                self._fail(
                    command, f"query {view.query!r} != {ref.query!r}"
                )
            if view.description != ref.description:
                self._fail(
                    command,
                    f"description {view.description!r} != "
                    f"{ref.description!r}",
                )
            if ref.query is not None and ref.shadow_query is not None:
                simplified = self.model.extent(ref.query)
                shadow = self.model.extent(ref.shadow_query)
                if simplified != shadow:
                    self._fail(
                        command,
                        "simplified query extension differs from the "
                        f"unsimplified shadow: {ref.query!r} keeps "
                        f"{len(simplified)}, {ref.shadow_query!r} keeps "
                        f"{len(shadow)}",
                    )
        if len(self.state.back_stack) != len(self.model.back_stack):
            self._fail(
                command,
                f"back depth {len(self.state.back_stack)} != "
                f"{len(self.model.back_stack)}",
            )
        if len(self.state.back_stack) > self.state.back_limit:
            self._fail(command, "back stack exceeds back_limit")
        if self.state.back_stack:
            top, ref_top = self.state.back_stack[-1], self.model.back_stack[-1]
            if (top.kind, top.item, tuple(top.items)) != (
                ref_top.kind, ref_top.item, tuple(ref_top.items)
            ):
                self._fail(command, "back stack tops differ")
        if len(self.state.trail) != len(self.model.trail):
            self._fail(
                command,
                f"trail length {len(self.state.trail)} != "
                f"{len(self.model.trail)}",
            )
        if tuple(self.state.bookmarks) != tuple(self.model.bookmarks):
            self._fail(command, "bookmarks differ")
        if tuple(self.state.visits) != tuple(self.model.visits):
            self._fail(command, "visit logs differ")

    def _check_telemetry(
        self, command: cmd.Command, refinements_before: int
    ) -> None:
        # Refine increments the counter before evaluating (even when the
        # refinement itself then fails); nothing else touches it.
        expected = 1 if isinstance(command, cmd.Refine) else 0
        delta = self._refinement_counter.value - refinements_before
        if delta != expected:
            self._fail(
                command,
                f"session.refinements moved by {delta}, expected {expected}",
            )

    def _check_roundtrip(self, command: cmd.Command) -> None:
        # The served encoding is spliced from memoized term fragments,
        # view bodies and view headers; it must be byte for byte the
        # plain-dict encoding of the response form.  The lossless form
        # that saves hold must decode back to the same state.
        wire = b"".join(self.state.json_parts())
        if wire != value_json(self.state.wire_dict()):
            self._fail(
                command, "spliced state bytes differ from the dict encoding"
            )
        every = self.config.roundtrip_every
        if not every or self.steps % every:
            return
        saved = value_json(self.state.to_dict())
        restored = SessionState.from_dict(json.loads(saved))
        if restored != self.state:
            self._fail(
                command, "state does not survive a JSON round-trip"
            )

    def _against_cold(self, command: cmd.Command, state: SessionState, what: str):
        """The service's pane for ``state``, checked against a cold one.

        A repeated view is served from the workspace's analysis memo, so
        asking the same engine twice could only agree.  The second cycle
        runs on a fresh engine whose analysts are copies: new objects,
        which miss the memo.
        """
        first = self.service.suggest(self.workspace, state)
        engine = self.service.engine
        cold = NavigationEngine(
            [copy.copy(analyst) for analyst in engine.analysts], engine.advisors
        )
        second = NavigationService(cold).suggest(self.workspace, state)
        key = lambda result: [
            (s.advisor, s.title, s.group) for s in result.all_suggestions()
        ]
        if key(first) != key(second):
            self._fail(command, f"{what} is nondeterministic")
        return first

    def _check_suggestions(self, command: cmd.Command) -> None:
        first = self._against_cold(command, self.state, "suggestion cycle")
        # Views rarely repeat in a random stream, but the landing view
        # does: from the second probe on it is memo-served, each time
        # under this state's own, newer history.
        self._against_cold(
            command,
            replace(self.state, view=self._landing),
            "landing suggestion cycle",
        )
        probes = self._probe_targets(first.all_suggestions())
        # The landing view borrows the universe mask and a back-stack
        # view keeps the mask its refinement computed: both are
        # mask-served, so both are preview-probed as well.
        self._check_previews(command, probes, self._landing, "landing view")
        if self.state.back_stack:
            self._check_previews(
                command, probes, self.state.back_stack[-1], "back-stack top"
            )
        counts = self._check_previews(
            command, probes, self.state.view, "current view"
        )
        for suggestion, naive_count in zip(probes, counts):
            if suggestion.analyst in _COUNTED_ANALYSTS:
                shown = _TITLE_COUNT.search(suggestion.title)
                if shown is None or int(shown.group(1)) != naive_count:
                    self._fail(
                        command,
                        f"{suggestion.analyst} chip {suggestion.title!r} "
                        f"for {suggestion.action.predicate!r}: naive count "
                        f"over the view is {naive_count}",
                    )

    def _check_previews(
        self, command: cmd.Command, probes, view, what: str
    ) -> list[int]:
        """Preview-probe one view of this session against the model.

        Returns the naive counts, one per probe (none for an item view).
        """
        if not view.is_collection:
            return []
        state = replace(self.state, view=view)
        items = set(view.items)
        counts = []
        for suggestion in probes:
            predicate = suggestion.action.predicate
            engine_count = self.service.preview_count(
                self.workspace, state, predicate, RefineMode.FILTER
            )
            naive_count = len(self.model.extent(predicate) & items)
            if engine_count != naive_count:
                self._fail(
                    command,
                    f"{what} preview count for {predicate!r}: "
                    f"engine {engine_count} != naive {naive_count}",
                )
            counts.append(naive_count)
        return counts

    def _probe_targets(self, suggestions) -> list:
        """The first few Refine suggestions, plus one of each counted kind.

        Property-value chips dominate the head of the list, so the first
        chip of each analyst in :data:`_COUNTED_ANALYSTS` is added
        wherever it ranks.
        """
        refines = [s for s in suggestions if isinstance(s.action, RefineAction)]
        chosen = refines[: self.config.probe_suggestions]
        for analyst in _COUNTED_ANALYSTS:
            if not any(s.analyst == analyst for s in chosen):
                chosen.extend(
                    [s for s in refines if s.analyst == analyst][:1]
                )
        return chosen


class CommandGenerator:
    """Draws weighted random commands, valid and deliberately invalid."""

    def __init__(self, rng: random.Random, corpus: FuzzCorpus):
        self.rng = rng
        self.corpus = corpus
        self.items = list(corpus.workspace.items)
        graph = corpus.workspace.graph
        self.types = sorted(
            {t for item in self.items for t in graph.objects(item, RDF.type)},
            key=lambda n: n.n3(),
        )

    # -- predicate soup ----------------------------------------------------

    def predicate(self, depth: int = 2) -> Predicate:
        rng = self.rng
        corpus = self.corpus
        if depth > 0 and rng.random() < 0.4:
            kind = rng.choice(["and", "or", "not"])
            if kind == "not":
                return Not(self.predicate(depth - 1))
            n_parts = rng.choice([0, 1, 2, 2, 3])  # empty And/Or on purpose
            parts = [self.predicate(depth - 1) for _ in range(n_parts)]
            return And(parts) if kind == "and" else Or(parts)
        leaf = rng.random()
        if leaf < 0.35:
            return HasValue(rng.choice(corpus.props), rng.choice(corpus.values))
        if leaf < 0.50 and self.types:
            return TypeIs(rng.choice(self.types))
        if leaf < 0.65:
            return TextMatch(rng.choice(corpus.words))
        if leaf < 0.80:
            return self.range_predicate()
        if leaf < 0.88:
            return HasProperty(rng.choice(corpus.props + corpus.numeric_props))
        if leaf < 0.96 and corpus.link_props:
            return self.path_predicate()
        values = rng.sample(
            corpus.values, k=rng.randint(1, min(3, len(corpus.values)))
        )
        return ValueIn(
            rng.choice(corpus.props),
            values,
            quantifier=rng.choice(ValueIn.QUANTIFIERS),
        )

    def path_predicate(self) -> Predicate:
        """A random property path over the corpus's cyclic link relation.

        Mixes link hops (item→item, so closures actually walk cycles and
        self-loops) with facet hops (whose objects are values, so paths
        dead-end — the empty-frontier case), inverse steps, and both
        bounded (``+``) and reflexive (``*``) closures.
        """
        rng = self.rng
        corpus = self.corpus
        pool = corpus.link_props * 3 + corpus.props
        steps = tuple(
            PathStep(
                rng.choice(pool),
                inverse=rng.random() < 0.3,
                closure=rng.choice(["", "", "", "+", "*"]),
            )
            for _ in range(rng.choice([1, 1, 2, 2, 3]))
        )
        value = None
        if rng.random() < 0.5:
            value = rng.choice(self.items + corpus.values)
        return Path(steps, value)

    def range_predicate(self) -> Predicate:
        rng = self.rng
        low, high = self.corpus.numeric_span
        a = round(rng.uniform(low - 10, high + 10), 1)
        b = round(rng.uniform(low - 10, high + 10), 1)
        a, b = min(a, b), max(a, b)
        prop = rng.choice(self.corpus.numeric_props)
        shape = rng.random()
        if shape < 0.25:
            return Range(prop, low=a)
        if shape < 0.5:
            return Range(prop, high=b)
        if shape < 0.6:
            return Range(prop, low=a, high=a)  # zero-width
        return Range(prop, low=a, high=b)

    # -- command soup ------------------------------------------------------

    def next_command(self) -> cmd.Command:
        rng = self.rng
        chips = len(self.model_chips())
        choices = [
            (10, lambda: cmd.Search(rng.choice(self.corpus.words))),
            (6, lambda: cmd.SearchWithin(rng.choice(self.corpus.words))),
            (16, lambda: cmd.Refine(self.predicate(), self._mode())),
            (6, lambda: cmd.SelectRefine(self.predicate(), self._mode())),
            (6, lambda: cmd.RunQuery(self.predicate())),
            (5, self._apply_range),
            (4, self._apply_path),
            (4, self._apply_compound),
            (3, self._apply_subcollection),
            (6, lambda: cmd.RemoveConstraint(self._chip_index(chips))),
            (6, lambda: cmd.NegateConstraint(self._chip_index(chips))),
            (5, lambda: cmd.GoItem(rng.choice(self.items))),
            (4, self._go_collection),
            (2, lambda: cmd.GoBookmarks()),
            (4, self._add_bookmark),
            (3, lambda: cmd.RemoveBookmark(rng.choice(self.items))),
            (6, lambda: cmd.Back()),
            (6, lambda: cmd.UndoRefinement()),
        ]
        total = sum(weight for weight, _ in choices)
        roll = rng.uniform(0, total)
        for weight, make in choices:
            roll -= weight
            if roll <= 0:
                return make()
        return choices[-1][1]()

    def bind(self, runner: DifferentialRunner) -> None:
        """Let chip-index choices see the current (model) query."""
        self._runner = runner

    def model_chips(self) -> list:
        runner = getattr(self, "_runner", None)
        if runner is None:
            return []
        return runner.model.view.constraints()

    def _mode(self) -> str:
        return self.rng.choices(
            [RefineMode.FILTER, RefineMode.EXCLUDE, RefineMode.EXPAND,
             "bogus-mode"],
            weights=[60, 20, 15, 5],
        )[0]

    def _chip_index(self, chips: int) -> int:
        # Mostly valid, sometimes one past either end.
        return self.rng.randint(-1, max(chips, 1))

    def _apply_range(self) -> cmd.Command:
        rng = self.rng
        low, high = self.corpus.numeric_span
        a = round(rng.uniform(low, high), 1)
        b = round(rng.uniform(low, high), 1)
        shape = rng.random()
        if shape < 0.08:
            return cmd.ApplyRange(rng.choice(self.corpus.numeric_props), None, None)
        if shape < 0.16 and a != b:
            # Inverted bounds: must raise ValueError on both sides.
            lo, hi = max(a, b), min(a, b)
            return cmd.ApplyRange(rng.choice(self.corpus.numeric_props), lo, hi)
        lo, hi = min(a, b), max(a, b)
        return cmd.ApplyRange(rng.choice(self.corpus.numeric_props), lo, hi)

    def _apply_path(self) -> cmd.Command:
        predicate = self.path_predicate()
        return cmd.ApplyPath(predicate.steps, predicate.value)

    def _apply_compound(self) -> cmd.Command:
        rng = self.rng
        n_parts = rng.choice([0, 1, 2, 2, 3])  # empty: ValueError parity
        parts = tuple(self.predicate(1) for _ in range(n_parts))
        mode = rng.choices(["and", "or", "xor"], weights=[45, 45, 10])[0]
        return cmd.ApplyCompound(parts, mode)

    def _apply_subcollection(self) -> cmd.Command:
        rng = self.rng
        values = tuple(
            rng.sample(
                self.corpus.values,
                k=rng.randint(1, min(4, len(self.corpus.values))),
            )
        )
        quantifier = rng.choices(
            ["any", "all", "most"], weights=[45, 45, 10]
        )[0]
        return cmd.ApplySubcollection(
            rng.choice(self.corpus.props), values, quantifier
        )

    def _go_collection(self) -> cmd.Command:
        rng = self.rng
        k = rng.randint(0, min(8, len(self.items)))
        sample = rng.sample(self.items, k=k)
        return cmd.GoCollection(tuple(sample), f"picked {k}")

    def _add_bookmark(self) -> cmd.Command:
        if self.rng.random() < 0.3:
            return cmd.AddBookmark(None)  # RuntimeError on collection views
        return cmd.AddBookmark(self.rng.choice(self.items))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def run_commands(
    corpus: FuzzCorpus,
    commands,
    config: FuzzConfig | None = None,
    service: NavigationService | None = None,
) -> DifferentialRunner:
    """Replay a fixed command list; raises :class:`Divergence` on a bug."""
    runner = DifferentialRunner(corpus, config=config, service=service)
    for command in commands:
        runner.step(command)
    return runner


def minimize(
    corpus_seed: int,
    commands: list,
    config: FuzzConfig | None = None,
    service_factory=None,
) -> list:
    """Shrink a failing sequence to a (1-minimal-ish) short repro.

    ddmin-style: repeatedly delete chunks, keeping any deletion after
    which the replay still diverges.  Replays run with the *thorough*
    config so probe-dependent failures don't escape through step-index
    drift.
    """
    config = config if config is not None else FuzzConfig.thorough()

    def reproduces(candidate: list) -> bool:
        corpus = random_corpus(corpus_seed)
        service = service_factory() if service_factory is not None else None
        try:
            run_commands(corpus, candidate, config=config, service=service)
        except Divergence:
            return True
        return False

    current = list(commands)
    if not reproduces(current):
        return current  # not reproducible under replay; keep everything
    chunk = max(1, len(current) // 2)
    while True:
        reduced = False
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + chunk:]
            if candidate and reproduces(candidate):
                current = candidate
                reduced = True
            else:
                index += chunk
        if reduced:
            continue
        if chunk == 1:
            return current
        chunk = max(1, chunk // 2)


def fuzz(
    seed: int,
    steps: int = 1000,
    corpora: int = 10,
    config: FuzzConfig | None = None,
    repro_path=None,
    minimize_failures: bool = True,
    service_factory=None,
    log=None,
) -> FuzzReport:
    """The outer fuzz loop: ``corpora`` random corpora, ``steps`` total.

    Deterministic in ``seed``.  Stops at the first divergence, minimizes
    it, optionally writes a replayable repro file, and returns a report;
    ``report.ok`` means the whole budget ran clean.  ``service_factory``
    substitutes the system under test (used by the harness's own tests
    to prove a buggy service is caught).
    """
    rng = random.Random(seed)
    report = FuzzReport(seed=seed)
    steps_per_corpus = max(1, steps // max(1, corpora))
    for _ in range(corpora):
        corpus_seed = rng.randrange(2**31)
        corpus = random_corpus(corpus_seed)
        service = service_factory() if service_factory is not None else None
        runner = DifferentialRunner(corpus, config=config, service=service)
        generator = CommandGenerator(
            random.Random(rng.randrange(2**31)), corpus
        )
        generator.bind(runner)
        executed: list = []
        report.corpora_run += 1
        try:
            for _step in range(steps_per_corpus):
                command = generator.next_command()
                executed.append(command)
                runner.step(command)
                report.steps_run += 1
        except Divergence as divergence:
            report.steps_run += 1
            if log is not None:
                log(
                    f"divergence on corpus seed {corpus_seed} at "
                    f"step {divergence.step}: {divergence.detail}"
                )
            commands = executed
            if minimize_failures:
                commands = minimize(
                    corpus_seed, executed, service_factory=service_factory
                )
            failure = FuzzFailure(
                corpus_seed=corpus_seed,
                step=divergence.step,
                detail=divergence.detail,
                commands=commands,
            )
            if repro_path is not None:
                from .codec import dump_repro

                dump_repro(
                    repro_path, corpus_seed, commands, divergence.detail
                )
                failure.repro_path = str(repro_path)
            report.failure = failure
            return report
        oracle_on = config.store_oracle if config is not None else True
        if oracle_on:
            from .storecheck import StoreCheckReport, verify_log_replay

            oracle = StoreCheckReport(seed=corpus_seed)
            if not verify_log_replay(
                corpus.workspace.graph, oracle, corpus_seed, suggest_txs=2
            ):
                report.failure = FuzzFailure(
                    corpus_seed=corpus_seed,
                    step=steps_per_corpus,
                    detail="log-replay oracle: " + oracle.violations[0],
                    commands=[],
                )
                if log is not None:
                    log(
                        f"log-replay oracle violation on corpus seed "
                        f"{corpus_seed}: {oracle.violations[0]}"
                    )
                return report
        if log is not None:
            log(
                f"corpus seed {corpus_seed}: {steps_per_corpus} step(s) clean"
            )
    return report
