"""``repro check --ingest`` — the live-ingestion epoch oracle.

The epoch fold (:mod:`repro.core.epochs`) promises that a published
epoch is *bit-identical* to a cold build of the log prefix at the
epoch's watermark transaction.  This module races that promise
continuously: per corpus it stands up an :class:`EpochManager`, streams
randomized mutations phrased in the corpus's own vocabulary (new items,
facet churn, untypings, numeric values that move the range bounds, the
occasional schema annotation that forces the cold-fallback path),
publishes an epoch after every few transactions, and checks two oracles
at each watermark:

* **fingerprint parity** — the canonical suggestions payload of the
  published epoch, landed on twice (the second time served from the
  epoch's analysis memo), plus the Similar Items hits and scores of its
  first and last item, equals that of
  :meth:`~repro.core.epochs.EpochManager.cold_workspace` at the same
  watermark (``as_of`` is the ground truth);
* **navigation parity** — a :class:`DifferentialRunner` drives random
  commands against the live epoch while its
  :class:`~repro.check.reference.ReferenceModel` is rebuilt over the
  *cold* workspace, so every refinement, zoom, search, and suggestion
  probe compares incremental state against from-scratch state;
* **migrated previews** — one session, narrowed in the first epoch, is
  carried into every later one the way ``sync_session`` carries it
  (same view, new workspace), and previews one predicate per epoch.  A
  view caches its items' mask per intern table and every epoch has a
  fresh table, so the view's mask must equal its items' mask under the
  new table, and the count must equal a naive count over the cold
  build.

``mutate_epoch`` is the harness-sensitivity seam: a test can plant a
deliberate staleness bug (e.g. a facet-profile memo carried across a
dirty delta) in each published epoch and assert the check *fails* —
proving the oracle has teeth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from ..core.engine import NavigationEngine
from ..core.epochs import EpochManager
from ..core.suggestions import RefineMode
from ..query.ast import HasValue, Range
from ..rdf import RDF, Literal
from ..rdf.vocab import MAGNET
from ..service import commands as cmd
from ..service.navigation import NavigationService
from ..service.state import SessionState
from ..store.datom import OP_ASSERT, OP_RETRACT
from .corpus import FUZZ, FuzzCorpus, random_corpus
from .fuzzer import CommandGenerator, DifferentialRunner, Divergence, FuzzConfig
from .reference import ReferenceModel, naive_extent
from .storecheck import workspace_fingerprint

__all__ = ["IngestCheckReport", "run_ingest_check"]


@dataclass
class IngestCheckReport:
    """What an ingest-oracle run covered; ``ok`` means no violation."""

    seed: int
    corpora_run: int = 0
    epochs_checked: int = 0
    txs_ingested: int = 0
    datoms_ingested: int = 0
    nav_steps_run: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


class _DeltaSoup:
    """Random live mutations drawn from one corpus's vocabulary.

    Every op kind maps to a fold code path: fresh items (adds), facet
    churn (leaf replay + postings sweep), untypings (universe removal),
    out-of-span numerics (range move → unit-circle weights), title edits
    (text-index reindex), and rare schema annotations (cold fallback).
    Targets are picked from the *published* epoch, so a retract can race
    a concurrent head change and land ineffective — which the datom log
    treats as a no-op, exactly like production ingestion.
    """

    def __init__(self, rng: random.Random, corpus: FuzzCorpus):
        self.rng = rng
        self.corpus = corpus
        graph = corpus.workspace.graph
        self.types = sorted(
            {o for _s, _p, o in graph.triples(None, RDF.type, None)},
            key=lambda n: n.n3(),
        )
        self._fresh = 0

    def _pick_item(self, workspace):
        items = workspace.items
        if not items:
            return None
        return self.rng.choice(items)

    def next_ops(self, workspace) -> list[tuple]:
        rng = self.rng
        corpus = self.corpus
        kind = rng.choices(
            ["new_item", "facet_churn", "untype", "numeric", "title",
             "annotate"],
            weights=[3, 4, 1, 3, 2, 1],
        )[0]

        if kind == "new_item":
            self._fresh += 1
            item = FUZZ[f"live{self._fresh}"]
            ops = [(OP_ASSERT, item, RDF.type, rng.choice(self.types))]
            for prop in corpus.props:
                if rng.random() < 0.7:
                    ops.append((OP_ASSERT, item, prop,
                                rng.choice(corpus.values)))
            prop = rng.choice(corpus.numeric_props)
            ops.append((OP_ASSERT, item, prop,
                        Literal(round(rng.uniform(0.0, 100.0), 1))))
            title = " ".join(rng.choice(corpus.words) for _ in range(3))
            ops.append((OP_ASSERT, item, FUZZ.title, Literal(title)))
            return ops

        item = self._pick_item(workspace)
        if item is None:
            return self.next_ops(workspace)
        graph = workspace.graph

        if kind == "facet_churn":
            prop = rng.choice(corpus.props)
            ops = []
            existing = [o for _s, _p, o in graph.triples(item, prop, None)]
            if existing and rng.random() < 0.6:
                ops.append((OP_RETRACT, item, prop, rng.choice(existing)))
            ops.append((OP_ASSERT, item, prop, rng.choice(corpus.values)))
            return ops

        if kind == "untype":
            return [
                (OP_RETRACT, item, RDF.type, o)
                for _s, _p, o in graph.triples(item, RDF.type, None)
            ] or self.next_ops(workspace)

        if kind == "numeric":
            prop = rng.choice(corpus.numeric_props)
            ops = [
                (OP_RETRACT, item, prop, o)
                for _s, _p, o in graph.triples(item, prop, None)
            ]
            # One draw in three lands outside the corpus span and moves
            # the recorded range, which every numeric posting is encoded
            # against.
            value = rng.uniform(-50.0, 150.0)
            ops.append((OP_ASSERT, item, prop, Literal(round(value, 1))))
            return ops

        if kind == "title":
            ops = [
                (OP_RETRACT, item, FUZZ.title, o)
                for _s, _p, o in graph.triples(item, FUZZ.title, None)
            ]
            title = " ".join(rng.choice(corpus.words) for _ in range(4))
            ops.append((OP_ASSERT, item, FUZZ.title, Literal(title)))
            return ops

        # annotate: flip a schema mark — the fold's cold-fallback path.
        prop = rng.choice(corpus.props)
        if graph.value(prop, MAGNET.hidden) is not None:
            return [(OP_RETRACT, prop, MAGNET.hidden, Literal(True))]
        return [(OP_ASSERT, prop, MAGNET.hidden, Literal(True))]


def run_ingest_check(
    seed: int,
    corpora: int = 4,
    epochs: int = 4,
    txs_per_epoch: int = 2,
    nav_steps: int = 12,
    log=None,
    mutate_epoch=None,
) -> IngestCheckReport:
    """Race live ingestion against the cold ``as_of`` oracle.

    Per corpus: ingest → publish → fingerprint parity → navigation
    differential with the reference rebuilt at the watermark.  The
    ``mutate_epoch`` hook (tests only) corrupts each published epoch's
    workspace before checking, to prove the oracle detects staleness.
    """
    report = IngestCheckReport(seed=seed)
    outer = random.Random(seed)
    for _ in range(max(1, corpora)):
        corpus_seed = outer.randrange(2**31)
        corpus = random_corpus(corpus_seed)
        manager = EpochManager(corpus.workspace)
        rng = random.Random(corpus_seed ^ 0x1395E57)
        soup = _DeltaSoup(rng, corpus)
        report.corpora_run += 1
        published = 0
        # Its own stream, so the mutations drawn stay those of ``rng``.
        preview_rng = random.Random(corpus_seed ^ 0x7E5E)
        migrated: SessionState | None = None
        for _round in range(max(2, epochs)):
            before = manager._datoms_ingested
            for _tx in range(rng.randint(1, max(1, txs_per_epoch))):
                tx = manager.ingest(
                    soup.next_ops(manager.current.workspace)
                )
                if tx is not None:
                    report.txs_ingested += 1
            report.datoms_ingested += manager._datoms_ingested - before
            epoch = manager.publish()
            if epoch is None:
                continue  # every op raced to a no-op: nothing to check
            published += 1
            if mutate_epoch is not None:
                mutate_epoch(epoch)
            cold = manager.cold_workspace(epoch.watermark)
            expected = workspace_fingerprint(cold)
            # The first landing runs every analyst; the second is served
            # from the epoch workspace's analysis memo.
            engine = NavigationEngine()
            if any(
                workspace_fingerprint(epoch.workspace, engine) != expected
                for _landing in range(2)
            ):
                report.violations.append(
                    f"corpus {corpus_seed} epoch {epoch.number}: published "
                    f"suggestions diverge from cold as_of("
                    f"{epoch.watermark}) build"
                )
                break  # the epoch chain is already suspect
            migrated = _preview_migrated(
                corpus, preview_rng, epoch, cold, migrated, corpus_seed,
                report,
            )
            steps = _race_navigation(
                corpus, epoch, cold, corpus_seed, nav_steps, report
            )
            report.nav_steps_run += steps
            report.epochs_checked += 1
        if log is not None:
            log(
                f"corpus {corpus_seed}: {published} epoch(s) published, "
                f"head tx {manager.head_tx}"
            )
    return report


def _preview_migrated(
    corpus: FuzzCorpus,
    rng: random.Random,
    epoch,
    cold,
    state: SessionState | None,
    corpus_seed: int,
    report: IngestCheckReport,
) -> SessionState:
    """Preview one predicate on a session carried over from the last epoch.

    The first epoch lands a session and narrows it by one facet value
    (kept or excluded); later epochs reuse that state, view object and
    all.  Before the preview, the view's mask under this epoch's intern
    table must equal the mask of its items: a count alone can miss a
    stale mask.  Returns the state to carry on.
    """
    service = NavigationService()
    workspace = epoch.workspace
    graph = workspace.graph
    if state is None:
        state = service.initial_state(workspace)
        prop = rng.choice(corpus.props)
        values = sorted(set(graph.objects(None, prop)), key=lambda n: n.n3())
        if values:
            mode = rng.choice([RefineMode.FILTER, RefineMode.EXCLUDE])
            narrow = cmd.Refine(HasValue(prop, rng.choice(values)), mode)
            state = service.apply(workspace, state, narrow).state
    items = state.view.items
    if items and rng.random() < 0.5:
        item = rng.choice(items)
        pairs = sorted(
            ((p, o) for _s, p, o in graph.triples(item, None, None)
             if p in corpus.props),
            key=lambda pair: (pair[0].n3(), pair[1].n3()),
        )
        predicate = HasValue(*rng.choice(pairs)) if pairs else None
    else:
        predicate = None
    if predicate is None:
        low, high = corpus.numeric_span
        bounds = sorted(rng.uniform(low, high) for _ in range(2))
        predicate = Range(rng.choice(corpus.numeric_props), *bounds)
    table = graph.interner
    if state.view.bits(table) != table.bits_of(items):
        report.violations.append(
            f"corpus {corpus_seed} epoch {epoch.number}: migrated session "
            f"view mask disagrees with its items under the epoch's "
            f"intern table"
        )
    count = service.preview_count(workspace, state, predicate)
    naive = len(naive_extent(predicate, set(items), cold.query_context))
    if count != naive:
        report.violations.append(
            f"corpus {corpus_seed} epoch {epoch.number}: migrated session "
            f"previews {predicate!r} at {count}, naive count over the "
            f"cold build is {naive}"
        )
    return state


def _race_navigation(
    corpus: FuzzCorpus,
    epoch,
    cold,
    corpus_seed: int,
    nav_steps: int,
    report: IngestCheckReport,
) -> int:
    """Random commands: live epoch vs reference over the cold build."""
    live = replace(corpus, workspace=epoch.workspace)
    runner = DifferentialRunner(live, config=FuzzConfig.thorough())
    # Rebuild the reference at the watermark — over the *cold* workspace,
    # so the race compares incremental substrates with from-scratch ones
    # at every step, not just at the initial collection.
    runner.model = ReferenceModel(cold, back_limit=runner.state.back_limit)
    generator = CommandGenerator(
        random.Random(corpus_seed * 31 + epoch.number), live
    )
    generator.bind(runner)
    steps = 0
    try:
        for _ in range(max(1, nav_steps)):
            runner.step(generator.next_command())
            steps += 1
    except Divergence as divergence:
        report.violations.append(
            f"corpus {corpus_seed} epoch {epoch.number}: navigation "
            f"diverged from watermark rebuild at step "
            f"{divergence.step}: {divergence.detail}"
        )
    return steps
