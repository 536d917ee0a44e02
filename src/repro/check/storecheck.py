"""The log-replay oracle: durability must be invisible.

The datom-log refactor's core promise is that the indexes are *pure
views* of the log: writing a graph's log to disk, reading it back, and
folding it into a fresh graph must reproduce the original bit for bit —
same SPO/POS/OSP indexes, same size, same version counter, same tx ids
— and at every recorded transaction the production time-travel path
(:meth:`~repro.rdf.graph.Graph.as_of`) must agree with a
straightforward incremental fold of the log prefix.

:func:`verify_log_replay` checks exactly that for one graph, through a
real on-disk :class:`~repro.store.segments.LogStore` (so segment
encode/decode, checksums, and the manifest are in the loop), and
compares navigation output — the canonical suggestions payload — at
sampled transactions between the replayed ``as_of`` view and a fresh
build of the same prefix.  :func:`run_store_check` is the seeded outer
loop ``repro check --store`` runs: random corpora, each mutated with
interleaved retracts/re-asserts so history is not append-only, then the
oracle.  The differential fuzzer also calls the oracle once per corpus.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field

from ..rdf.graph import Graph
from ..store.datom import OP_ASSERT, OP_RETRACT
from ..store.segments import LogStore
from .corpus import random_corpus

__all__ = ["StoreCheckReport", "verify_log_replay", "run_store_check"]


@dataclass
class StoreCheckReport:
    """What a store-oracle run covered; ``ok`` means no violation."""

    seed: int
    corpora_run: int = 0
    txs_checked: int = 0
    suggest_txs_checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _index_snapshot(graph: Graph):
    """The three indexes as comparable plain structures."""

    def plain(index):
        return {
            a: {b: frozenset(cs) for b, cs in by.items()}
            for a, by in index.items()
        }

    return (
        plain(graph._spo),
        plain(graph._pos),
        plain(graph._osp),
        len(graph),
        graph.version,
        graph.last_tx,
    )


def workspace_fingerprint(workspace, engine=None):
    """The canonical landing suggestions and Similar Items of one
    (frozen) workspace.

    The suggestions are built through a real session so the whole stack
    — workspace substrates, engine, advisors — is between the input and
    the comparison.  The epoch oracle (``repro check --ingest``) compares
    this fingerprint between a published epoch and a cold build at the
    epoch's watermark transaction.  A fresh engine runs every analyst;
    passing an engine that already landed on the workspace serves the
    view-pure analysts from the workspace's analysis memo.

    A whole-corpus landing ranks no item by vector score, so the
    fingerprint also carries the top-10 ``similar_to_item`` hits, items
    and scores, of two fixed item views: the first and the last item;
    and the top-10 ``similar_to_collection`` hits of the collection of
    the first 20 items, whose scores come from a centroid.
    """
    from ..browser.session import Session
    from ..net.protocol import canonical_json, suggestions_payload
    from ..service.serialize import node_to_dict

    session = Session(workspace, engine=engine, session_id="storecheck")
    payload = suggestions_payload(session.suggestions())
    items = workspace.items
    store = workspace.vector_store
    payload["similar"] = [
        {
            "item": node_to_dict(item),
            "hits": [
                [node_to_dict(hit.item), hit.score]
                for hit in store.similar_to_item(item, 10)
            ],
        }
        for item in dict.fromkeys(items[:1] + items[-1:])
    ]
    payload["similar_collection"] = [
        [node_to_dict(hit.item), hit.score]
        for hit in store.similar_to_collection(items[:20], 10)
    ]
    return canonical_json(payload)


def _suggestions_fingerprint(graph: Graph):
    """Fingerprint of a fresh cold build over ``graph``'s full log."""
    from ..core.workspace import Workspace

    return workspace_fingerprint(Workspace(Graph.from_datoms(graph.log)))


def _tx_boundaries(graph: Graph) -> list[int]:
    seen: list[int] = []
    for datom in graph.log:
        if not seen or datom.tx != seen[-1]:
            seen.append(datom.tx)
    return seen


def verify_log_replay(
    graph: Graph,
    report: StoreCheckReport,
    corpus_seed: int,
    suggest_txs: int = 3,
) -> bool:
    """Run the full oracle for one graph; append violations to report.

    Checks, in order:

    1. **Durable round-trip** — the log written through a real
       ``LogStore`` and replayed yields bit-identical indexes, size,
       version, and tx ids.
    2. **Every recorded tx** — ``as_of(tx)`` on the replayed graph
       matches an incremental fold of the log prefix, index for index.
    3. **Sampled suggestions** — at up to ``suggest_txs`` transactions
       (always including the head), the canonical suggestions payload
       of the replayed historical view equals a fresh build's.
    """
    before = len(report.violations)

    with tempfile.TemporaryDirectory(prefix="repro-storecheck-") as root:
        store = LogStore.init(f"{root}/store")
        store.append_log(graph.log, batch=64)
        reopened = LogStore.open(f"{root}/store")
        try:
            replayed = reopened.replay_graph()
        except ValueError as error:
            report.violations.append(
                f"corpus {corpus_seed}: durable replay failed: {error}"
            )
            return False

    if _index_snapshot(replayed) != _index_snapshot(graph):
        report.violations.append(
            f"corpus {corpus_seed}: replayed indexes differ from original"
        )

    # Incremental fold vs the production as_of path, every recorded tx.
    boundaries = _tx_boundaries(graph)
    fold = Graph()
    datoms = iter(graph.log)
    pending = next(datoms, None)
    for tx in boundaries:
        group = []
        while pending is not None and pending.tx == tx:
            group.append(pending)
            pending = next(datoms, None)
        fold._replay(group)
        view = replayed.as_of(tx)
        report.txs_checked += 1
        if _index_snapshot(view)[:4] != _index_snapshot(fold)[:4]:
            report.violations.append(
                f"corpus {corpus_seed}: as_of({tx}) differs from the "
                f"incremental fold of the log prefix"
            )
            break

    # Navigation parity at sampled transactions (head always included).
    if boundaries:
        step = max(1, len(boundaries) // max(1, suggest_txs))
        sampled = sorted({*boundaries[::step], boundaries[-1]})[-suggest_txs:]
        for tx in sampled:
            view = replayed.as_of(tx)
            report.suggest_txs_checked += 1
            if _suggestions_fingerprint(view) != _suggestions_fingerprint(
                graph.as_of(tx)
            ):
                report.violations.append(
                    f"corpus {corpus_seed}: suggestions at as_of({tx}) "
                    f"differ between replayed and original history"
                )
                break

    return len(report.violations) == before


def _mutated_corpus_graph(corpus_seed: int, rng: random.Random) -> Graph:
    """A corpus graph with retracts and re-asserts layered on top.

    ``random_corpus`` only asserts; time travel is interesting when
    history contains removals, so a random third of the triples are
    retracted — some individually, some inside multi-op transactions
    that retract one triple and re-assert another.  The writes go to a
    fork of the corpus graph, which its workspace sealed.
    """
    graph = random_corpus(corpus_seed).workspace.graph.fork()
    triples = sorted(graph.triples(), key=repr)
    rng.shuffle(triples)
    victims = triples[: len(triples) // 3]
    revived = []
    while victims:
        s, p, o = victims.pop()
        if rng.random() < 0.5 and victims:
            s2, p2, o2 = victims.pop()
            graph.transact(
                [(OP_RETRACT, s, p, o), (OP_RETRACT, s2, p2, o2)]
            )
            revived.append((s2, p2, o2))
        else:
            graph.remove(s, p, o)
    for s, p, o in revived:
        if rng.random() < 0.6:
            graph.transact([(OP_ASSERT, s, p, o)])
    return graph


def run_store_check(
    seed: int,
    corpora: int = 5,
    suggest_txs: int = 3,
    log=None,
) -> StoreCheckReport:
    """The seeded outer loop behind ``repro check --store``.

    Deterministic in ``seed``: ``corpora`` random corpora, each with an
    interleaved assert/retract history, pushed through the full oracle.
    """
    rng = random.Random(seed)
    report = StoreCheckReport(seed=seed)
    for _ in range(corpora):
        corpus_seed = rng.randrange(2**31)
        graph = _mutated_corpus_graph(corpus_seed, rng)
        ok = verify_log_replay(
            graph, report, corpus_seed, suggest_txs=suggest_txs
        )
        report.corpora_run += 1
        if log is not None:
            log(
                f"store oracle corpus {corpus_seed}: "
                f"{'ok' if ok else 'VIOLATION'} "
                f"({graph.last_tx} tx, {len(graph.log)} datoms)"
            )
        if not ok:
            break
    return report
