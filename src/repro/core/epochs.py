"""Epoch-based snapshot workspaces: live ingestion under traffic.

A :class:`~repro.core.workspace.Workspace` is sealed when it is built —
perfect for lock-free concurrent reads, useless on its own for a corpus
that keeps growing while users browse.  This module is the one path by
which new data reaches a serving process: an MVCC-style write side that
gives up no read guarantee:

* **Writers** append datoms to a mutable *head* graph (and, when a
  durable :class:`~repro.store.segments.LogStore` is attached, to disk)
  through :meth:`EpochManager.ingest`.  The head is never read by
  sessions.
* A **reindexer** (the background thread, or an explicit
  :meth:`EpochManager.publish`) folds the accumulated delta into the
  next epoch, a new sealed workspace: the previous epoch's graph is
  forked copy-on-write, the delta is replayed onto it, and the derived
  substrates are advanced:
  the vector model, text index, per-item facet entries and
  facet-profile memo incrementally, the vector store by one build at
  the new statistics.
* **Readers** pin an immutable epoch per session.  Publishing an epoch
  is an atomic pointer swap; an old epoch is retired once its last
  session releases it.

The fold is *bit-identical* to a cold build at the epoch's watermark
transaction: ``Workspace(graph.as_of(watermark))`` is the ready-made
oracle, and ``repro check --ingest`` races the two continuously.  The
parity rests on three mechanisms:

* the graph fork rebuilds every delta-touched index leaf by replaying
  that leaf's full op history (set layout — which leaks into float
  summation order — matches a cold replay; untouched leaves are shared);
* the model clone re-extracts exactly the items whose direct properties
  or composition inputs changed, then restores the profile-table order
  and recomputes numeric ranges (removals keep incremental ranges
  conservative; a cold build's are tight);
* every publish rebuilds the vector store from the advanced model at
  current statistics, after the numeric ranges are recomputed.  Any
  membership change moves num-docs, hence every idf and every document
  norm, and range bounds feed the unit-circle encoding, so no posting
  of the prior epoch's index is reused.

Schema-annotation deltas (``magnet:valueType`` / ``compose`` / ``hidden``
/ ``importantProperty``) change classification rules globally, so those
epochs fall back to a cold build over the forked graph — rare by
construction, still correct.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

from ..index.store import VectorStore
from ..obs import Observability
from ..rdf.graph import Graph
from ..rdf.schema import Schema
from ..rdf.terms import Node
from ..rdf.vocab import MAGNET, RDF
from ..store.datom import OP_ASSERT, OP_RETRACT
from .analysts.records import AnalystRecords
from .workspace import Workspace

__all__ = ["Epoch", "EpochManager", "EpochPinError"]


class EpochPinError(RuntimeError):
    """A release that would drop a live epoch's refcount below its pins.

    Raised when an anonymous ``release()`` arrives for a live epoch
    that has no outstanding pins — the double-release shape that used
    to silently decrement a *live* refcount and let a reader's epoch
    retire out from under it.
    """

#: Predicates whose datoms change classification rules for *every* item
#: (value types, compositions, hidden marks).  A delta carrying one
#: falls back to a cold build; ``rdfs:label`` is deliberately absent —
#: labels ride the normal touched-item path.
_SCHEMA_PREDICATES = frozenset(
    {MAGNET.valueType, MAGNET.compose, MAGNET.hidden, MAGNET.importantProperty}
)


def _n3_key(node: Node) -> str:
    return node.n3()


class Epoch:
    """One published, immutable snapshot of the corpus.

    ``watermark`` is the last transaction folded into the workspace;
    ``refs`` counts the sessions currently pinned here.  Lifecycle is
    managed by the :class:`EpochManager` — an epoch retires once it is
    no longer current and its last session releases it.
    """

    __slots__ = ("number", "workspace", "watermark", "refs", "retired")

    def __init__(self, number: int, workspace: Workspace, watermark: int):
        self.number = number
        self.workspace = workspace
        self.watermark = watermark
        self.refs = 0
        self.retired = False

    def __repr__(self) -> str:
        return (
            f"<Epoch {self.number} tx<={self.watermark} "
            f"refs={self.refs}{' retired' if self.retired else ''}>"
        )


class EpochManager:
    """Owns the head graph, the epoch chain, and the reindexer."""

    def __init__(
        self,
        workspace: Workspace,
        obs: Observability | None = None,
        store=None,
    ):
        self.obs = obs if obs is not None else workspace.obs
        #: Optional LogStore; every ingested transaction is sealed into
        #: a segment *before* the ingest call returns, so a crash mid
        #: epoch-publish restarts on the last durable transaction.
        self.store = store
        #: The writer's graph.  Forked from epoch 0 so its log carries
        #: the full history; sessions never read it.
        self._head: Graph = workspace.graph.fork()
        epoch = Epoch(0, workspace, workspace.graph.last_tx)
        self._epochs: dict[int, Epoch] = {0: epoch}
        self._current = epoch
        #: Serializes writers (transact + durable append stay ordered).
        self._write_lock = threading.Lock()
        #: Serializes folds (publish is single-flight).
        self._publish_lock = threading.Lock()
        #: Guards the epoch table, the current pointer, and refcounts.
        self._state_lock = threading.Lock()
        #: session name -> {epoch number: pin count}.  Sessions that
        #: acquire anonymously are not tracked here; named pins make
        #: release() idempotent per session (double releases no-op
        #: instead of decrementing someone else's pin).
        self._pins: dict[str, dict[int, int]] = {}
        self._publishes = 0
        self._datoms_ingested = 0
        self._retired_total = 0
        self._reindexer: threading.Thread | None = None
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._wire_metrics()

    def _wire_metrics(self) -> None:
        metrics = self.obs.metrics
        metrics.gauge_fn("epochs.current", lambda: self._current.number)
        metrics.gauge_fn("epochs.live", lambda: len(self._epochs))
        metrics.gauge_fn("epochs.publishes", lambda: self._publishes)
        metrics.gauge_fn("epochs.retired", lambda: self._retired_total)
        metrics.gauge_fn("epochs.datoms_ingested", lambda: self._datoms_ingested)
        #: How far the head has run ahead of what readers can see.
        metrics.gauge_fn(
            "epochs.lag_tx",
            lambda: self._head.last_tx - self._current.watermark,
        )

    # ------------------------------------------------------------------
    # Reader side: pinning
    # ------------------------------------------------------------------

    @property
    def current(self) -> Epoch:
        """The published epoch (atomic pointer read)."""
        return self._current

    def acquire(self, session: str | None = None) -> Epoch:
        """Pin the current epoch; pairs with release().

        With a ``session`` name the pin is tracked per session, which
        makes the matching release idempotent: releasing an epoch the
        session does not hold is a no-op rather than a decrement of
        some other reader's pin.
        """
        with self._state_lock:
            epoch = self._current
            epoch.refs += 1
            if session is not None:
                held = self._pins.setdefault(session, {})
                held[epoch.number] = held.get(epoch.number, 0) + 1
            return epoch

    def release(self, number: int, session: str | None = None) -> None:
        """Drop one session's pin on epoch ``number``.

        Numbers of already-retired epochs are ignored (e.g. a
        session-state load from an older run).  A named release only
        decrements if that session actually holds a pin on the epoch —
        a double release (session delete racing lazy migration) is a
        no-op.  An anonymous release of a live epoch with no
        outstanding pins raises :class:`EpochPinError` instead of
        silently pushing a live refcount below its pin count.
        """
        with self._state_lock:
            epoch = self._epochs.get(number)
            if epoch is None:
                if session is not None:
                    held = self._pins.get(session)
                    if held is not None:
                        held.pop(number, None)
                        if not held:
                            del self._pins[session]
                return
            if session is not None:
                held = self._pins.get(session)
                if held is None or number not in held:
                    return  # double release: this session holds no pin
                held[number] -= 1
                if held[number] <= 0:
                    del held[number]
                if not held:
                    del self._pins[session]
            elif epoch.refs <= 0:
                raise EpochPinError(
                    f"release of epoch {number} which has no outstanding "
                    f"pins (refs={epoch.refs})"
                )
            epoch.refs -= 1
            self._retire_idle_locked()

    def get(self, number: int) -> Epoch | None:
        with self._state_lock:
            return self._epochs.get(number)

    def _retire_idle_locked(self) -> None:
        for number in list(self._epochs):
            epoch = self._epochs[number]
            if epoch is not self._current and epoch.refs <= 0:
                epoch.retired = True
                del self._epochs[number]
                self._retired_total += 1

    # ------------------------------------------------------------------
    # Writer side: ingestion
    # ------------------------------------------------------------------

    @property
    def head_tx(self) -> int:
        """The last transaction the writer has committed."""
        return self._head.last_tx

    @property
    def lag(self) -> int:
        """Transactions committed but not yet visible to readers."""
        return self._head.last_tx - self._current.watermark

    def ingest(self, ops: Iterable[tuple]) -> int | None:
        """Apply one transaction of ``(op, s, p, o)`` tuples to the head.

        Returns the minted tx id (None when nothing was effective).
        With a durable store attached, the transaction's datoms are
        sealed into a segment before this returns — write durability
        never waits for reindexing.
        """
        with self._write_lock:
            tx = self._head.transact(ops)
            if tx is None:
                return None
            datoms = list(self._head.log.datoms_since(tx - 1))
            self._datoms_ingested += len(datoms)
            if self.store is not None:
                self.store.append(datoms, obs=self.obs)
        self._wake.set()
        return tx

    def cold_workspace(self, watermark: int) -> Workspace:
        """A from-scratch build of the corpus as of ``watermark``.

        This is the oracle ``repro check --ingest`` races every published
        epoch against: the same log prefix folded into a fresh graph and
        indexed with zero incremental machinery.  A published epoch's
        suggestions must be bit-identical to this build's.
        """
        view = self._head.as_of(watermark)
        return Workspace(Graph.from_datoms(view.log), obs=self.obs)

    def ingest_ntriples(self, text: str) -> dict:
        """Ingest a streamed N-Triples payload as one transaction.

        Every triple is asserted; already-present triples are no-ops
        (set semantics).  Returns a summary the ``POST /ingest`` route
        serializes: parsed/applied counts, the tx id, and the lag.
        """
        from ..rdf.ntriples import iter_triples

        triples = list(iter_triples(text))
        tx = self.ingest((OP_ASSERT, s, p, o) for s, p, o in triples)
        applied = 0
        if tx is not None:
            applied = sum(1 for d in self._head.log.datoms_since(tx - 1))
        return {
            "parsed": len(triples),
            "applied": applied,
            "tx": tx if tx is not None else self._head.last_tx,
            "effective": tx is not None,
            "epoch": self._current.number,
            "lag_tx": self.lag,
        }

    # ------------------------------------------------------------------
    # Publishing: fold the delta into the next epoch
    # ------------------------------------------------------------------

    def publish(self) -> Epoch | None:
        """Fold every unpublished transaction into a new epoch.

        Returns the new epoch, or None when the head has nothing new.
        Writers keep committing while the fold runs; anything they add
        after the cut lands in the next epoch.  The pointer swap at the
        end is atomic; old epochs retire when their last session leaves.
        """
        with self._publish_lock:
            prev = self._current
            delta = list(self._head.log.datoms_since(prev.watermark))
            if not delta:
                return None
            with self.obs.tracer.span(
                "epochs.publish", datoms=len(delta), epoch=prev.number + 1
            ):
                workspace = self._fold(prev.workspace, delta)
            epoch = Epoch(prev.number + 1, workspace, delta[-1].tx)
            with self._state_lock:
                self._epochs[epoch.number] = epoch
                self._current = epoch
                self._publishes += 1
                self._retire_idle_locked()
            return epoch

    def _fold(self, prev: Workspace, delta: Sequence) -> Workspace:
        graph = prev.graph.fork()
        graph._preown_for_replay(delta)
        graph._replay(delta)

        if any(d.p in _SCHEMA_PREDICATES for d in delta):
            # Annotation deltas change classification for every item —
            # the incremental carry would be unsound.  Cold-build the
            # epoch over the forked graph (history intact, so the
            # as_of oracle still holds).
            return Workspace(
                graph,
                use_compositions=prev.model.use_compositions,
                obs=self.obs,
            )

        schema = Schema(graph)
        items = sorted(
            {s for s, _p, _o in graph.triples(None, RDF.type, None)},
            key=_n3_key,
        )
        items_set = set(items)
        prev_items_set = set(prev.items)

        touched = {d.s for d in delta}
        touched |= self._composition_dirty(prev, graph, delta)
        removed = prev_items_set - items_set
        reindex = (touched & items_set) | (items_set - prev_items_set)
        # Not clipped to the items: facet entries and profiles exist for
        # any node a collection named.
        dirty = touched | removed

        # -- vector model + store -------------------------------------
        model = prev.model.clone_for(graph, schema)
        for item in sorted(removed, key=_n3_key):
            model.remove_item(item)
        for item in sorted(reindex, key=_n3_key):
            model.add_item(item)
        model.reorder_items(items)
        model.recompute_ranges()
        # Built after the ranges settle (they feed the unit-circle
        # weights) and eagerly, so the first search on the new epoch
        # finds the index ready.
        store = VectorStore(model, obs=self.obs)
        store.refresh()

        # -- text index -----------------------------------------------
        text_index = prev.text_index.clone_for(graph)
        for item in sorted(removed, key=_n3_key):
            text_index.unindex_item(item)
        for item in sorted(reindex, key=_n3_key):
            text_index.index_item(item)

        # -- facet entries + profile memo ----------------------------
        records = AnalystRecords.advance(
            prev.analyst_records(), graph, schema, dirty
        )
        # Sessions still suggesting on ``prev`` insert into its memo
        # concurrently; iterate a snapshot taken under the memo's lock.
        with prev._profile_lock:
            memo = list(prev._facet_profiles.items())
        carried_profiles = {
            collection: profile
            for collection, profile in memo
            if dirty.isdisjoint(collection)
        }

        return Workspace.from_substrates(
            graph,
            schema,
            items,
            model,
            store,
            text_index,
            obs=self.obs,
            analyst_records=records,
            carried_profiles=carried_profiles,
        )

    def _composition_dirty(
        self, prev: Workspace, graph: Graph, delta: Sequence
    ) -> set[Node]:
        """Items whose *composed* coordinates a delta datom may change.

        A datom with predicate at chain position ``j > 0`` affects every
        item that reaches its subject through the chain prefix — walked
        backward over both the previous and the new graph, so created
        and severed paths are both caught.  The set over-approximates
        (re-extraction of an unaffected item is idempotent), never
        under-approximates.
        """
        chains = prev.model._effective_compositions()
        if not chains:
            return set()
        dirty: set[Node] = set()
        for datom in delta:
            for chain in chains:
                for j, prop in enumerate(chain):
                    if prop != datom.p or j == 0:
                        # j == 0 means the subject itself is the item —
                        # already in the direct touched set.
                        continue
                    prefix = chain[:j]
                    for g in (prev.graph, graph):
                        frontier = {datom.s}
                        for step in reversed(prefix):
                            nxt: set[Node] = set()
                            for node in frontier:
                                nxt.update(g.subjects(step, node))
                            frontier = nxt
                            if not frontier:
                                break
                        dirty |= frontier
        return dirty

    # ------------------------------------------------------------------
    # Background reindexer
    # ------------------------------------------------------------------

    def start_reindexer(self, interval: float = 0.2) -> None:
        """Run publish() in a daemon thread whenever the head advances.

        Must be started in the serving process (threads do not survive
        a fork); idempotent.
        """
        if self._reindexer is not None and self._reindexer.is_alive():
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                self._wake.wait(timeout=interval)
                self._wake.clear()
                if self._stop.is_set():
                    return
                if self.lag > 0:
                    self.publish()

        self._reindexer = threading.Thread(
            target=loop, name="epoch-reindexer", daemon=True
        )
        self._reindexer.start()

    def stop_reindexer(self, drain: bool = True) -> None:
        """Stop the background thread; optionally publish what remains."""
        self._stop.set()
        self._wake.set()
        thread = self._reindexer
        if thread is not None:
            thread.join(timeout=5.0)
            self._reindexer = None
        if drain and self.lag > 0:
            self.publish()

    def __repr__(self) -> str:
        return (
            f"<EpochManager epoch={self._current.number} "
            f"watermark={self._current.watermark} lag={self.lag}>"
        )
